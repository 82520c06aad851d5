"""Fit one sigmoid neuron with the projection rule and watch it stop early.

The fitter adjusts weights on set A only, while the stopping decision
watches the residual norm on held-out set B: it stops as soon as a step
fails to improve B by at least delta, and rolls back to the previous
weights if the last step made B worse.  A fitted single-input neuron is
already a one-neuron cascade model, which classifies on its own.
"""

import numpy as np

from ecnn import (
    CascadeModel,
    Feature,
    NeuronSpec,
    TrainConfig,
    error_rate,
    fit_neuron,
    split_odd_even,
    synth_dataset,
)


def main():
    data, truth = synth_dataset(n=400, m=4, relevant=(2,), noise_sigma=0.4, seed=3)
    split = split_odd_even(data)
    print(f"dataset: {data.n} examples, {data.m} features; "
          f"feature {truth.relevant[0]} drives the label")
    print(f"split: {split.rows.n - split.n_b} fitting (A) / "
          f"{split.n_b} validation (B)")

    config = TrainConfig(delta=0.0015, max_fit_steps=100)
    rng = np.random.default_rng(12)

    for name, column in (("informative x2", 2), ("noise-only x1", 1)):
        wiring = (Feature(column),)
        result = fit_neuron(split, wiring, None, config, rng)
        model = CascadeModel([NeuronSpec(1, wiring, result.weights)],
                             anchor_feature=column,
                             criterion_history=[result.criterion])
        head = ", ".join(f"{v:.4f}" for v in result.eb_trace[:4])
        print(f"\n{name}:")
        print(f"  stopped after {result.steps_taken} steps "
              f"(cap {config.max_fit_steps})")
        print(f"  validation norm: {result.eb_trace[0]:.4f} -> "
              f"{result.criterion:.4f}  (first steps: {head}, ...)")
        print(f"  as a one-neuron cascade: {error_rate(model, data):.2f}% "
              f"training error")

    print("\nThe informative feature keeps earning improvements above delta,")
    print("so it fits longer and ends with the smaller validation norm;")
    print("this norm is the score every growth decision is based on.")


if __name__ == "__main__":
    main()
