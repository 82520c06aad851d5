"""Grow a cascade neuron by neuron and inspect every accept/reject decision.

Features are first ranked by how well a single neuron on each one alone
predicts the validation set.  The best becomes the anchor.  Candidate
neurons then see all previous outputs, the anchor, and one ranked
feature; a candidate joins the cascade only if it strictly lowers the
validation criterion.
"""

from ecnn import (
    TrainConfig,
    error_rate,
    rng_for_run,
    split_odd_even,
    synth_dataset,
    used_features,
)
from ecnn.evolve import evolve


def main():
    data, truth = synth_dataset(n=800, m=10, relevant=(1, 6), noise_sigma=0.4,
                                seed=19)
    split = split_odd_even(data)
    config = TrainConfig(seed=4)
    model, trace = evolve(split, config, rng_for_run(config.seed, 0))

    print(f"planted relevant features: {truth.relevant}")
    print("\nranking (feature: single-neuron validation norm)")
    for record in trace.ranked_features[:5]:
        print(f"  x{record.feature}: {record.score:.4f}")
    print(f"  ... {len(trace.ranked_features) - 5} more")
    print(f"anchor: x{model.anchor_feature}")

    print("\ngrowth decisions")
    for record in trace.accepted:
        print(f"  accept layer {record.layer}: candidate x{record.feature}, "
              f"criterion -> {record.criterion:.4f}")
    for record in trace.rejected:
        print(f"  reject rank position {record.position}: candidate "
              f"x{record.feature} scored {record.criterion:.4f}, "
              f"not below {record.best_before:.4f}")
    print(f"stopped: {trace.stop_reason}")

    history = " -> ".join(f"{c:.4f}" for c in model.criterion_history)
    print(f"\ncriterion history: {history}")
    print(f"final cascade: {model.size} neuron(s) on features "
          f"{used_features(model)}")
    print(f"training error: {error_rate(model, data):.2f}%")


if __name__ == "__main__":
    main()
