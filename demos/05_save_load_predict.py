"""Persist a trained cascade and verify the reload predicts bit-identically.

Models are stored as canonical JSON: sorted keys, shortest round-trip
float text, a declared format version, and the feature normalization
baked in, so a saved file is stable byte-for-byte and a reloaded model
reproduces every output exactly.  The reload also carries the wiring:
each neuron reads earlier neurons' outputs and named feature columns.
"""

import tempfile
from pathlib import Path

import numpy as np

from ecnn import (
    PrevNeuron,
    TrainConfig,
    classify_batch,
    forward_batch,
    load_model,
    multi_run,
    normalize,
    save_model,
    synth_dataset,
)


def main():
    data, _ = synth_dataset(n=500, m=6, relevant=(0, 3), noise_sigma=0.4, seed=9)
    scaled, stats = normalize(data)
    config = TrainConfig(seed=13)
    best, _ = multi_run(scaled, None, config, runs=5)
    model = best.with_normalization(stats)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cascade.ecnn"
        save_model(path, model, config)
        size = path.stat().st_size
        loaded, loaded_config = load_model(path)

        again = Path(tmp) / "again.ecnn"
        save_model(again, loaded, loaded_config)
        print(f"saved {model.size}-neuron model in {size} bytes")
        print(f"save -> load -> save is byte-identical: "
              f"{path.read_bytes() == again.read_bytes()}")

        print("reloaded wiring:")
        for neuron in loaded.neurons:
            inputs = ", ".join(
                f"neuron {src.layer}" if isinstance(src, PrevNeuron)
                else loaded.feature_names[src.column]
                for src in neuron.wiring
            )
            print(f"  layer {neuron.layer} reads {inputs}")

        fresh = np.random.default_rng(0).standard_normal((200, data.m))
        _, before = forward_batch(model, fresh)
        _, after = forward_batch(loaded, fresh)
        print(f"reloaded outputs bit-equal on 200 unseen rows: "
              f"{np.array_equal(before, after)}")

        labels = classify_batch(loaded, fresh, config.classification_threshold)
        print(f"predicted positives on unseen rows: {int(labels.sum())} of 200")
        print("\nThe model file carries the normalization statistics, so raw")
        print("unscaled rows can be scored directly after a reload.")


if __name__ == "__main__":
    main()
