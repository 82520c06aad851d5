"""Shared fixtures: deterministic small datasets, splits, and model builders."""

from __future__ import annotations

import concurrent.futures
import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from ecnn import (
    CascadeModel,
    Dataset,
    Feature,
    FeatureStats,
    NeuronSpec,
    PrevNeuron,
    TrainConfig,
    dump_canonical_json,
    fit_neuron_from_init,
    init_weights,
    model_to_payload,
    split_odd_even,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_dataset():
    """48 examples, 3 features; feature 0 carries the label, the rest is noise."""
    gen = np.random.default_rng(7)
    targets = (gen.random(48) < 0.5).astype(float)
    features = gen.standard_normal((48, 3))
    features[:, 0] = 2.0 * targets - 1.0 + 0.1 * gen.standard_normal(48)
    return Dataset(features, targets, ("x0", "x1", "x2"))


@pytest.fixture
def small_split(small_dataset):
    return split_odd_even(small_dataset)


def build_cascade(
    layer_weights,
    candidate_features,
    anchor=0,
    criterion_history=None,
    stats=None,
    feature_names=None,
):
    """Assemble a valid cascade from per-layer weights and candidate columns.

    Layer r is wired (newest-first previous outputs, anchor, candidate),
    so layer_weights[r - 1] must have length r + 2.
    """
    neurons = []
    for idx, (weights, candidate) in enumerate(zip(layer_weights, candidate_features)):
        r = idx + 1
        wiring = tuple(PrevNeuron(layer) for layer in range(r - 1, 0, -1)) + (
            Feature(anchor),
            Feature(candidate),
        )
        neurons.append(NeuronSpec(layer=r, wiring=wiring, weights=weights))
    if criterion_history is None:
        criterion_history = tuple(float(len(neurons) + 1 - k) for k in range(len(neurons) + 1))
    return CascadeModel(
        neurons=tuple(neurons),
        anchor_feature=anchor,
        criterion_history=criterion_history,
        normalization_stats=stats,
        feature_names=feature_names,
    )


def anchor_baseline(split, anchor, config, rng):
    """The anchor's single-input neuron alone: one fit on column ``anchor``
    from the generator's first draw, as the ranking pass of a growth run
    started from the same generator fits it."""
    init = init_weights(2, config.init_sigma, rng)
    fit = fit_neuron_from_init(split, (Feature(anchor),), None, None, init, config)
    neuron = NeuronSpec(layer=1, wiring=(Feature(anchor),), weights=fit.weights)
    return CascadeModel((neuron,), anchor, (fit.criterion,))


def random_cascade(gen: np.random.Generator):
    """Random valid model plus a config, for round-trip style tests."""
    m = int(gen.integers(2, 9))
    anchor = int(gen.integers(0, m))
    if gen.random() < 0.15:
        neurons = (
            NeuronSpec(
                layer=1,
                wiring=(Feature(anchor),),
                weights=gen.normal(0.0, 1.5, 2),
            ),
        )
        history = (float(gen.uniform(0.5, 6.0)),)
    else:
        depth = int(gen.integers(1, 6))
        layer_weights = [gen.normal(0.0, 1.5, r + 2) for r in range(1, depth + 1)]
        candidates = [
            int(gen.choice([c for c in range(m) if c != anchor]))
            for _ in range(depth)
        ]
        start = float(gen.uniform(3.0, 6.0)) + depth
        history = [start]
        for _ in range(depth):
            history.append(history[-1] - float(gen.uniform(0.05, 1.0)))
        neurons = []
        for idx, (weights, candidate) in enumerate(zip(layer_weights, candidates)):
            r = idx + 1
            wiring = tuple(PrevNeuron(layer) for layer in range(r - 1, 0, -1)) + (
                Feature(anchor),
                Feature(candidate),
            )
            neurons.append(NeuronSpec(layer=r, wiring=wiring, weights=weights))
        neurons = tuple(neurons)
        history = tuple(history)
    stats = None
    if gen.random() < 0.5:
        std = gen.uniform(0.4, 2.5, m)
        if gen.random() < 0.2:
            std[int(gen.integers(0, m))] = 0.0
        stats = FeatureStats(mean=gen.normal(0.0, 1.0, m), std=std)
    names = tuple(f"x{j}" for j in range(m)) if gen.random() < 0.5 else None
    model = CascadeModel(
        neurons=neurons,
        anchor_feature=anchor,
        criterion_history=history,
        normalization_stats=stats,
        feature_names=names,
    )
    config = TrainConfig(
        chi=float(gen.uniform(0.5, 3.0)),
        delta=float(10.0 ** gen.uniform(-4.0, -2.0)),
        max_fit_steps=int(gen.integers(10, 200)),
        max_layers=int(gen.integers(1, 60)),
        seed=int(gen.integers(0, 2**63)),
        init_sigma=float(gen.uniform(0.1, 2.0)),
        classification_threshold=float(gen.uniform(0.2, 0.8)),
        advance_on_accept=bool(gen.random() < 0.5),
    )
    return model, config


# Model-file fields set to a JSON value of the wrong type, which an int()
# or float() conversion would read as a number: (path of keys, value).
WRONGLY_TYPED_MODEL_FIELDS = [
    (("neurons", 0, "layer"), 1.9),
    (("neurons", 0, "wiring", 1, "column"), True),
    (("anchor_feature",), "0"),
    (("config", "seed"), 1.5),
    (("config", "max_fit_steps"), 2.5),
    (("config", "max_layers"), True),
    (("neurons", 0, "weights", 0), "0.19"),
    (("criterion_history", 0), "2.0"),
    (("normalization", "mean", 0), True),
    (("normalization", "std", 0), "3.0"),
]


def write_wrongly_typed_model(path, field, value):
    """Save a one-neuron model with statistics to ``path`` with the field
    at the path of keys ``field`` set to ``value``."""
    model = build_cascade(
        [np.array([0.1, -0.2, 0.3])], candidate_features=[1],
        stats=FeatureStats(np.array([1.0, -2.0]), np.array([3.0, 0.5])),
    )
    payload = model_to_payload(model, TrainConfig())
    *parents, last = field
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    path.write_text(dump_canonical_json(payload), encoding="utf-8")
    return path


@pytest.fixture
def cascade_builder():
    return build_cascade


@pytest.fixture
def model_factory():
    return random_cascade


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def no_cell_parse(path, *args):
    raise AssertionError(f"the per-cell parse was asked to read {path}")


def count_pools(patch):
    """Make ``patch`` (a MonkeyPatch) record the worker count of every
    process pool started; returns the list it records them in."""
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            started.append(workers)
            super().__init__(workers, *args, **kwargs)

    patch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return started


def traced_peak(fn):
    """``fn()``'s result and the most memory tracemalloc saw allocated
    while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@contextmanager
def deadline(seconds):
    """Fail the block, instead of hanging, if it runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
