"""Cascade growth by validated acceptance, plus the restart harness.

Growth ranks all single-feature neurons on the validation criterion,
anchors the cascade on the best one, then repeatedly fits a candidate
neuron wired to all earlier outputs, the anchor, and the next ranked
feature.  A candidate joins the cascade only if it strictly lowers the
criterion; otherwise the ranked list advances.  The restart harness
repeats growth from many random initializations, in this process or in
forked workers, and keeps the model with the lowest training error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._pool import fork_map
from .cascade import error_rate
from .data_io import split_odd_even
from .domain import (
    CascadeModel,
    Dataset,
    Feature,
    FitnessRecord,
    NeuronSpec,
    PrevNeuron,
    SplitAB,
    TrainConfig,
)
from .errors import DataError
from .fitting import (
    FitResult,
    _side_designs,
    fit_neuron,
    fit_neuron_from_init,
    init_weights,
    sigmoid,
)

# Not "evolve": the package's star import would rebind ecnn.evolve to it.
__all__ = ["rng_for_run", "select_best", "multi_run"]

STOP_FEATURES_EXHAUSTED = "feature-list-exhausted"
STOP_MAX_LAYERS = "max-layers-reached"


@dataclass(frozen=True)
class AcceptedRecord:
    """One accepted growth step: the neuron's layer, its candidate feature,
    and the criterion value that beat the previous best."""

    layer: int
    feature: int
    criterion: float


@dataclass(frozen=True)
class RejectedRecord:
    """One rejected candidate: the ranked-list position it was drawn from,
    its feature, the criterion it scored, and the best criterion it had to
    beat (which it did not)."""

    position: int
    feature: int
    criterion: float
    best_before: float


@dataclass(frozen=True)
class EvolveTrace:
    """Full evidence trail of one growth run, as :func:`evolve` records it.

    The model it comes with enforces the soundness of the accepted chain:
    its layers run 1..R and its criterion history falls strictly.
    """

    ranked_features: tuple[FitnessRecord, ...]
    accepted: tuple[AcceptedRecord, ...]
    rejected: tuple[RejectedRecord, ...]
    stop_reason: str


@dataclass(frozen=True)
class RunSummary:
    """One restart's outcome: the size, errors and features of the model it
    grew.  ``seed`` alone reproduces the run's random stream, and the test
    error is NaN when no test set was given."""

    run_index: int
    seed: int
    model_size: int
    train_error_pct: float
    test_error_pct: float
    selected_features: tuple[int, ...]


def _rank(
    split: SplitAB, config: TrainConfig, rng: np.random.Generator
) -> tuple[tuple[FitnessRecord, ...], FitResult]:
    """Score every feature by its single-input neuron's criterion, ascending,
    and return the ranking with the anchor's fit.

    All m fits start from one init, the generator's first draw, so
    byte-identical feature columns get exactly equal criteria.  Ties break
    toward the lower column index.  The head of the list is the anchor and
    its score is the starting criterion of growth.
    """
    init = init_weights(2, config.init_sigma, rng)
    fits = [
        fit_neuron_from_init(split, (Feature(column),), None, init, config)
        for column in range(split.m)
    ]
    records = [FitnessRecord(column, fit.criterion) for column, fit in enumerate(fits)]
    ranked = tuple(sorted(records, key=lambda rec: (rec.score, rec.feature)))
    return ranked, fits[ranked[0].feature]


def _wiring(r: int, anchor: int, candidate: int) -> tuple:
    """Wiring of the layer-r candidate: every earlier neuron's output from
    newest to oldest, then the anchor feature, then the candidate feature."""
    previous = tuple(PrevNeuron(layer) for layer in range(r - 1, 0, -1))
    return previous + (Feature(anchor), Feature(candidate))


def evolve(
    split: SplitAB, config: TrainConfig, rng: np.random.Generator
) -> tuple[CascadeModel, EvolveTrace]:
    """Grow one cascade on a fitting/validation split.

    Ranks features, anchors on the best one, then walks the ranked list
    from position 2: each candidate neuron is fitted and joins the cascade
    only if its criterion strictly beats the current best.  A rejection
    advances to the next ranked feature; an acceptance retries the same
    feature one layer deeper unless ``config.advance_on_accept`` is set.
    Growth stops when the ranked list is exhausted or the cascade reaches
    ``config.max_layers``.  If nothing is ever accepted, the result is the
    anchor's single-input neuron alone, and ``trace.accepted`` is empty.
    """
    ranked, anchor_fit = _rank(split, config, rng)
    anchor = ranked[0].feature

    neurons: list[NeuronSpec] = []
    prior: list[np.ndarray] = []  # one row per neuron, over split.rows
    history = [anchor_fit.criterion]
    accepted: list[AcceptedRecord] = []
    rejected: list[RejectedRecord] = []
    h = 2
    while True:
        if len(neurons) >= config.max_layers:
            stop_reason = STOP_MAX_LAYERS
            break
        if h > split.m:
            stop_reason = STOP_FEATURES_EXHAUSTED
            break
        candidate = ranked[h - 1].feature
        r = len(neurons) + 1
        wiring = _wiring(r, anchor, candidate)
        fit = fit_neuron(split, wiring, prior, config, rng)
        if fit.criterion < history[-1]:
            neuron = NeuronSpec(layer=r, wiring=wiring, weights=fit.weights)
            neurons.append(neuron)
            outputs = [fit.weights @ U for U in _side_designs(split, wiring, prior)]
            prior.append(sigmoid(np.concatenate(outputs)))
            history.append(fit.criterion)
            accepted.append(AcceptedRecord(r, candidate, fit.criterion))
            if config.advance_on_accept:
                h += 1
        else:
            rejected.append(
                RejectedRecord(h, candidate, fit.criterion, best_before=history[-1])
            )
            h += 1

    if not neurons:
        # Nothing beat the anchor: the model is its single-input neuron.
        neurons.append(
            NeuronSpec(layer=1, wiring=(Feature(anchor),), weights=anchor_fit.weights)
        )
    model = CascadeModel(
        neurons=tuple(neurons),
        anchor_feature=anchor,
        criterion_history=tuple(history),
        feature_names=split.rows.feature_names,
    )
    trace = EvolveTrace(ranked, tuple(accepted), tuple(rejected), stop_reason)
    return model, trace


def child_seed(master_seed: int, run_index: int) -> int:
    """Derive the 64-bit seed of one restart from the master seed."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(0, int(run_index)))
    return int(seq.generate_state(1, np.uint64)[0])


def rng_for_run(master_seed: int, run_index: int) -> np.random.Generator:
    """Fresh generator for one restart, reproducible from the master seed."""
    return np.random.default_rng(child_seed(master_seed, run_index))


def select_best(summaries: list[RunSummary]) -> RunSummary:
    """The restart protocol's winner: minimal training error, ties broken
    by smaller model, then by lower run index.  An empty list raises
    ``ValueError``."""
    return min(summaries, key=lambda s: (s.train_error_pct, s.model_size, s.run_index))


def _restart(
    train: Dataset,
    test: Dataset | None,
    config: TrainConfig,
    split: SplitAB,
    run_index: int,
) -> tuple[RunSummary, CascadeModel]:
    """Grow restart ``run_index`` and measure the model it grew."""
    seed = child_seed(config.seed, run_index)
    model, _ = evolve(split, config, np.random.default_rng(seed))
    threshold = config.classification_threshold
    summary = RunSummary(
        run_index=run_index,
        seed=seed,
        model_size=model.size,
        train_error_pct=error_rate(model, train, threshold),
        test_error_pct=math.nan if test is None else error_rate(model, test, threshold),
        selected_features=model.used_features,
    )
    return summary, model


def multi_run(
    train: Dataset,
    test: Dataset | None,
    config: TrainConfig,
    runs: int,
    jobs: int = 1,
) -> tuple[CascadeModel, list[RunSummary]]:
    """Grow ``runs`` cascades from different initializations, keep the best.

    All runs share the same odd/even fitting/validation split of ``train``;
    only the weight-initialization stream differs, seeded per run from
    ``config.seed``.  Train and test data are used exactly as given, so
    normalize beforehand if normalization is wanted; being Datasets, both
    have finite features and 0/1 targets.  Every restart grows a model,
    and an error inside one propagates.  Returns the model of the
    :func:`select_best` run plus one summary per run in run order.

    ``jobs`` caps the processes the restarts run in.  With ``jobs == 1``,
    a single run, or on any platform but Linux, every restart runs in this
    process.  Otherwise ``min(jobs, runs)`` forked workers inherit the
    data and split, each restart sends back only its summary and model,
    and the results are read in run order.  The model and summaries are
    identical for every ``jobs``, which is not capped at the CPU count.  A
    worker that dies raises ``BrokenProcessPool``.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if test is not None and test.m != train.m:
        raise DataError(
            f"train and test disagree on feature count: {train.m} vs {test.m}"
        )
    # Workers inherit the data and split; only run indices go out and only
    # (summary, model) pairs come back.
    restart = partial(_restart, train, test, config, split_odd_even(train))
    summaries, models = zip(*fork_map(restart, range(runs), min(jobs, runs)))
    return models[select_best(summaries).run_index], list(summaries)
