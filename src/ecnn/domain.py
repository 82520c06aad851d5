"""Value types for cascade network training.

Everything here is an immutable value object: its arrays are float64,
C-ordered and read-only, so instances can be shared between threads or
worker processes.  A constructor takes such an array of the right
dimension as is when it owns its memory, as an array a producer made and
froze does; it copies and freezes anything else, so a caller's writeable
array or a view of one is never shared, and the same values give the
same bits in either memory order.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "PrevNeuron",
    "Feature",
    "NeuronSpec",
    "CascadeModel",
    "TrainConfig",
    "require_valid_dataset",
]

MAX_SEED = 2**64 - 1


def _frozen_array(values, ndim: int, name: str) -> np.ndarray:
    """``values`` as a read-only C-ordered float64 array of ``ndim``
    dimensions: the array itself if it already is one and owns its memory,
    else a copy."""
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.ndim == ndim
        and values.flags.owndata
        and values.flags.c_contiguous
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=float, copy=True, order="C")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _integer(owner, name: str) -> int:
    """Store ``owner.name`` as a Python int: it must be an int or a numpy
    integer, not a bool."""
    value = getattr(owner, name)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    object.__setattr__(owner, name, int(value))
    return int(value)


def _real(owner, name: str):
    """``owner.name`` as given; it must be a real number, not a bool or str."""
    value = getattr(owner, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _names(owner) -> None:
    """Store ``owner.feature_names`` as a tuple of str unless it is None."""
    names = owner.feature_names
    if isinstance(names, str):
        raise ValueError(f"feature_names must be a sequence of names, got {names!r}")
    if names is not None:
        object.__setattr__(owner, "feature_names", tuple(str(s) for s in names))


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with one binary target per row: the data contract.

    The constructor coerces shapes and dtypes and requires one target per
    row.  It then raises :class:`DataError` ("invalid dataset: ...")
    naming every target other than 0 and 1, then every non-finite
    feature cell, if there are any.  So every Dataset is valid, and what
    takes one checks none of this again.  Rows are numbered from 1, as
    data rows below a CSV header are; columns from 0.  The message lists
    at most the first ``MAX_LISTED_VIOLATIONS`` and then the total, so it
    stays small on huge bad inputs.

    ``features`` and ``targets`` are stored read-only and C-ordered.  An
    array that is float64, of the right dimension, C-ordered, read-only
    and owns its memory is kept as is, without a copy:
    :func:`~ecnn.data_io.load_csv`, :meth:`take` and
    :func:`~ecnn.data_io.normalize` freeze the arrays they just made, so a
    dataset is held once.  Anything else is copied, so mutating a
    writeable array after passing it in, or the array a view was cut
    from, changes nothing here.
    """

    features: np.ndarray  # (n, m)
    targets: np.ndarray  # (n,), each 0 or 1
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "features", _frozen_array(self.features, ndim=2, name="features")
        )
        object.__setattr__(
            self, "targets", _frozen_array(self.targets, ndim=1, name="targets")
        )
        if len(self.targets) != self.n:
            raise ValueError(
                f"features have {self.n} rows but there are {len(self.targets)} targets"
            )
        _names(self)
        if self.feature_names is not None and len(self.feature_names) != self.m:
            raise ValueError(f"{len(self.feature_names)} feature names for {self.m} columns")
        targets, bad_targets = _target_messages(self.targets)
        bad_cells = ~np.isfinite(self.features)
        _raise_bounded(
            "invalid dataset",
            itertools.chain(targets, _cell_messages(bad_cells)),
            bad_targets + int(np.count_nonzero(bad_cells)),
        )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset, in the order given."""
        idx = np.asarray(indices, dtype=np.int64)
        features, targets = self.features[idx], self.targets[idx]
        features.flags.writeable = targets.flags.writeable = False
        return Dataset(features, targets, self.feature_names)


# Error messages list at most this many violations, then the total count.
MAX_LISTED_VIOLATIONS = 10


def _cell_messages(bad: np.ndarray) -> Iterator[str]:
    """One message per True cell of a non-finite mask, in row-major order,
    formatted only as far as the caller reads."""
    for i in np.flatnonzero(bad.any(axis=1)):
        for j in np.flatnonzero(bad[i]):
            yield f"non-finite feature value at row {int(i) + 1}, column {int(j)}"


def _target_messages(targets: np.ndarray) -> tuple[Iterator[str], int]:
    """One message per target other than 0 and 1, lazily, plus their count."""
    bad = np.flatnonzero((targets != 0.0) & (targets != 1.0))
    return (f"non-binary target at row {int(i) + 1}" for i in bad), len(bad)


def _raise_bounded(what: str, messages: Iterator[str], total: int) -> None:
    """Raise :class:`DataError` listing the first MAX_LISTED_VIOLATIONS
    messages and the total, unless there are none."""
    if total == 0:
        return
    listed = list(itertools.islice(messages, MAX_LISTED_VIOLATIONS))
    if total > len(listed):
        listed.append(f"and {total - len(listed)} more")
        what = f"{what} ({total} violations)"
    raise DataError(f"{what}: " + "; ".join(listed))


def require_valid_dataset(d: Dataset) -> None:
    """Raise :class:`DataError` unless ``d`` has the two feature columns
    that ``ecnn train`` requires; the rest of the data contract is the
    Dataset's own."""
    if d.m < 2:
        raise DataError("invalid dataset: at least two features required")


def require_finite_features(features) -> None:
    """Raise :class:`DataError` naming the non-finite cells of a feature
    matrix, bounded and numbered as :class:`Dataset` names them."""
    bad = ~np.isfinite(np.asarray(features, dtype=float))
    _raise_bounded("invalid features", _cell_messages(bad), int(np.count_nonzero(bad)))


@dataclass(frozen=True)
class SplitAB:
    """Fitting/validation partition of a training set, held as one Dataset
    in the fit's row order: ``rows[:n_b]`` is side B, only ever measured
    on, and ``rows[n_b:]`` is side A, fitted on.
    """

    rows: Dataset
    n_b: int

    def __post_init__(self):
        if not 1 <= _integer(self, "n_b") < self.rows.n:
            raise ValueError("both subsets need at least one example")
        if self.m < 1:
            raise DataError("training data has no feature columns")

    @property
    def m(self) -> int:
        return self.rows.m


@dataclass(frozen=True)
class PrevNeuron:
    """Wiring source: the output of the neuron at an earlier layer (1-based)."""

    layer: int

    def __post_init__(self):
        if _integer(self, "layer") < 1:
            raise ValueError("referenced layer must be >= 1")


@dataclass(frozen=True)
class Feature:
    """Wiring source: one feature column of the dataset (0-based)."""

    column: int

    def __post_init__(self):
        if _integer(self, "column") < 0:
            raise ValueError("feature column must be >= 0")


@dataclass(frozen=True)
class NeuronSpec:
    """One cascade neuron: layer index, ordered input wiring, weights.

    A neuron at layer ``r`` normally has ``p = r + 1`` inputs wired as
    (output of neuron r-1, ..., output of neuron 1, anchor feature,
    candidate feature), and ``p + 1`` weights with the bias first.  A
    single-input layer-1 neuron is also allowed: it is the fallback shape
    used when growth never improves on the best single feature.
    """

    layer: int
    wiring: tuple[PrevNeuron | Feature, ...]
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "wiring", tuple(self.wiring))
        object.__setattr__(
            self, "weights", _frozen_array(self.weights, ndim=1, name="weights")
        )
        if _integer(self, "layer") < 1:
            raise ValueError("layer must be >= 1")
        for src in self.wiring:
            if not isinstance(src, (PrevNeuron, Feature)):
                raise TypeError(f"unknown wiring source {src!r}")
        if len(self.weights) != len(self.wiring) + 1:
            raise ValueError(
                f"{len(self.wiring)} inputs need {len(self.wiring) + 1} weights "
                f"(bias first), got {len(self.weights)}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        self._check_wiring()

    def _check_wiring(self):
        r, wiring = self.layer, self.wiring
        if r == 1 and len(wiring) == 1:
            if not isinstance(wiring[0], Feature):
                raise ValueError("a single-input neuron must read a feature column")
            return
        if len(wiring) != r + 1:
            raise ValueError(f"layer {r} neuron needs {r + 1} inputs, got {len(wiring)}")
        for offset, src in enumerate(wiring[: r - 1]):
            expected = r - 1 - offset
            if not (isinstance(src, PrevNeuron) and src.layer == expected):
                raise ValueError(
                    f"input {offset} of the layer-{r} neuron must be the output "
                    f"of neuron {expected}"
                )
        tail = wiring[r - 1 :]
        if not all(isinstance(src, Feature) for src in tail):
            raise ValueError("the last two inputs must be feature columns")
        if tail[0].column == tail[1].column:
            raise ValueError("the two feature inputs must use distinct columns")

    def __reduce__(self):
        # Unpickle through the constructor: a plain unpickled array is
        # writeable, and the weights must stay frozen across processes.
        return NeuronSpec, (self.layer, self.wiring, self.weights)

    @property
    def p(self) -> int:
        """Number of inputs (the bias is not counted)."""
        return len(self.wiring)

    def feature_columns(self) -> tuple[int, ...]:
        """Feature columns this neuron reads, in wiring order."""
        return tuple(src.column for src in self.wiring if isinstance(src, Feature))


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature location and scale captured on the training data.

    ``std`` keeps the raw sample standard deviation; a zero entry marks a
    constant column, which :meth:`transform` maps to 0 instead of dividing.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean, ndim=1, name="mean"))
        object.__setattr__(self, "std", _frozen_array(self.std, ndim=1, name="std"))
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must have the same length")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ValueError("statistics must be finite")
        if np.any(self.std < 0):
            raise ValueError("standard deviations must be >= 0")

    @property
    def m(self) -> int:
        return len(self.mean)

    @property
    def constant_columns(self) -> tuple[int, ...]:
        """Columns whose training variance was zero."""
        return tuple(int(j) for j in np.nonzero(self.std == 0.0)[0])

    def require_width(self, width: int) -> None:
        """Raise :class:`DataError` unless rows of ``width`` features are
        what these statistics cover."""
        if width != self.m:
            raise DataError(
                f"feature count mismatch: statistics cover {self.m} columns, "
                f"data has {width}"
            )

    def transform(self, features) -> np.ndarray:
        """Center and scale a row vector or matrix; constant columns map to 0.

        Each column is computed on its own, so the statistics of some
        columns, applied to those columns alone, give the bits of the full
        result's columns.
        """
        X = np.asarray(features, dtype=float)
        self.require_width(X.shape[-1])
        # One output buffer; constant columns are never computed, so they
        # stay exactly 0 and raise no floating-point warnings.
        out = np.zeros_like(X)
        scaled = self.std > 0.0
        np.subtract(X, self.mean, out=out, where=scaled)
        np.divide(out, self.std, out=out, where=scaled)
        return out


@dataclass(frozen=True)
class CascadeModel:
    """An accepted cascade: neurons in layer order plus the evidence trail.

    ``criterion_history`` starts with the best single-feature criterion and
    gains one entry per accepted neuron; it must decrease strictly, which
    is exactly the acceptance rule, so any constructible model is sound.
    The last neuron is the output neuron.  ``normalization_stats``, when
    present, are applied to raw inputs before evaluation so the model sees
    the same scale it was trained on.
    """

    neurons: tuple[NeuronSpec, ...]
    anchor_feature: int
    criterion_history: tuple[float, ...]
    normalization_stats: FeatureStats | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        neurons = tuple(sorted(self.neurons, key=lambda nr: nr.layer))
        object.__setattr__(self, "neurons", neurons)
        history = tuple(float(c) for c in self.criterion_history)
        object.__setattr__(self, "criterion_history", history)
        _integer(self, "anchor_feature")
        _names(self)

        if not neurons:
            raise ValueError("a model must contain at least one neuron")
        layers = [nr.layer for nr in neurons]
        if layers != list(range(1, len(neurons) + 1)):
            raise ValueError(f"neuron layers must be exactly 1..{len(neurons)}, got {layers}")
        if self.anchor_feature < 0:
            raise ValueError("anchor feature must be a column index")
        for nr in neurons:
            if nr.feature_columns()[0] != self.anchor_feature:
                raise ValueError(
                    f"layer-{nr.layer} neuron is not wired to anchor feature "
                    f"{self.anchor_feature}"
                )

        degenerate = len(neurons) == 1 and neurons[0].p == 1
        if degenerate:
            if len(history) != 1:
                raise ValueError(
                    "a single-input fallback model records exactly one criterion value"
                )
        elif len(history) != len(neurons) + 1:
            raise ValueError(
                f"criterion history needs {len(neurons) + 1} entries for "
                f"{len(neurons)} neurons, got {len(history)}"
            )
        for c in history:
            if not (math.isfinite(c) and c >= 0.0):
                raise ValueError("criterion values must be finite and >= 0")
        if any(not b < a for a, b in zip(history, history[1:])):
            raise ValueError("criterion history must decrease strictly")

        min_m = max(self.used_features) + 1
        if self.normalization_stats is not None and self.normalization_stats.m < min_m:
            raise ValueError(
                f"normalization covers {self.normalization_stats.m} columns but the "
                f"wiring reads column {min_m - 1}"
            )
        if self.feature_names is not None and len(self.feature_names) < min_m:
            raise ValueError(
                f"{len(self.feature_names)} feature names but the wiring reads "
                f"column {min_m - 1}"
            )
        if (
            self.normalization_stats is not None
            and self.feature_names is not None
            and self.normalization_stats.m != len(self.feature_names)
        ):
            raise ValueError("normalization statistics and feature names disagree on m")

    @property
    def size(self) -> int:
        """Number of neurons."""
        return len(self.neurons)

    @property
    def used_features(self) -> tuple[int, ...]:
        """Feature columns the wiring reads, in first-use order, without repeats."""
        return tuple(dict.fromkeys(c for nr in self.neurons for c in nr.feature_columns()))

    @property
    def required_features(self) -> int:
        """How many feature columns an input row must provide, as
        :meth:`require_width` holds it: exactly, or at least that many."""
        if self.normalization_stats is not None:
            return self.normalization_stats.m
        if self.feature_names is not None:
            return len(self.feature_names)
        return max(self.used_features) + 1

    def require_width(self, width: int) -> None:
        """Raise :class:`DataError` unless this model reads rows ``width``
        features wide: exactly as wide as its statistics or names, else at
        least as wide as its wiring reads (:attr:`required_features`)."""
        if self.normalization_stats is not None:
            return self.normalization_stats.require_width(width)
        required = self.required_features
        if width < required or (self.feature_names is not None and width != required):
            raise DataError(f"model reads {required} feature columns, data has {width}")

    def on_columns(self) -> "CascadeModel":
        """This model rewired to read column k where it read
        ``used_features[k]``, statistics and names cut to match: on rows
        picked to those columns it gives the bits it gives on whole rows."""
        columns = list(self.used_features)
        slot = {column: k for k, column in enumerate(columns)}
        neurons = [NeuronSpec(nr.layer, [
            Feature(slot[src.column]) if isinstance(src, Feature) else src
            for src in nr.wiring
        ], nr.weights) for nr in self.neurons]
        stats, names = self.normalization_stats, self.feature_names
        return CascadeModel(
            neurons, slot[self.anchor_feature], self.criterion_history,
            None if stats is None else FeatureStats(stats.mean[columns], stats.std[columns]),
            None if names is None else tuple(names[c] for c in columns),
        )

    def with_normalization(self, stats: FeatureStats | None) -> "CascadeModel":
        """Copy of this model with ``stats`` as its normalization."""
        return replace(self, normalization_stats=stats)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for neuron fitting and cascade growth.

    chi: learning rate of the projection update.
    delta: minimal decrement of the validation error; fitting stops as soon
        as one step gains less than this.
    max_fit_steps: hard cap on fitting iterations per neuron.
    max_layers: hard cap on cascade depth.
    seed: master seed; all randomness is derived from it.
    init_sigma: standard deviation of the Gaussian weight initialization.
    classification_threshold: sigmoid output at or above which an example
        is labeled 1.
    advance_on_accept: when True, growth moves on to the next ranked
        feature after an acceptance instead of retrying the same feature
        one layer deeper.
    """

    chi: float = 1.9
    delta: float = 0.0015
    max_fit_steps: int = 100
    max_layers: int = 50
    seed: int = 0
    init_sigma: float = 1.0
    classification_threshold: float = 0.5
    advance_on_accept: bool = False

    def __post_init__(self):
        if not 0 < _real(self, "chi") < math.inf:
            raise ValueError("chi must be positive and finite")
        if not 0 < _real(self, "delta") < math.inf:
            raise ValueError("delta must be positive and finite")
        if _integer(self, "max_fit_steps") < 1:
            raise ValueError("max_fit_steps must be >= 1")
        if _integer(self, "max_layers") < 1:
            raise ValueError("max_layers must be >= 1")
        if not 0 <= _integer(self, "seed") <= MAX_SEED:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0 <= _real(self, "init_sigma") < math.inf:
            raise ValueError("init_sigma must be >= 0 and finite")
        if not 0.0 < _real(self, "classification_threshold") < 1.0:
            raise ValueError("classification_threshold must be inside (0, 1)")
        if not isinstance(self.advance_on_accept, bool):
            raise ValueError("advance_on_accept must be True or False")


@dataclass(frozen=True)
class FitnessRecord:
    """Criterion value of the single-input neuron built on one feature.

    Built only by the feature ranking, from an in-range column and a fit's
    criterion, which the fit already holds finite and >= 0.
    """

    feature: int
    score: float
