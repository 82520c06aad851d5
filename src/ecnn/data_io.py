"""Dataset ingestion, normalization, splitting, and synthetic generation.

CSV files are UTF-8 with a header row, comma separators, and a decimal
point; the label column is chosen by name or index.  All functions here
are pure given their arguments (file reads aside).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import Dataset, FeatureStats, SplitAB
from .errors import DataError

__all__ = [
    "ZeroVarianceWarning",
    "SynthTruth",
    "load_csv",
    "load_matrix_csv",
    "write_csv",
    "normalize",
    "split_odd_even",
    "split_train_test",
    "synth_dataset",
]


class ZeroVarianceWarning(UserWarning):
    """A feature column was constant on the training data and will carry
    no information after normalization."""


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise DataError(f"cannot read data file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from exc
    rows = [row for row in rows if row]
    if not rows:
        raise DataError(f"{path}: empty file, expected a header row")
    header = [cell.strip() for cell in rows[0]]
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no examples below the header")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i + 1} has {len(row)} cells, header has {len(header)}"
            )
    return header, body


def _label_index(header: list[str], label_column, path) -> int:
    if isinstance(label_column, str) and label_column in header:
        return header.index(label_column)
    try:
        label_idx = int(label_column)
    except (TypeError, ValueError):
        raise DataError(
            f"{path}: no column named {label_column!r} in header {header}"
        ) from None
    if not 0 <= label_idx < len(header):
        raise DataError(
            f"{path}: label column index {label_idx} out of range for "
            f"{len(header)} columns"
        )
    return label_idx


def _parse_cells(path, label_column) -> tuple[list[str], np.ndarray, int | None]:
    """The reference parse: csv rows, then one ``float()`` per cell.

    Slow, but it defines every accepted input and every error message.
    """
    header, body = _read_rows(path)
    label_idx = None if label_column is None else _label_index(header, label_column, path)
    values = np.empty((len(body), len(header)))
    for i, row in enumerate(body):
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {i + 1}, "
                    f"column {header[j]!r}"
                ) from None
            if j == label_idx and value not in (0.0, 1.0):
                raise DataError(
                    f"{path}: label must be 0 or 1, got {cell.strip()!r} "
                    f"at row {i + 1}"
                )
            values[i, j] = value
    return header, values, label_idx


def _parse_columnar(path) -> tuple[list[str], np.ndarray] | None:
    """The header via ``csv`` and the body parsed in C by ``np.loadtxt``.

    Returns None whenever the result might differ from :func:`_parse_cells`:
    numpy refused a cell (quoted cells, ``1_0``, non-ASCII digits, ragged or
    whitespace-only lines) or the table does not match the header.  One
    input still reads differently: an unquoted cell longer than the csv
    module's field limit (131072 characters) is parsed as a number here,
    where the per-cell parse reports malformed CSV.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = next((row for row in csv.reader(handle) if row), None)
            if header is None:
                return None
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                values = np.loadtxt(
                    handle, delimiter=",", comments=None, ndmin=2, dtype=float
                )
    except (OSError, ValueError, csv.Error):  # ValueError covers decoding
        return None
    if values.shape[0] == 0 or values.shape[1] != len(header):
        return None
    return [cell.strip() for cell in header], values


def _load_table(path, label_column) -> tuple[list[str], np.ndarray, int | None]:
    """Header names, the value matrix and the label's column index (None
    when ``label_column`` is None).  Row N in an error is the Nth data row
    below the header.

    The columnar parse serves well-formed files.  Any file it cannot vouch
    for, or whose labels are not all 0 or 1, is parsed again cell by cell,
    which loads it or raises its exact error.
    """
    parsed = _parse_columnar(path)
    if parsed is not None:
        header, values = parsed
        if label_column is None:
            return header, values, None
        label_idx = _label_index(header, label_column, path)
        labels = values[:, label_idx]
        if np.all((labels == 0.0) | (labels == 1.0)):
            return header, values, label_idx
    return _parse_cells(path, label_column)


def load_matrix_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a headed CSV where every column is a feature.

    Returns the value matrix and the header names.  Useful for unlabeled
    prediction inputs.
    """
    header, values, _ = _load_table(path, None)
    return values, tuple(header)


def load_csv(path, label_column) -> Dataset:
    """Parse a headed CSV into a Dataset, splitting off the label column.

    ``label_column`` is a header name or a 0-based column index.  Labels
    must parse as exactly 0 or 1; every other column becomes a feature in
    file order.
    """
    header, values, label_idx = _load_table(path, label_column)
    return Dataset(
        np.delete(values, label_idx, axis=1),
        values[:, label_idx],
        tuple(header[:label_idx] + header[label_idx + 1:]),
    )


# Rows formatted per write, so the file text never sits in memory whole.
_WRITE_BLOCK_ROWS = 1000


def write_csv(path, dataset: Dataset, label_name: str = "y") -> None:
    """Write a Dataset as a headed CSV, label column last.

    Floats are written in shortest round-trip form, labels as bare 0/1,
    so reading the file back reproduces the dataset bit for bit.
    """
    names = dataset.feature_names or tuple(f"x{j}" for j in range(dataset.m))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(names + (label_name,)) + "\n")
        for a in range(0, dataset.n, _WRITE_BLOCK_ROWS):
            b = a + _WRITE_BLOCK_ROWS
            lines = []
            for row, label in zip(
                dataset.features[a:b].tolist(), dataset.targets[a:b].tolist()
            ):
                row.append(int(label))
                lines.append(",".join(map(repr, row)))
            handle.write("\n".join(lines) + "\n")


def normalize(train: Dataset) -> tuple[Dataset, FeatureStats]:
    """Center and scale each feature to zero mean and unit sample variance.

    Statistics come from (and should only ever come from) training data;
    apply the returned stats to held-out data at evaluation time.
    Zero-variance columns map to 0 and are reported with a warning.
    """
    if train.n < 2:
        raise DataError("normalization needs at least two examples")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0, ddof=1)
    stats = FeatureStats(mean=mean, std=std)
    constant = stats.constant_columns
    if constant:
        warnings.warn(
            f"zero-variance feature columns mapped to 0: {list(constant)}",
            ZeroVarianceWarning,
            stacklevel=2,
        )
    return (
        Dataset(stats.transform(train.features), train.targets, train.feature_names),
        stats,
    )


def split_odd_even(train: Dataset) -> SplitAB:
    """Fitting/validation split by position: 1st, 3rd, 5th ... example to
    the fitting side, 2nd, 4th, 6th ... to the validation side."""
    if train.n < 2:
        raise DataError("splitting needs at least two examples")
    indices_a = np.arange(0, train.n, 2)
    indices_b = np.arange(1, train.n, 2)
    return SplitAB(
        set_a=train.take(indices_a),
        set_b=train.take(indices_b),
        indices_a=indices_a,
        indices_b=indices_b,
    )


def split_train_test(
    d: Dataset, test_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Uniform random partition into train and test, test side rounded to
    the nearest whole example.  Row order within each side follows the
    source dataset."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test fraction must be inside (0, 1)")
    n_test = int(round(d.n * test_fraction))
    if n_test < 1 or n_test > d.n - 1:
        raise DataError(
            f"test fraction {test_fraction} leaves an empty side for {d.n} examples"
        )
    permutation = rng.permutation(d.n)
    test_idx = np.sort(permutation[:n_test])
    train_idx = np.sort(permutation[n_test:])
    return d.take(train_idx), d.take(test_idx)


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth behind a synthetic dataset: which features carry the
    label, with what weights, and the score threshold that was applied."""

    relevant: tuple[int, ...]
    weights: tuple[float, ...]
    threshold: float
    noise_sigma: float
    prevalence: float

    def __post_init__(self):
        object.__setattr__(self, "relevant", tuple(int(j) for j in self.relevant))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.relevant) != len(self.weights):
            raise ValueError("one weight per relevant feature")


def synth_dataset(
    n: int,
    m: int,
    relevant,
    noise_sigma: float,
    seed: int,
    prevalence: float = 0.5,
) -> tuple[Dataset, SynthTruth]:
    """Generate a labeled dataset with known relevant features.

    All m features are independent standard Gaussians.  The label is 1
    exactly when a fixed random linear combination of the relevant
    features plus Gaussian noise of scale ``noise_sigma`` exceeds the
    combination's empirical ``1 - prevalence`` quantile, so roughly
    ``prevalence`` of the labels are 1 (one half by default).  Combination
    weights have magnitude in [0.5, 1.5] and random sign, keeping every
    relevant feature genuinely informative; they are returned as ground
    truth.
    """
    relevant = tuple(int(j) for j in relevant)
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 2:
        raise ValueError("m must be >= 2")
    if not relevant:
        raise ValueError("at least one relevant feature required")
    if len(set(relevant)) != len(relevant):
        raise ValueError(f"duplicate relevant feature indices: {list(relevant)}")
    if any(j < 0 or j >= m for j in relevant):
        raise ValueError(
            f"relevant feature indices {list(relevant)} out of range for m={m}"
        )
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if not 0.0 < prevalence < 1.0:
        raise ValueError("prevalence must be inside (0, 1)")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, m))
    signs = rng.choice((-1.0, 1.0), size=len(relevant))
    magnitudes = rng.uniform(0.5, 1.5, size=len(relevant))
    weights = signs * magnitudes
    score = features[:, relevant] @ weights + rng.normal(0.0, noise_sigma, n)
    threshold = float(np.quantile(score, 1.0 - prevalence))
    targets = (score > threshold).astype(float)
    names = tuple(f"x{j}" for j in range(m))
    truth = SynthTruth(
        relevant=relevant,
        weights=tuple(weights),
        threshold=threshold,
        noise_sigma=float(noise_sigma),
        prevalence=float(prevalence),
    )
    return Dataset(features, targets, names), truth
