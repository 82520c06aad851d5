"""Dataset ingestion, normalization, splitting, and synthetic generation.

CSV files are UTF-8 with a header row, comma separators, and a decimal
point; the label column is chosen by name or index.  All functions here
are pure given their arguments (file reads, and the forked workers that
parse a large file, aside).
"""

from __future__ import annotations

import csv
import mmap
import os
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import orjson

from ._pool import fork_map
from .domain import Dataset, FeatureStats, SplitAB, require_finite_features
from .errors import DataError

__all__ = [
    "ZeroVarianceWarning",
    "SynthTruth",
    "load_csv",
    "load_matrix_csv",
    "write_csv",
    "format_scores",
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


# Bytes a body may hold for the JSON stage: the number bytes it deletes
# first, then the separators and signs it counts.
_DIGIT_BYTES = b"0123456789.+"
_SIGN_BYTES = b",\n\r-eE"
# Body text parsed at once by the JSON stage.  Its Python objects take
# about 8 times the text, so small blocks keep the parse's peak near the
# table itself; on 50000x72 the speed hardly changes from 8 KiB to 1 MiB.
_READ_BLOCK_BYTES = 1 << 16
# Body bytes each worker of the JSON stage gets at least.  A forked pool
# starts in about 11 ms, and 8 MiB parses in about 85 ms, so a worker
# costs at most about 13% of its own work; smaller files stay in-process.
_MIN_WORKER_BYTES = 8 << 20
# orjson takes an 8 MiB parse buffer on its first ``loads`` and keeps it for
# the life of the process.  Taken at import, glibc still maps a block that
# large apart from the heap.  Taken after large arrays were freed, it comes
# from the heap and can split the space later tables reuse: in a process
# scoring a 50000x72 CSV over and over, that added 2 MB to the peak RSS,
# and 52 MB in 3 of 9 runs.
orjson.loads(b"0")


def _line_blocks(handle, size: int):
    """The next ``size`` bytes of a binary ``handle`` in blocks of whole
    lines, each of about ``_READ_BLOCK_BYTES``; only the last may lack its
    line end."""
    pieces = []
    while size > 0 and (chunk := handle.read(min(size, _READ_BLOCK_BYTES))):
        size -= len(chunk)
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pieces.append(chunk)
            continue
        pieces.append(chunk[:cut])
        yield b"".join(pieces)
        pieces = [chunk[cut:]]
    if tail := b"".join(pieces):
        yield tail


def _line_start(handle, offset: int, end: int) -> int:
    """The first offset at or after ``offset`` (> 0) where a line starts,
    or ``end`` if none does before it."""
    handle.seek(offset - 1)
    while chunk := handle.read(_READ_BLOCK_BYTES):
        found = chunk.find(b"\n")
        if found >= 0:
            return min(offset + found, end)
        offset += len(chunk)
    return end


def _line_ranges(handle, begin: int, end: int, parts: int) -> list[tuple[int, int, int, int]]:
    """Bytes ``[begin, end)`` of ``handle`` cut at line ends into at most
    ``parts`` ranges of about equal size, each as (start, stop, first row,
    rows).  A range's rows are its line ends, plus one if it does not end
    in one (only the last can)."""
    cuts = [begin]
    for part in range(1, parts):
        target = begin + (end - begin) * part // parts
        cut = _line_start(handle, max(target, cuts[-1] + 1), end)
        if cut == end:
            break
        cuts.append(cut)
    cuts.append(end)
    ranges = []
    first = 0
    for start, stop in zip(cuts, cuts[1:]):
        handle.seek(start)
        rows, size, last = 0, stop - start, b"\n"
        while size > 0 and (chunk := handle.read(min(size, _READ_BLOCK_BYTES))):
            # numpy's SIMD compare counts about 3 times as fast as bytes.count.
            rows += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            size -= len(chunk)
            last = chunk[-1:]
        rows += last != b"\n"
        ranges.append((start, stop, first, rows))
        first += rows
    return ranges


def _parse_range(path, table: np.ndarray, line_range) -> tuple[int, int, int, int] | None:
    """Screen and parse one range of the body, block by block, into its
    rows of ``table`` in place.

    Returns the range's counts: mantissa minus signs, carriage returns,
    CRLFs and line ends.  Returns None if a byte is outside the screen,
    orjson refuses a block, a line has another cell count than the table
    or the range does not hold exactly its rows.
    """
    start, stop, first, rows = line_range
    out = table[first:first + rows]
    row = minus = carriage_returns = crlf = newlines = 0
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            for block in _line_blocks(handle, stop - start):
                signs = block.translate(None, _DIGIT_BYTES)
                if signs.translate(None, _SIGN_BYTES):
                    return None
                newlines += signs.count(b"\n")
                # Minus signs of mantissas; an exponent's follows its e.
                minus += signs.count(b"-") - signs.count(b"e-") - signs.count(b"E-")
                if b"\r" in signs:
                    carriage_returns += signs.count(b"\r")
                    crlf += block.count(b"\r\n")
                text = block.replace(b"\n", b"],[")
                end = len(text) - 3 if block.endswith(b"\n") else len(text)
                cells = np.array(
                    orjson.loads(b"[[%b]]" % memoryview(text)[:end]), dtype=float
                )
                if cells.shape[1] != out.shape[1]:
                    return None
                # A row past the range's end raises, or (one row into an
                # empty slot) fails the row count below.
                out[row:row + len(cells)] = cells
                row += len(cells)
    # ValueError covers orjson's errors, ragged lines and a range with
    # more rows than counted.
    except (OSError, ValueError):
        return None
    if row != rows:
        return None
    return minus, carriage_returns, crlf, newlines


def _parse_json_blocks(path, jobs: int = 1) -> tuple[list[str], np.ndarray] | None:
    """The body parsed by orjson, one block of lines at a time, on up to
    ``jobs`` processes.

    The body is cut at line ends into ``max(1, min(jobs, body bytes //
    _MIN_WORKER_BYTES))`` ranges, and the lines of each are counted, to
    size one ``(rows, columns)`` table.  One range is parsed in this
    process into an ordinary array.  Several are parsed by forked workers
    into one table in a shared anonymous ``mmap``, which the returned
    array keeps alive; nothing is copied out of it.  Each range is
    screened and parsed block by block by :func:`_parse_range`, and the
    rules that span the body are applied to the sums of its counts, so the
    table, its bits and every refusal are the same for every ``jobs``.

    orjson rounds decimal text to the nearest double as ``float()`` does
    (Clinger 1990; Lemire 2021), so every number it accepts has the
    reference's bits.  Returns None unless the header has no quotes, every
    body byte is a digit, one of ``eE+-.,`` or a line end, the lines all
    end alike (CRLF or LF), each cell is a JSON number (no ``nan``,
    ``inf``, ``.5``, ``5.``, ``+1``, ``01``, empty cell or overflow to
    infinity) other than the integer ``-0``, and every line has the
    header's cell count.
    """
    try:
        with open(path, "rb") as handle:
            line = handle.readline().decode("utf-8")
            if '"' in line:  # csv lets a quoted name run on past the line
                return None
            header = next(csv.reader([line]), None)
            if not header:
                return None
            begin = handle.tell()
            end = os.fstat(handle.fileno()).st_size
            parts = max(1, min(jobs, (end - begin) // _MIN_WORKER_BYTES))
            ranges = _line_ranges(handle, begin, end, parts)
    # ValueError covers decoding.
    except (OSError, ValueError, csv.Error):
        return None
    rows = sum(line_range[3] for line_range in ranges)
    if not rows:
        return None
    shape = (rows, len(header))
    if len(ranges) > 1:
        shared = mmap.mmap(-1, rows * len(header) * np.dtype(float).itemsize)
        values = np.frombuffer(shared, dtype=float).reshape(shape)
    else:
        values = np.empty(shape)
    task = partial(_parse_range, path, values)
    counts = list(fork_map(task, ranges, len(ranges)))
    if None in counts:
        return None
    minus, carriage_returns, crlf, newlines = map(sum, zip(*counts))
    # csv ends a row at a lone CR, which JSON reads as a space.
    if carriage_returns and not carriage_returns == crlf == newlines:
        return None
    # A mantissa's minus sign sets its value's sign bit, except on the
    # integer -0: orjson reads it as int 0, where float("-0") is -0.0.
    if np.count_nonzero(np.signbit(values)) != minus:
        return None
    return [cell.strip() for cell in header], values


def _parse_columnar(path) -> tuple[list[str], np.ndarray] | None:
    """The header via ``csv`` and the body parsed in C by ``np.loadtxt``.

    Returns None whenever the result might differ from :func:`_parse_cells`:
    numpy refused a cell (quoted cells, ``1_0``, non-ASCII digits, ragged or
    whitespace-only lines) or the table does not match the header.
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


def _load_table(path, label_column, jobs) -> tuple[list[str], np.ndarray, int | None]:
    """Header names, the value matrix and the label's column index (None
    when ``label_column`` is None).  Row N in an error is the Nth data row
    below the header.  ``jobs`` caps the processes of the first stage.

    The fast stages are tried in order; each returns the header and the
    value matrix, or None when it cannot vouch for the file.  A file no
    fast stage vouches for, or whose labels are not all 0 or 1, is parsed
    again cell by cell by :func:`_parse_cells`, which loads it or raises
    its exact error.  The fast stages read every file they accept with the
    reference's bits, with one known exception: an unquoted cell longer
    than the csv module's field limit (131072 characters) is parsed as a
    number, where the per-cell parse reports malformed CSV.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    for stage in (partial(_parse_json_blocks, jobs=jobs), _parse_columnar):
        parsed = stage(path)
        if parsed is None:
            continue
        header, values = parsed
        if label_column is None:
            return header, values, None
        label_idx = _label_index(header, label_column, path)
        labels = values[:, label_idx]
        if np.all((labels == 0.0) | (labels == 1.0)):
            return header, values, label_idx
        break  # the next fast stage would read the same labels
    return _parse_cells(path, label_column)


def load_matrix_csv(path, jobs: int = 1) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a headed CSV where every column is a feature.

    Returns the value matrix and the header names.  Useful for unlabeled
    prediction inputs.  ``jobs`` is as for :func:`load_csv`; the matrix of
    a file parsed by several workers lives in a shared ``mmap`` that goes
    when the matrix does.
    """
    header, values, _ = _load_table(path, None, jobs)
    return values, tuple(header)


def load_csv(path, label_column, jobs: int = 1) -> Dataset:
    """Parse a headed CSV into a Dataset, splitting off the label column.

    ``label_column`` is a header name or a 0-based column index.  Labels
    must parse as exactly 0 or 1; every other column becomes a feature in
    file order.

    ``jobs`` caps the processes the file is parsed on.  A body of at least
    two times ``_MIN_WORKER_BYTES`` (8 MiB) is split over up to ``jobs``
    forked workers, one per 8 MiB at most; smaller files, ``jobs == 1`` and
    platforms without the ``fork`` start method parse in this process.  The
    Dataset and every error are the same for every ``jobs``, which is not
    capped at the CPU count.  A worker that dies raises
    ``BrokenProcessPool``.
    """
    header, values, label_idx = _load_table(path, label_column, jobs)
    # Copy the labels and drop the parsed table before Dataset copies the
    # features, so at most two feature-sized matrices are alive at once.
    targets = values[:, label_idx].copy()
    features = np.delete(values, label_idx, axis=1)
    del values
    return Dataset(
        features, targets, tuple(header[:label_idx] + header[label_idx + 1:])
    )


# Rows formatted per write, so the file text never sits in memory whole.
_WRITE_BLOCK_ROWS = 1000

# orjson prints the same shortest round-trip digits as ``repr``, but in its
# own notation outside [1e-4, 1e16) (``0.00001``, ``1e16``) and as ``null``
# for non-finite values.  Nonzero cells outside [1e-3, 1e15), a margin on
# both sides that also takes in NaN and the infinities, are printed by
# ``repr`` instead.
_SHORTEST_NOTATION_LOW = 1e-3
_SHORTEST_NOTATION_HIGH = 1e15


def _float_rows(block: np.ndarray) -> list[bytes]:
    """Each row of a 2-D float block as comma-joined ``repr`` texts.

    The digits of the whole block are printed in C by orjson; each cell
    whose notation can differ from ``repr`` is printed again by ``repr``.
    """
    text = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY)
    rows = text[2:-2].split(b"],[")
    magnitude = np.abs(block)
    in_band = (magnitude >= _SHORTEST_NOTATION_LOW) & (magnitude < _SHORTEST_NOTATION_HIGH)
    unlike_repr = ~in_band & (block != 0.0)  # NaN is in no band
    for i in np.flatnonzero(unlike_repr.any(axis=1)).tolist():
        cells = rows[i].split(b",")
        for j in np.flatnonzero(unlike_repr[i]).tolist():
            cells[j] = repr(float(block[i, j])).encode("ascii")
        rows[i] = b",".join(cells)
    return rows


def write_csv(path, dataset: Dataset, label_name: str = "y") -> None:
    """Write a Dataset as a headed CSV, label column last.

    Floats are written in shortest round-trip form, labels as bare 0/1,
    so reading the file back reproduces the dataset bit for bit.
    """
    names = dataset.feature_names or tuple(f"x{j}" for j in range(dataset.m))
    line = b"%b,%d\n" if dataset.m else b"%b%d\n"
    with open(path, "wb") as handle:
        handle.write((",".join(names + (label_name,)) + "\n").encode("utf-8"))
        for a in range(0, dataset.n, _WRITE_BLOCK_ROWS):
            b = a + _WRITE_BLOCK_ROWS
            rows = _float_rows(dataset.features[a:b])
            handle.write(b"".join(
                line % cells for cells in zip(rows, dataset.targets[a:b].tolist())
            ))


def format_scores(outputs: np.ndarray, labels: np.ndarray) -> str:
    """The ``predict`` table: row index, output in shortest round-trip
    form, and its 0/1 label, under an ``index,output,label`` header."""
    rows = _float_rows(np.asarray(outputs, dtype=float).reshape(-1, 1))
    return "index,output,label\n" + b"".join(
        b"%d,%b,%d\n" % cells
        for cells in zip(range(len(rows)), rows, np.asarray(labels).tolist())
    ).decode("ascii")


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
    the fitting side, 2nd, 4th, 6th ... to the validation side.

    Growth needs finite features, so they are checked here, with rows
    numbered as in ``train``.
    """
    if train.n < 2:
        raise DataError("splitting needs at least two examples")
    require_finite_features(train.features)
    return SplitAB(
        set_a=train.take(np.arange(0, train.n, 2)),
        set_b=train.take(np.arange(1, train.n, 2)),
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
