"""Dataset ingestion, normalization, splitting, and synthetic generation.

CSV files are UTF-8 with a header row, comma separators, and a decimal
point; the label column is chosen by name or index.  All functions here
are pure given their arguments (file reads, and the forked workers that
parse a large file, aside).
"""

from __future__ import annotations

import csv
import io
import mmap
import operator
import os
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np
import orjson

from ._pool import fork_map
from .domain import Dataset, FeatureStats, SplitAB, require_finite_features
from .errors import DataError

__all__ = [
    "load_csv",
    "load_matrix_csv",
    "write_csv",
    "normalize",
    "split_odd_even",
    "split_train_test",
    "synth_dataset",
]


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
        if header.count(label_column) > 1:
            raise DataError(f"{path}: label {label_column!r} names two columns in {header}")
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
    """The reference parse, csv rows then one ``float()`` per cell: slow,
    but it defines every accepted input and every error message."""
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
            if j == label_idx:
                if value not in (0.0, 1.0):
                    raise DataError(
                        f"{path}: label must be 0 or 1, got {cell.strip()!r} "
                        f"at row {i + 1}"
                    )
                value = abs(value)  # a -0 label reads as 0
            values[i, j] = value
    return header, values, label_idx


# Bytes a body may hold for the JSON stage: the number bytes, deleted to
# count mantissa signs, then the separators, signs and blanks.  Space and
# tab are JSON whitespace, and float() strips both from a cell.
_DIGIT_BYTES = b"0123456789.+"
_SCREEN_BYTES = _DIGIT_BYTES + b",\n\r-eE \t"
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


def _body_end(handle, begin: int, end: int) -> int:
    """Where the body ``[begin, end)`` of ``handle`` ends without the run of
    CR and LF bytes that closes it, which csv skips.  Only its last
    ``_READ_BLOCK_BYTES`` are read, so a longer run stays."""
    start = max(begin, end - _READ_BLOCK_BYTES)
    handle.seek(start)
    last = len(handle.read(end - start).rstrip(b"\r\n"))
    return end if not last and start > begin else start + last


def _line_ranges(handle, begin: int, end: int, parts: int) -> list[tuple[int, int, int, int]]:
    """Bytes ``[begin, end)`` of ``handle`` cut at line ends into at most
    ``parts`` ranges of about equal size, each as (start, stop, first row,
    rows).  A range's rows are its line ends, plus one if it does not end
    in one (only the last can).  One pass reads the body, counts its lines
    and finds cut ``k``: the first line start at or after ``k / parts`` of
    the body and past cut ``k - 1``, if one lies before ``end``."""
    ranges = []
    start, first, rows, part, last = begin, 0, 0, 1, b"\n"
    handle.seek(begin)
    offset = begin
    while offset < end and (chunk := handle.read(min(end - offset, _READ_BLOCK_BYTES))):
        # numpy's SIMD compare counts about 3 times as fast as bytes.count.
        ends = np.frombuffer(chunk, np.uint8) == ord("\n")
        counted = 0
        while part < parts:
            target = begin + (end - begin) * part // parts
            # Not before the bytes counted, which end at the previous cut.
            found = chunk.find(b"\n", max(target - 1 - offset, counted))
            cut = offset + found + 1
            # A line end that closes the body starts no range.
            if found < 0 or cut == end:
                break
            rows += np.count_nonzero(ends[counted:found + 1])
            ranges.append((start, cut, first, rows))
            start, first, rows, counted = cut, first + rows, 0, found + 1
            part += 1
        rows += np.count_nonzero(ends[counted:])
        offset += len(chunk)
        last = chunk[-1:]
    ranges.append((start, end, first, rows + (last != b"\n")))
    return ranges


def _table_columns(
    width: int, label_idx, features
) -> tuple[list[int] | None, int | None, list[int]]:
    """The layout of a loaded table: the file columns it keeps in its
    order (None for all ``width`` of them), the label's column in it, and
    the columns of requested features the file lacks.

    With ``features`` (0-based, counted without the label column) the
    table keeps each feature's file column, then the label's.  A feature
    at or past the file's feature count keeps column 0 in its place, and
    the caller sets that table column to NaN.
    """
    if features is None:
        return None, label_idx, []
    columns = [c + (label_idx is not None and c >= label_idx) for c in features]
    absent = [slot for slot, column in enumerate(columns) if column >= width]
    columns = [0 if column >= width else column for column in columns]
    if label_idx is None:
        return columns, None, absent
    return columns + [label_idx], len(columns), absent


def _floats(lines, rows: int, width: int) -> np.ndarray:
    """``rows`` parsed lines of ``width`` cells each as a float table."""
    return np.fromiter(chain.from_iterable(lines), float, rows * width).reshape(rows, width)


def _parse_range(path, table, width: int, columns, label_slot, line_range) -> bool:
    """Screen and parse one range of the body, block by block, into its
    rows of ``table`` in place; True if every block passes.

    One pass screens a block: every byte is a digit, one of ``eE+-.,``, a
    space, a tab, a CR or an LF.  A block longer than csv's field limit
    may hold no cell longer than it.  orjson then parses every cell, which
    must be a JSON number with optional spaces and tabs around it (no
    ``nan``, ``inf``, ``.5``, ``5.``, ``+1``, ``01``, ``1 2``, empty or
    blank cell, or overflow to infinity).  Every line must have ``width``
    cells, so a blank line inside the body is refused, and every CR must
    be followed by an LF: orjson reads a lone CR as a space, csv as a
    line end.  Only the file ``columns`` the table keeps (all when None)
    are converted to floats, by :func:`_floats` as every block is.  orjson
    reads the integer ``-0`` as 0, where ``float("-0")`` is -0.0, so where
    a block's kept feature cells hold a zero (``label_slot``, the label's
    table column, aside: a ``-0`` label reads as 0 in every parse), the
    block is converted whole, and its sign bits must equal its mantissa
    minus signs.  The blocks must fill the range's rows exactly.
    """
    start, stop, first, rows = line_range
    out = table[first:first + rows]
    # itemgetter of one column gives the cell itself; of a one-column
    # slice, a list.
    pick = None if columns is None else operator.itemgetter(
        *columns if len(columns) > 1 else [slice(columns[0], columns[0] + 1)]
    )
    limit = csv.field_size_limit()
    row = 0
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            for block in _line_blocks(handle, stop - start):
                if block.translate(None, _SCREEN_BYTES):
                    return False
                if len(block) > limit and max(
                    map(len, block.replace(b"\n", b",").split(b","))
                ) > limit:
                    return False
                text = block.replace(b"\n", b"],[")
                end = len(text) - 3 if block.endswith(b"\n") else len(text)
                lines = orjson.loads(b"[[%b]]" % memoryview(text)[:end])
                if set(map(len, lines)) != {width} or (
                    b"\r" in block and block.count(b"\r") != block.count(b"\r\n")
                ):
                    return False
                kept = lines if pick is None else map(pick, lines)
                cells = _floats(kept, len(lines), out.shape[1])
                zero = cells == 0.0
                if label_slot is not None:
                    zero[:, label_slot] = False
                if zero.any():
                    whole = cells if pick is None else _floats(lines, len(lines), width)
                    # Minus signs of mantissas; an exponent's follows its e.
                    signs = block.translate(None, _DIGIT_BYTES)
                    minus = signs.count(b"-") - signs.count(b"e-") - signs.count(b"E-")
                    if np.count_nonzero(np.signbit(whole)) != minus:
                        return False
                # A row past the range's end raises, or (one row into an
                # empty slot) fails the row count below.
                out[row:row + len(cells)] = cells
                row += len(cells)
    # ValueError covers orjson's errors and a range with more rows than
    # counted.
    except (OSError, ValueError):
        return False
    return row == rows


def _parse_json_blocks(
    path, jobs: int = 1, label_column=None, features=None
) -> tuple[list[str], np.ndarray, int | None] | None:
    """The file parsed by orjson on up to ``jobs`` processes: the header
    names, a table and the label's column index (None without
    ``label_column``), or None if this stage cannot vouch for the file.

    The header line is read by ``csv`` on its own, so a quoted name is
    taken if it closes on that line.  The body, less the closing run of
    line ends :func:`_body_end` finds, is cut at line ends into
    ``max(1, min(jobs, body bytes // _MIN_WORKER_BYTES))`` ranges, whose
    lines are counted to size the table, and every range must pass
    :func:`_parse_range`.  One range is parsed in this process into an
    ordinary array, several by forked workers into one table in a shared
    anonymous ``mmap``, which the returned array keeps alive.  No rule
    spans two ranges, so the table and every refusal are the same for
    every ``jobs``.  orjson rounds decimal text to the nearest double as
    ``float()`` does (Clinger 1990; Lemire 2021), so every number it
    accepts has the reference's bits.

    The table holds the columns :func:`_table_columns` lays out, and a
    feature the file lacks reads NaN.  Labels must be 0 or 1 and are
    stored as such, a ``-0`` as 0.  A ``label_column`` the header lacks
    raises :func:`_label_index`'s :class:`DataError` once the rest of the
    file is read without a fault.
    """
    try:
        with open(path, "rb") as handle:
            header = next(csv.reader([handle.readline().decode("utf-8")]), None)
            # A last cell holding the line end is a quoted name that runs
            # on past the line, where the whole-file csv reader would go on.
            if not header or "\n" in header[-1]:
                return None
            begin = handle.tell()
            end = _body_end(handle, begin, os.fstat(handle.fileno()).st_size)
            parts = max(1, min(jobs, (end - begin) // _MIN_WORKER_BYTES))
            ranges = _line_ranges(handle, begin, end, parts)
    # ValueError covers decoding.
    except (OSError, ValueError, csv.Error):
        return None
    header = [cell.strip() for cell in header]
    label_idx = missing_label = None
    if label_column is not None:
        try:
            label_idx = _label_index(header, label_column, path)
        except DataError as exc:
            # The per-cell parse reports only the faults of the rows before
            # a missing label, so the file is read as a table of one
            # column, and the label's error raised only if that succeeds.
            missing_label, features = exc, [0]
    rows = sum(line_range[3] for line_range in ranges)
    if not rows:
        return None
    columns, label_slot, absent = _table_columns(len(header), label_idx, features)
    shape = (rows, len(header) if columns is None else len(columns))
    if len(ranges) > 1:
        shared = mmap.mmap(-1, shape[0] * shape[1] * np.dtype(float).itemsize)
        table = np.frombuffer(shared, dtype=float).reshape(shape)
    else:
        table = np.empty(shape)
    task = partial(_parse_range, path, table, len(header), columns, label_slot)
    if not all(fork_map(task, ranges, len(ranges))):
        return None
    if missing_label is not None:
        raise missing_label
    if label_slot is not None:
        labels = table[:, label_slot]
        if not np.all((labels == 0.0) | (labels == 1.0)):
            return None
        np.abs(labels, out=labels)
    table[:, absent] = np.nan
    return header, table, label_idx


def _load_table(
    path, label_column, jobs, features=None
) -> tuple[list[str], np.ndarray, int | None]:
    """Header names, a value table and the label's column index (None
    without ``label_column``), as :func:`load_csv` and
    :func:`load_matrix_csv` lay them out.

    :func:`_parse_json_blocks` serves the file if it can vouch for it;
    every cell it accepts is finite.  Any other file is parsed again cell
    by cell by :func:`_parse_cells`, which loads it or raises its exact
    error.  The per-cell table is checked whole before any column is
    picked: an unlabeled one by :func:`~ecnn.domain.require_finite_features`
    always, a labeled one by the :class:`~ecnn.domain.Dataset` constructor,
    here when a table of some columns stands for the whole file and in
    :func:`load_csv` otherwise.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if features is not None and (not features or min(features) < 0):
        raise ValueError("features must be a non-empty list of indices >= 0")
    parsed = _parse_json_blocks(path, jobs, label_column, features)
    if parsed is not None:
        return parsed
    header, table, label_idx = _parse_cells(path, label_column)
    if label_idx is None:
        require_finite_features(table)
    elif features is not None:
        Dataset(np.delete(table, label_idx, axis=1), table[:, label_idx])
    if features is None:
        return header, table, label_idx
    columns, _, absent = _table_columns(len(header), label_idx, features)
    kept = table[:, columns]
    kept[:, absent] = np.nan
    return header, kept, label_idx


def load_matrix_csv(
    path, jobs: int = 1, features=None
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a headed CSV where every column is a feature.

    Returns the value matrix and the header names; useful for unlabeled
    prediction inputs.  A non-finite cell is refused as
    :func:`~ecnn.domain.require_finite_features` refuses it.  ``jobs`` is
    as for :func:`load_csv`; a matrix parsed by several workers lives in a
    shared ``mmap`` that goes when the matrix does.  ``features``, a list
    of 0-based column indices, keeps only those columns, as for
    :func:`load_csv`, and the names stay the whole header, so
    ``len(names)`` is the file's width.
    """
    header, table, _ = _load_table(path, None, jobs, features)
    return table, tuple(header)


def load_csv(
    path, label_column, jobs: int = 1, features=None
) -> Dataset | tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Parse a headed CSV into a Dataset, splitting off the label column.

    ``label_column`` is a header name or a 0-based column index.  Labels
    must parse as exactly 0 or 1, and a ``-0`` label reads as 0; every
    other column becomes a feature in file order.  Every cell reads as
    ``float()`` reads it, and a non-finite one is refused as the
    :class:`~ecnn.domain.Dataset` constructor refuses it.  Row N in an
    error is the Nth data row below the header.  Files are read by a fast
    stage where it can vouch for them and cell by cell otherwise, with
    the same bits; :func:`_load_table` and the functions it calls state
    which files take which stage.

    ``jobs`` caps the processes the file is parsed on, and is not capped
    at the CPU count.  The Dataset and every error are the same for every
    ``jobs``.  A large file may be parsed by forked workers on Linux, and
    a worker that dies raises ``BrokenProcessPool``.

    ``features``, a list of 0-based feature indices (the label column not
    counted, as a model numbers them), asks for those columns alone, as
    ``model.on_columns()`` reads its ``used_features``.  The result is then
    ``(features, targets, names)``: an array of only those columns, in
    that order (a column the file lacks reads NaN, so it is no Dataset),
    the labels, and all the file's feature names.  Every cell is still
    parsed, and the whole file is checked, so a fault in a dropped column
    still raises.
    """
    header, table, label_idx = _load_table(path, label_column, jobs, features)
    names = tuple(header[:label_idx] + header[label_idx + 1:])
    if features is not None:
        return table[:, :-1], table[:, -1], names
    # Both are new arrays; frozen, the Dataset takes them without a copy,
    # so once the parsed table goes one feature-sized matrix is left.
    targets = table[:, label_idx].copy()
    features = np.delete(table, label_idx, axis=1)
    del table
    features.flags.writeable = targets.flags.writeable = False
    return Dataset(features, targets, names)


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
    so reading the file back reproduces the dataset bit for bit.  A name
    that :func:`load_csv` would strip, or a feature named ``label_name``,
    raises ``ValueError`` before any write.
    """
    names = dataset.feature_names or tuple(f"x{j}" for j in range(dataset.m))
    if label_name in names:
        raise ValueError(f"feature name {label_name!r} is also the label's name")
    names += (label_name,)
    if padded := [name for name in names if name != name.strip()]:
        raise ValueError(f"column name {padded[0]!r} has whitespace that load_csv strips")
    line = b"%b,%d\n" if dataset.m else b"%b%d\n"
    with open(path, "wb") as handle:
        header = io.StringIO()  # csv quotes a name holding \r or \n under "\r\n"
        csv.writer(header, lineterminator="\r\n").writerow(names)
        handle.write((header.getvalue()[:-2] + "\n").encode("utf-8"))
        for a in range(0, dataset.n, _WRITE_BLOCK_ROWS):
            b = a + _WRITE_BLOCK_ROWS
            rows = _float_rows(dataset.features[a:b])
            handle.write(b"".join(
                line % cells for cells in zip(rows, dataset.targets[a:b].tolist())
            ))


# A label's text after its output; any other label is printed by %d.
_LABEL_TAILS = {0: b",0\n", 1: b",1\n"}


def format_scores(outputs: np.ndarray, labels: np.ndarray) -> str:
    """The ``predict`` table: row index, output in shortest round-trip
    form, and its label (one per output, printed as by ``%d``), under an
    ``index,output,label`` header."""
    outputs = np.asarray(outputs, dtype=float).reshape(-1, 1)
    n = len(outputs)
    parts = [b","] * (4 * n)
    if n:
        indices = orjson.dumps(np.arange(n), option=orjson.OPT_SERIALIZE_NUMPY)
        parts[0::4] = indices[1:-1].split(b",")
        parts[2::4] = _float_rows(outputs)
    parts[3::4] = [
        _LABEL_TAILS.get(label) or b",%d\n" % label
        for label in np.asarray(labels).tolist()
    ]
    return "index,output,label\n" + b"".join(parts).decode("ascii")


def normalize(train: Dataset) -> tuple[Dataset, FeatureStats]:
    """Center and scale each feature to zero mean and unit sample variance.

    Statistics come from (and should only ever come from) training data;
    apply the returned stats to held-out data at evaluation time.
    Zero-variance columns map to 0; the returned stats list them in
    ``FeatureStats.constant_columns``.
    """
    if train.n < 2:
        raise DataError("normalization needs at least two examples")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0, ddof=1)
    stats = FeatureStats(mean=mean, std=std)
    # The transform is a new array; frozen, the Dataset takes it as is.
    features = stats.transform(train.features)
    features.flags.writeable = False
    return Dataset(features, train.targets, train.feature_names), stats


def split_odd_even(train: Dataset) -> SplitAB:
    """Fitting/validation split by position, B's rows first: 2nd, 4th ...
    example to the validation side B, 1st, 3rd ... to the fitting side A.
    Growth needs finite features and 0/1 targets, which every Dataset has.
    """
    if train.n < 2:
        raise DataError("splitting needs at least two examples")
    order = np.concatenate((np.arange(1, train.n, 2), np.arange(0, train.n, 2)))
    return SplitAB(train.take(order), train.n // 2)


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
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
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
