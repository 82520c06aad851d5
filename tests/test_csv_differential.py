"""The CSV loaders and writer against plain per-cell reference versions.

``load_csv`` and ``load_matrix_csv`` parse the table in C, by orjson or
else by numpy, and fall back to a per-cell parse only when neither can
vouch for the file.  The reference below is the per-cell parser on its
own; on every generated text both must return the same float bits and
names, or raise a ``DataError`` with the same message.  The writer is held to the bytes of a whole-text writer that
prints one ``repr`` per cell.
"""

from __future__ import annotations

import csv
import decimal
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_pools, deadline

from ecnn import DataError, Dataset, load_csv, load_matrix_csv, write_csv
from ecnn.data_io import _parse_json_blocks

import ecnn.data_io as data_io


# -- reference implementations ----------------------------------------------


def reference_rows(path):
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


def reference_cell(cell, row, column_name, path):
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"{path}: non-numeric value {cell.strip()!r} at row {row}, "
            f"column {column_name!r}"
        ) from None


def reference_load_matrix_csv(path):
    header, body = reference_rows(path)
    values = np.empty((len(body), len(header)))
    for i, row in enumerate(body):
        for j, cell in enumerate(row):
            values[i, j] = reference_cell(cell, i + 1, header[j], path)
    return values, tuple(header)


def reference_load_csv(path, label_column):
    header, body = reference_rows(path)
    if isinstance(label_column, str) and label_column in header:
        label_idx = header.index(label_column)
    else:
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
    names = tuple(name for j, name in enumerate(header) if j != label_idx)
    features = np.empty((len(body), len(header) - 1))
    targets = np.empty(len(body))
    for i, row in enumerate(body):
        k = 0
        for j, cell in enumerate(row):
            value = reference_cell(cell, i + 1, header[j], path)
            if j == label_idx:
                if value not in (0.0, 1.0):
                    raise DataError(
                        f"{path}: label must be 0 or 1, got {cell.strip()!r} "
                        f"at row {i + 1}"
                    )
                targets[i] = value
            else:
                features[i, k] = value
                k += 1
    return Dataset(features, targets, names)


def reference_csv_text(dataset, label_name="y"):
    names = dataset.feature_names or tuple(f"x{j}" for j in range(dataset.m))
    lines = [",".join(names + (label_name,))]
    for i in range(dataset.n):
        cells = [repr(float(v)) for v in dataset.features[i]]
        cells.append(str(int(dataset.targets[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- generated inputs --------------------------------------------------------

NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-0.0", "0.0",
        "1e5", "1E-3", "-2.5e+10", "1e400", "4.9e-324", ".5", "5.", "+1",
        "1__0", "١", "½", " 1.5 ", "\t2", "2\xa0", "3\x0c",
    ]),
)
# Numbers float() reads but the columnar parse refuses.
QUIRKY_NUMBERS = st.sampled_from(['"1.0"', '" 2.5 "', '"-0"', "1_0", "١٢", "2_5e-1"])
LABEL_CELLS = st.sampled_from(["0", "1", "0.0", "1.0", "-0", "0.5", "+1", "1e0", "2", '"1"'])
ODD_CELLS = st.sampled_from([
    '"1.0"', '"0"', '" 2.5 "', '"1,5"', "oops", "", " ", "0x1", "1.5d3", "1 2",
    "#3", '1"', "\x00",
])
CELLS = st.one_of(NUMBER_CELLS, LABEL_CELLS, ODD_CELLS)
HEADER_NAMES = st.sampled_from(["a", "b", "y", " c ", "x0", "0", '"q"', "a b"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
FILLER_LINES = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def csv_texts(draw):
    """A headed CSV text, mostly well formed, with one of every fault the
    parsers must agree on mixed in now and then."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(HEADER_NAMES, min_size=width, max_size=width))
    clean = draw(st.booleans())
    # A clean body is consistent, but not always as wide as its header.
    body_width = draw(st.sampled_from([width, width, width, width + 1, max(width - 1, 1)]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if clean:
            numbers = st.one_of(NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, QUIRKY_NUMBERS)
            row = draw(st.lists(numbers, min_size=body_width - 1, max_size=body_width - 1))
            row.append(draw(LABEL_CELLS))
        else:
            row_width = draw(st.sampled_from([width, width, width, width - 1, width + 1]))
            row = draw(st.lists(CELLS, min_size=row_width, max_size=row_width))
        rows.append(",".join(row))
    lines = [",".join(header)] + rows
    if not clean:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(FILLER_LINES))
    ends = [draw(LINE_ENDS) if not clean else "\n" for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


LABEL_COLUMNS = st.one_of(
    st.sampled_from(["y", "a", "0", "missing", "c"]),
    st.integers(-1, 4),
)


def outcome(load, *args):
    """("ok", payload) or ("error", message), with warnings made errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", load(*args)
        except DataError as exc:
            return "error", str(exc)


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64).tolist()


def assert_same_dataset(got, want):
    assert bits(got.features) == bits(want.features)
    assert got.features.shape == want.features.shape
    assert bits(got.targets) == bits(want.targets)
    assert got.feature_names == want.feature_names


def assert_same_matrix(got, want):
    assert bits(got[0]) == bits(want[0])
    assert got[0].shape == want[0].shape
    assert got[1] == want[1]


def assert_same_outcome(got, want, assert_same):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same(got[1], want[1])


def assert_loaders_match(path, label_column):
    assert_same_outcome(
        outcome(load_csv, path, label_column),
        outcome(reference_load_csv, path, label_column),
        assert_same_dataset,
    )
    assert_same_outcome(
        outcome(load_matrix_csv, path),
        outcome(reference_load_matrix_csv, path),
        assert_same_matrix,
    )


class TestLoadersMatchTheReference:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), label_column=LABEL_COLUMNS)
    def test_same_bits_or_same_error(self, text, label_column):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert_loaders_match(path, label_column)

    @pytest.mark.parametrize("body", [
        "1.0,2.0,1\r\n\r\n3.0,4.0,0\r\n",
        '"1.0",2.0,1\n3.0," 4.0 ",0\n',
        "1_0,2.0,1\n",
        "١,2.0,1\n",
        "1.0,2.0,-0\n3.0,4.0,1.0\n",
        "nan,-inf,0\n-0.0,1e-320,1\n",
        "1.0,2.0,0.5\n",
        "1.0,1\n2.0,0\n",
        "1.0,2.0,3.0,1\n",
    ])
    @pytest.mark.parametrize("label_column", ["y", 2])
    def test_edge_cases(self, tmp_path, body, label_column):
        path = tmp_path / "d.csv"
        path.write_bytes(("a,b,y\n" + body).encode("utf-8"))
        assert_loaders_match(path, label_column)


# Cells a clean body is made of, so that the file reaches the first
# (orjson) parse stage: every one must come back with float()'s bits.


def double_of(pattern):
    return float(np.array(pattern, dtype=np.uint64).view(np.float64))


def halfway_text(pattern, nudge):
    """The exact decimal midway between a finite double and the next one
    up, moved by ``nudge`` 2**-40ths of the gap (0 keeps it on the tie)."""
    low = abs(double_of(pattern))
    if not math.isfinite(low) or low == sys.float_info.max:
        low = 1.0
    with decimal.localcontext() as context:
        context.prec = 2000  # more than any double's exact digits
        below, above = decimal.Decimal(low), decimal.Decimal(math.nextafter(low, math.inf))
        middle = (below + above) / 2 + nudge * (above - below) / 2**40
        return str(middle)


REPR_CELLS = st.integers(0, 2**64 - 1).map(lambda p: repr(double_of(p)))
HALFWAY_CELLS = st.builds(halfway_text, st.integers(0, 2**64 - 1), st.sampled_from([0, 0, -1, 1]))
LONG_DECIMAL_CELLS = st.builds(
    lambda sign, digits, point, exponent: (
        f"{sign}{str(digits)[:point]}.{str(digits)[point:]}e{exponent}"
    ),
    st.sampled_from(["", "-"]), st.integers(10**16, 10**25 - 1),
    st.integers(1, 16), st.integers(-345, 310),
)
SUBNORMAL_CELLS = st.builds(
    lambda sign, mantissa: repr(double_of((sign << 63) | mantissa)),
    st.integers(0, 1), st.integers(1, 2**52 - 1),
)
EXACT_CELLS = st.sampled_from([
    "-0", "-0.0", "-0e5", "0", "0.0", "1e+16", "1E5", "-2.5E-3", "1e0",
    "5e-324", "-5e-324", "4.9e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
    "1.7976931348623159e308", "9007199254740993", "-9007199254740993",
    "9223372036854775808", "-9223372036854775809", "18446744073709551615",
    "18446744073709551616", "123456789012345678901234567890",
    "1e400", "-1e400", "1e-400", "-1e-400", "1e0000000000000000000001",
])
FIRST_STAGE_CELLS = st.one_of(
    REPR_CELLS, HALFWAY_CELLS, LONG_DECIMAL_CELLS, SUBNORMAL_CELLS, EXACT_CELLS,
)
FIRST_STAGE_LABELS = st.sampled_from(["0", "1", "0", "1", "1.0", "0e0", "-0"])


@st.composite
def first_stage_texts(draw):
    """A headed CSV whose body holds JSON numbers only, one line end
    throughout: the files the first parse stage serves."""
    width = draw(st.integers(1, 4))
    lines = [",".join([f"c{j}" for j in range(width - 1)] + ["y"])]
    for _ in range(draw(st.integers(1, 6))):
        cells = draw(st.lists(FIRST_STAGE_CELLS, min_size=width - 1, max_size=width - 1))
        lines.append(",".join(cells + [draw(FIRST_STAGE_LABELS)]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


class TestFirstStageMatchesTheReference:
    @settings(max_examples=300, deadline=None)
    @given(text=first_stage_texts(), label_column=st.sampled_from(["y", 0, "c0"]))
    def test_same_bits_or_same_error(self, text, label_column):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert_loaders_match(path, label_column)

    @pytest.mark.parametrize("body", [
        ".5,2.0,1\n",
        "5.,2.0,1\n",
        "+1,2.0,1\n",
        "01,2.0,1\n",
        "nan,2.0,1\n",
        "inf,2.0,1\n",
        "-inf,2.0,0\n",
        "1.0, 2.0,1\n",
        "1.0,2.0 ,1\n",
        '"1.0",2.0,1\n',
        "1.0,2.0,1\n\n3.0,4.0,0\n",
        "1.0,2.0,1\r\n3.0,4.0,0\n",
        "1.0,2.0,1\n3.0,4.0,0\r\n",
        "1.0,2.0,1\r3.0,4.0,0\r",
        "1.0,\r2.0,1\n",
        "1.0,2.0,-0\n",
        "-0,2.0,1\n",
        "1.0,,1\n",
        "1.0,2.0,1,\n",
        "1e400,2.0,1\n",
        "1.0\n0\n",
        "1.0,2.0\n3.0,4.0\n",
    ])
    @pytest.mark.parametrize("label_column", ["y", 2])
    def test_forms_the_first_stage_refuses(self, tmp_path, body, label_column):
        path = tmp_path / "d.csv"
        path.write_bytes(("a,b,y\n" + body).encode("utf-8"))
        assert _parse_json_blocks(path) is None
        assert_loaders_match(path, label_column)

    @pytest.mark.parametrize("text", [
        '"a","b",y\n1.0,2.0,1\n',
        '"a,b,y\n1.0,2.0,1\n',
        '"y\n1\n',
        '"a\nb",y\n1.0,1\n',
        "a,b\ry\n1.0,2.0,1\n",
        "\na,b,y\n1.0,2.0,1\n",
        "a,b,y\r\n1.0,2.0,1\n",
        "a,b,y",
        "",
    ])
    @pytest.mark.parametrize("label_column", ["y", 2])
    def test_unusual_headers(self, tmp_path, text, label_column):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_loaders_match(path, label_column)


class TestNoStrayWarnings:
    @pytest.mark.parametrize("text", ["a,b,y\n", "a,b,y", "a,b,y\n\n\n", "a,b,y\r\n\r\n"])
    @pytest.mark.parametrize("load", [
        lambda path: load_csv(path, label_column="y"),
        load_matrix_csv,
    ])
    def test_header_only_or_blank_body_is_only_a_data_error(self, tmp_path, text, load):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no examples below the header"):
                load(path)

    def test_whitespace_only_body_is_a_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n  \n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="row 1 has 1 cells, header has 3"):
                load_csv(path, label_column="y")


# -- the first stage split over forked workers ------------------------------

# Body bytes per worker while the split is tested: cuts fall inside files
# of a few lines, where the shipped 8 MiB would never split them.
TINY_WORKER_BYTES = 8


def loaded_by_jobs(path, label_column, jobs):
    """The first stage's table and both loaders' outcomes at ``jobs``, as
    plain data: float bits, shapes, names and error texts."""
    parsed = data_io._parse_json_blocks(path, jobs)
    stage = None if parsed is None else (parsed[0], bits(parsed[1]), parsed[1].shape)
    kind, dataset = outcome(load_csv, path, label_column, jobs)
    if kind == "ok":
        dataset = (bits(dataset.features), dataset.features.shape,
                   bits(dataset.targets), dataset.feature_names)
    kind_matrix, matrix = outcome(load_matrix_csv, path, jobs)
    if kind_matrix == "ok":
        matrix = (bits(matrix[0]), matrix[0].shape, matrix[1])
    return stage, (kind, dataset), (kind_matrix, matrix)


def assert_every_job_count_loads_alike(path, label_column):
    """jobs 1, 2 and 3 give jobs=1's table, Dataset, matrix or error.
    Returns the worker counts of the pools that started."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_io, "_MIN_WORKER_BYTES", TINY_WORKER_BYTES)
        started = count_pools(patch)
        with deadline(60):
            got = [loaded_by_jobs(path, label_column, jobs) for jobs in (1, 2, 3)]
    assert got[1] == got[0]
    assert got[2] == got[0]
    return started


class TestSplitStageMatchesOneWorker:
    """The first stage cut into ranges for forked workers: the same bits,
    names and refusals as one range parsed in this process."""

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.one_of(first_stage_texts(), csv_texts()),
        label_column=st.sampled_from(["y", 0, "c0"]),
    )
    def test_same_bits_or_same_refusal(self, text, label_column):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert_every_job_count_loads_alike(path, label_column)

    CLEAN = "1.0,2.0,1\n3.5,-4.25e-3,0\n" * 3

    @pytest.mark.parametrize("body, served", [
        (CLEAN + "nan,2.0,1\n", False),
        (CLEAN + ".5,2.0,1\n", False),
        (CLEAN + "1e400,2.0,1\n", False),
        (CLEAN.replace("\n", "\r\n") + CLEAN, False),
        (CLEAN + CLEAN.replace("\n", "\r\n"), False),
        (CLEAN.replace("\n", "\r\n") * 2, True),
        (CLEAN + "-0,2.0,1\n", False),
        (CLEAN + "-0.0,2.0,1\n", True),
        (CLEAN + "3.0,4.0,0", True),
        (CLEAN + "3.0,4.0", False),
        (CLEAN + "\n3.0,4.0,0\n", False),
    ], ids=[
        "nan-last", "bare-point-last", "overflow-last", "crlf-then-lf",
        "lf-then-crlf", "crlf-throughout", "integer-minus-zero-last",
        "float-minus-zero-last", "unterminated-last-line", "short-last-line",
        "blank-line-late",
    ])
    @pytest.mark.parametrize("label_column", ["y", 2])
    def test_fixed_cases(self, tmp_path, body, served, label_column):
        path = tmp_path / "d.csv"
        path.write_bytes(("a,b,y\n" + body).encode("utf-8"))
        started = assert_every_job_count_loads_alike(path, label_column)
        # The stage, load_csv and load_matrix_csv at jobs 2, then at jobs 3.
        assert started == [2] * 3 + [3] * 3
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_io, "_MIN_WORKER_BYTES", TINY_WORKER_BYTES)
            assert (data_io._parse_json_blocks(path, 2) is not None) == served

    def test_the_fault_lies_in_the_last_range_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(("a,b,y\n" + self.CLEAN + "nan,2.0,1\n").encode("utf-8"))
        with open(path, "rb") as handle:
            handle.readline()
            begin = handle.tell()
            ranges = data_io._line_ranges(handle, begin, path.stat().st_size, 2)
        assert len(ranges) == 2
        text = path.read_bytes()
        assert b"nan" not in text[ranges[0][0]:ranges[0][1]]
        assert b"nan" in text[ranges[1][0]:ranges[1][1]]

    def test_a_cut_on_a_line_end_keeps_the_line_whole(self, tmp_path):
        line = b"1.0,2.0,1\n"
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,y\n" + line * 4)
        begin, end = 6, 6 + 4 * len(line)
        with open(path, "rb") as handle:
            # The midpoint is the start of the third line.
            assert data_io._line_ranges(handle, begin, end, 2) == [
                (begin, begin + 2 * len(line), 0, 2),
                (begin + 2 * len(line), end, 2, 2),
            ]
            # Just past it, the cut moves on to the next line start.
            assert data_io._line_ranges(handle, begin, end + 2, 2)[0][1] == (
                begin + 3 * len(line)
            )
        assert_every_job_count_loads_alike(path, "y")

    @pytest.mark.parametrize("lines", [1, 2])
    def test_more_workers_than_lines(self, tmp_path, lines):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,y\n" + b"1.0,2.0,1\n" * (lines - 1) + b"3.0,4.0,0")
        with open(path, "rb") as handle:
            handle.readline()
            ranges = data_io._line_ranges(handle, 6, path.stat().st_size, 3)
        assert [rows for *_, rows in ranges] == [1] * lines
        started = assert_every_job_count_loads_alike(path, "y")
        assert started == ([] if lines == 1 else [2] * 6)


# Doubles from arbitrary 64-bit patterns (mostly far outside [1e-3, 1e15),
# where each cell is printed by repr), patterns whose exponent lies in that
# band (printed by orjson), and hypothesis' own floats (boundaries, integers,
# short decimals).
BIT_PATTERNS = st.integers(0, 2**64 - 1)
IN_BAND_PATTERNS = st.builds(
    lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
    st.integers(0, 1), st.integers(1013, 1072), st.integers(0, 2**52 - 1),
)
FLOAT_PATTERNS = st.floats().map(
    lambda x: int(np.array(x, dtype=np.float64).view(np.uint64))
)
DOUBLE_PATTERNS = st.one_of(BIT_PATTERNS, IN_BAND_PATTERNS, FLOAT_PATTERNS)

# The cells where orjson's notation changes, their neighbours, and the
# extremes; every one of them, and its negation, must print like repr.
BOUNDARY_CELLS = [0.0, 5e-324, 1e308, np.nan, np.inf] + [
    np.nextafter(edge, toward)
    for edge in (1e-4, 1e-3, 1e15, 1e16)
    for toward in (0.0, edge, np.inf)
]


@st.composite
def written_datasets(draw, min_rows=0):
    rows = draw(st.integers(min_rows, 6))
    cols = draw(st.integers(0, 5))
    bits = draw(st.lists(DOUBLE_PATTERNS, min_size=rows * cols, max_size=rows * cols))
    targets = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows, max_size=rows))
    names = draw(st.lists(
        st.from_regex(r"[a-x][a-z0-9_]{0,4}", fullmatch=True),
        min_size=cols, max_size=cols, unique=True,
    ))
    features = np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)
    return Dataset(features, np.array(targets), tuple(names))


class TestStreamedWrite:
    @pytest.mark.parametrize("n", [0, 1, 999, 1000, 1001, 2501])
    def test_bytes_match_the_whole_text_writer(self, tmp_path, rng, n):
        features = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        if n:
            features[0] = [-0.0, np.nan, np.inf]
        data = Dataset(features, (rng.random(n) < 0.5).astype(float), ("p", "q", "r"))
        path = tmp_path / "out.csv"
        write_csv(path, data, label_name="label")
        assert path.read_bytes() == reference_csv_text(data, "label").encode("utf-8")

    @pytest.mark.parametrize("m", [0, 1, 4])
    @pytest.mark.parametrize("n", [1, 999, 1000, 1001])
    def test_blocks_of_any_width_match_the_whole_text_writer(self, tmp_path, rng, n, m):
        # Magnitudes on both sides of [1e-3, 1e15), stored column-major so
        # each block is a strided view of the matrix.
        features = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-6, 18, (n, m))
        data = Dataset(np.asfortranarray(features), (rng.random(n) < 0.5).astype(float))
        path = tmp_path / "out.csv"
        write_csv(path, data)
        assert path.read_bytes() == reference_csv_text(data).encode("utf-8")

    def test_boundary_cells_print_like_repr(self, tmp_path):
        cells = np.array(BOUNDARY_CELLS + [-x for x in BOUNDARY_CELLS])
        blocks = [cells[None, :], cells[:, None]]  # one row; one column
        for features in blocks:
            data = Dataset(features, np.ones(features.shape[0]))
            path = tmp_path / "out.csv"
            write_csv(path, data)
            assert path.read_bytes() == reference_csv_text(data).encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(data=written_datasets())
    def test_arbitrary_doubles_match_the_whole_text_writer(self, data):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "out.csv"
            write_csv(path, data)
            assert path.read_bytes() == reference_csv_text(data).encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(data=written_datasets(min_rows=1))  # no rows is a DataError
    def test_write_then_load_gives_the_same_dataset(self, data):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "out.csv"
            write_csv(path, data, label_name="y")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = load_csv(path, "y")
        nan = np.isnan(data.features)
        # repr writes every NaN as "nan", so a NaN's sign and payload are
        # not kept; every other cell must come back bit for bit.
        assert np.array_equal(np.isnan(loaded.features), nan)
        assert bits(np.where(nan, 0.0, loaded.features)) == bits(
            np.where(nan, 0.0, data.features)
        )
        assert loaded.features.shape == data.features.shape
        assert bits(loaded.targets) == bits(data.targets)
        assert loaded.feature_names == data.feature_names

    def test_featureless_dataset_writes_labels_only(self, tmp_path):
        data = Dataset(np.empty((2, 0)), np.array([1.0, -0.0]))
        path = tmp_path / "out.csv"
        write_csv(path, data)
        assert path.read_bytes() == reference_csv_text(data).encode("utf-8")
