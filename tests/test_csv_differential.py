"""The CSV loaders and writer against plain per-cell reference versions.

``load_csv`` and ``load_matrix_csv`` parse the table in C by orjson, and
fall back to a per-cell parse only when that stage cannot vouch for the
file.  The reference below is the per-cell parser on its own; on every
generated text both must return the same float bits and names, or raise
a ``DataError`` with the same message.  The writer and the ``predict``
scores table are held to the bytes of writers that print one ``repr``
per cell.
"""

from __future__ import annotations

import csv
import decimal
import io
import math
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_pools, deadline, no_cell_parse

from ecnn import (
    DataError,
    Dataset,
    load_csv,
    load_matrix_csv,
    write_csv,
)
from ecnn.domain import require_finite_features
from ecnn.data_io import _parse_json_blocks, format_scores

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
    require_finite_features(values)
    return values, tuple(header)


def reference_load_csv(path, label_column):
    header, body = reference_rows(path)
    if isinstance(label_column, str) and label_column in header:
        # A label name must pick one column; a header that holds it twice
        # is refused, not resolved to its first match.
        if header.count(label_column) > 1:
            raise DataError(f"{path}: label {label_column!r} names two columns in {header}")
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
                targets[i] = abs(value)
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
# Numbers float() reads but the orjson stage refuses.
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
FIRST_STAGE_PADDING = st.sampled_from(["", "", "", " ", "\t", " \t  "])
NAME_QUOTES = st.sampled_from(["", '"'])


@st.composite
def first_stage_texts(draw):
    """A headed CSV whose body holds JSON numbers only, each maybe padded
    with spaces and tabs, under names that may be quoted, with one line
    end throughout and up to two blank lines at the end: the files the
    first parse stage serves."""
    width = draw(st.integers(1, 4))
    names = [f"c{j}" for j in range(width - 1)] + ["y"]
    lines = [",".join(f"{quote}{name}{quote}" for name, quote in zip(
        names, draw(st.lists(NAME_QUOTES, min_size=width, max_size=width))
    ))]
    for _ in range(draw(st.integers(1, 6))):
        cells = draw(st.lists(FIRST_STAGE_CELLS, min_size=width - 1, max_size=width - 1))
        cells.append(draw(FIRST_STAGE_LABELS))
        lines.append(",".join(
            draw(FIRST_STAGE_PADDING) + cell + draw(FIRST_STAGE_PADDING) for cell in cells
        ))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from([end, ""]))
    if tail:
        tail += end * draw(st.integers(0, 2))
    return end.join(lines) + tail


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
        "1 2,2.0,1\n",
        "- 1,2.0,1\n",
        "1e 5,2.0,1\n",
        "1.0, ,1\n",
        "1.0,2.0,1\n   \n3.0,4.0,0\n",
        "1.0,2.0,1\r \n",
        '"1.0",2.0,1\n',
        "1.0,2.0,1\n\n3.0,4.0,0\n",
        "1.0,2.0,1\n\n3.0,4.0,0\n\n",
        "\n\n",
        "\r\n\r\n",
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
        "a,b,y\n1.0, 2.0,1\n",
        "a,b,y\n1.0,2.0 ,1\n",
        "a,b,y\n\t1.0,2.0\t, 1 \r\n-3.0 ,  4.0,0\r\n",
        '"x0","x1","y"\n1.5,-2,1\n3,4e-3,0\n',
        '"a"" q", b ,y\n1.0,2.0,1\n',
        "a,b,y\n1.0,2.0,1\n3.0,4.0,0\n\n",
        "a,b,y\r\n1.0,2.0,1\r\n3.0,4.0,0\r\n\r\n",
        "a,b,y\n1.0,2.0,1\n3.0,4.0,0\n\r\n",
        "a,b,y\n1.0,2.0,1\n3.0,4.0,0\n\n\n",
        "a,b,y\n1.0,2.0,1\r\n3.0,4.0,0\n",
        "a,b,y\n1.0,2.0,1\r\n3.0,4.0,0\n\n",
        "a,b,y\n1.0,2.0,1\n3.0,4.0,0\r\n",
    ], ids=[
        "space-before", "space-after", "tabs-and-crlf", "r-style", "escaped-quote",
        "blank-lf-end", "blank-crlf-end", "blank-crlf-after-lf", "two-blank-lf-end",
        "crlf-then-lf", "crlf-then-lf-blank-end", "lf-then-crlf",
    ])
    @pytest.mark.parametrize("label_column", ["y", 2])
    def test_forms_the_first_stage_serves(self, tmp_path, monkeypatch, text, label_column):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _parse_json_blocks(path) is not None
        monkeypatch.setattr(data_io, "_parse_cells", no_cell_parse)
        assert_loaders_match(path, label_column)

    @pytest.mark.parametrize("blank_lines, served", [
        (1, True), (data_io._READ_BLOCK_BYTES, False),
    ])
    def test_blank_lines_closing_a_long_body(self, tmp_path, blank_lines, served):
        # Only the body's last block is searched for them.
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,y\n" + b"1.0,2.0,1\n" * 8000 + b"\n" * blank_lines)
        assert (_parse_json_blocks(path) is not None) == served
        assert_loaders_match(path, "y")

    @pytest.mark.parametrize("text", [
        'a"b,"c,y\n1.0,2.0,1\n',
        # A rule that counted quotes would serve this as a table of a"b and c.
        'a"b,"c\n1.0,1\n',
    ])
    @pytest.mark.parametrize("label_column", ["y", 1])
    def test_a_quoted_name_open_at_the_line_end_is_refused(
        self, tmp_path, text, label_column
    ):
        # csv ends the line inside a quoted field although the line holds
        # an even number of quotes; the whole-file reader runs on.
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
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
        (CLEAN.replace("\n", "\r\n") + CLEAN, True),
        (CLEAN + CLEAN.replace("\n", "\r\n"), True),
        (CLEAN.replace("\n", "\r\n") * 2, True),
        (CLEAN + "-0,2.0,1\n", False),
        (CLEAN + "-0.0,2.0,1\n", True),
        (CLEAN + "3.0,4.0,0", True),
        (CLEAN + "3.0,4.0", False),
        (CLEAN + "\n3.0,4.0,0\n", False),
        (CLEAN + "\n\n", True),
        (CLEAN + "3.0,4.0\r,0\n", False),
        (CLEAN + "3.0,4.0,0\r", True),
    ], ids=[
        "nan-last", "bare-point-last", "overflow-last", "crlf-then-lf",
        "lf-then-crlf", "crlf-throughout", "integer-minus-zero-last",
        "float-minus-zero-last", "unterminated-last-line", "short-last-line",
        "blank-line-late", "blank-lines-at-the-end", "lone-cr-inside",
        "lone-cr-at-the-end",
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


# -- cutting the body into ranges --------------------------------------------


def reference_line_start(handle, offset, end):
    """The first line start at or after ``offset`` (> 0), or ``end``."""
    handle.seek(offset - 1)
    while chunk := handle.read(data_io._READ_BLOCK_BYTES):
        found = chunk.find(b"\n")
        if found >= 0:
            return min(offset + found, end)
        offset += len(chunk)
    return end


def reference_line_ranges(handle, begin, end, parts):
    """The cuts sought one by one, then each range read again to count
    its rows."""
    cuts = [begin]
    for part in range(1, parts):
        target = begin + (end - begin) * part // parts
        cut = reference_line_start(handle, max(target, cuts[-1] + 1), end)
        if cut == end:
            break
        cuts.append(cut)
    cuts.append(end)
    ranges = []
    first = 0
    for start, stop in zip(cuts, cuts[1:]):
        handle.seek(start)
        rows, size, last = 0, stop - start, b"\n"
        while size > 0 and (chunk := handle.read(min(size, data_io._READ_BLOCK_BYTES))):
            rows += chunk.count(b"\n")
            size -= len(chunk)
            last = chunk[-1:]
        rows += last != b"\n"
        ranges.append((start, stop, first, rows))
        first += rows
    return ranges


class CountingReader(io.BytesIO):
    """Bytes in memory that count what ``read`` hands out."""

    bytes_read = 0

    def read(self, size=-1):
        chunk = super().read(size)
        self.bytes_read += len(chunk)
        return chunk


@st.composite
def bodies(draw):
    """A text of short lines ended by LF or CRLF, the last maybe without
    its end, and a ``[begin, end)`` inside it."""
    lines = draw(st.lists(st.binary(max_size=12).map(lambda line: line.replace(b"\n", b"")),
                          max_size=10))
    line_end = draw(st.sampled_from([b"\n", b"\r\n"]))
    text = b"".join(line + line_end for line in lines)
    if draw(st.booleans()):
        text = text.removesuffix(line_end)
    begin = draw(st.integers(0, len(text)))
    return text, begin, draw(st.integers(begin, len(text)))


class TestLineRanges:
    """``_line_ranges`` reads the body once and cuts it where the cuts
    sought one by one fall."""

    @settings(max_examples=300, deadline=None)
    @given(body=bodies(), parts=st.integers(1, 5), block=st.sampled_from([8, 64, 1 << 16]))
    def test_same_ranges_as_the_cuts_sought_one_by_one(self, body, parts, block):
        text, begin, end = body
        with pytest.MonkeyPatch.context() as patch:
            # Blocks of 8 and 64 bytes put cuts and line ends on block edges.
            patch.setattr(data_io, "_READ_BLOCK_BYTES", block)
            handle = CountingReader(text)
            got = data_io._line_ranges(handle, begin, end, parts)
            assert got == reference_line_ranges(io.BytesIO(text), begin, end, parts)
        assert handle.bytes_read == end - begin

    def test_every_body_byte_is_read_once(self):
        # 200 kB of body: several blocks of the shipped size per range.
        text = b"a,b,y\n" + b"1.0,2.0,1\n" * 20000
        handle = CountingReader(text)
        ranges = data_io._line_ranges(handle, 6, len(text), 4)
        assert [(start, rows) for start, _, _, rows in ranges] == [
            (6 + 50000 * k, 5000) for k in range(4)
        ]
        assert handle.bytes_read == len(text) - 6


# -- the column load ---------------------------------------------------------


def select_columns(matrix, columns):
    """``matrix``'s ``columns`` in that order; NaN for one it lacks."""
    kept = np.full((matrix.shape[0], len(columns)), np.nan)
    for slot, column in enumerate(columns):
        if column < matrix.shape[1]:
            kept[:, slot] = matrix[:, column]
    return kept


def reference_column_load_csv(path, label_column, features):
    """The whole-file reference load, checked whole by its Dataset, then
    its columns, its targets and its names."""
    data = reference_load_csv(path, label_column)
    return select_columns(data.features, features), data.targets, data.feature_names


def reference_column_load_matrix_csv(path, features):
    values, names = reference_load_matrix_csv(path)
    return select_columns(values, features), names


def assert_same_column_load(got, want):
    assert_same_matrix(got[:1] + got[2:], want[:1] + want[2:])
    assert bits(got[1]) == bits(want[1])


def assert_column_loads_match(path, label_column, features, jobs=1):
    assert_same_outcome(
        outcome(load_csv, path, label_column, jobs, features),
        outcome(reference_column_load_csv, path, label_column, features),
        assert_same_column_load,
    )
    assert_same_outcome(
        outcome(load_matrix_csv, path, jobs, features),
        outcome(reference_column_load_matrix_csv, path, features),
        assert_same_matrix,
    )


# Feature indices past the generated files' widths are asked for too.
FEATURE_LISTS = st.lists(st.integers(0, 4), min_size=1, max_size=4)


class TestColumnLoadMatchesTheReference:
    """``features=`` converts some columns: the same bits as the whole
    reference load cut to them, or the same error, the whole file's."""

    @settings(max_examples=300, deadline=None)
    @given(text=first_stage_texts(), label_column=st.sampled_from(["y", 0, "c0"]),
           features=FEATURE_LISTS)
    def test_first_stage_texts(self, text, label_column, features):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert_column_loads_match(path, label_column, features)

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), label_column=LABEL_COLUMNS, features=FEATURE_LISTS)
    def test_general_texts(self, text, label_column, features):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            assert_column_loads_match(path, label_column, features)

    @pytest.mark.parametrize("text, features, served", [
        ("a,b,y\n1.0,-0,1\n3.0,4.0,0\n", [1], False),
        ("a,b,y\n1.0,-0,1\n3.0,4.0,0\n", [0], True),
        ("a,b,y\n1.0,2.0,-0\n3.0,4.0,1\n", [0, 1], True),
        ("a,b,y\n0.0,-0.0,1\n0e0,-0e0,0\n1.0,0,1\n", [1, 0], True),
        ("a,b,y\n-0.0,-0,1\n", [0], False),
        ("a,b,y\n1.0,2.0,1\n3.0,4.0\n", [0], False),
        ("a,b,y\n1.0,2.0,1\n3.0,4.0,0,5.0\n", [0], False),
        ("a,b,y\n1.0,nan,1\n", [0], False),
        ("a,y,b,c\n1.5,1,-2.5,0.0\n-1e-3,0,4e5,-0.0\n", [2, 0], True),
        ("a,y,b,c\n1.5,1,-2.5,-0\n", [1], True),
        ("a,y,b,c\n1.5,1,-2.5,-0\n", [2], False),
        ("a,b,y\n1.0,2.0,1\n", [0, 5], True),
    ], ids=[
        "integer-minus-zero-kept", "integer-minus-zero-dropped",
        "integer-minus-zero-label", "kept-zeros-keep-their-signs",
        "one-block-both-zeros", "short-row", "long-row", "nan-dropped",
        "label-in-the-middle", "label-in-the-middle-minus-zero-dropped",
        "label-in-the-middle-minus-zero-kept", "feature-past-the-width",
    ])
    def test_fixed_cases(self, tmp_path, monkeypatch, text, features, served):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        stage = _parse_json_blocks(path, 1, "y", features)
        assert (stage is not None) == served
        if served:
            monkeypatch.setattr(data_io, "_parse_cells", no_cell_parse)
        assert_column_loads_match(path, "y", features)

    @pytest.mark.parametrize("body", [
        TestSplitStageMatchesOneWorker.CLEAN + "3.0,-0,1\n",
        TestSplitStageMatchesOneWorker.CLEAN + "-0,0.0,1\n",
        TestSplitStageMatchesOneWorker.CLEAN + "3.0,4.0,-0\n",
        TestSplitStageMatchesOneWorker.CLEAN + "nan,2.0,1\n",
        TestSplitStageMatchesOneWorker.CLEAN + "3.0,4.0,2\n",
        TestSplitStageMatchesOneWorker.CLEAN + "3.0,4.0\n",
    ], ids=["minus-zero-kept", "minus-zero-dropped", "minus-zero-label",
            "nan-dropped", "non-binary-label", "short-row"])
    def test_split_over_workers(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_bytes(("a,b,y\n" + body).encode("utf-8"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_io, "_MIN_WORKER_BYTES", TINY_WORKER_BYTES)
            started = count_pools(patch)
            with deadline(60):
                for jobs in (1, 2, 3):
                    assert_column_loads_match(path, "y", [1], jobs)
        assert started == [2] * 2 + [3] * 2


# -- one screen per block ---------------------------------------------------

# The bytes a body may hold for the first stage.
SCREEN_ALPHABET = b"0123456789.+,\n\r-eE \t"
# Cells orjson parses, holding the bytes outside the alphabet that orjson
# accepts: " [ ] { } : t f n.
JSON_CELLS = [b'"1"', b"[1]", b'{"k":1}', b"true", b"false", b"null"]


def reaches_orjson(path, monkeypatch):
    """The first stage's result on ``path`` (jobs 1), and whether it handed
    orjson a block."""
    blocks = []

    def loads(text):
        blocks.append(text)
        return orjson.loads(text)

    with monkeypatch.context() as patch:
        patch.setattr(data_io, "orjson", SimpleNamespace(loads=loads))
        parsed = _parse_json_blocks(path)
    return parsed, bool(blocks)


class TestTheScreen:
    """Each block's bytes are screened in one pass, before orjson parses
    it; its CRs are checked only where there are some, and the field
    limit only in a block longer than it."""

    def test_every_byte_outside_the_alphabet_is_refused_first(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "d.csv"
        for value in range(256):
            path.write_bytes(b"a,b,y\n1.0,2" + bytes([value]) + b",1\n3.0,4.0,0\n")
            parsed, parsed_by_orjson = reaches_orjson(path, monkeypatch)
            assert parsed_by_orjson == (value in SCREEN_ALPHABET), value
            if value not in SCREEN_ALPHABET:
                assert parsed is None, value

    @pytest.mark.parametrize("cell", JSON_CELLS, ids=lambda cell: cell.decode())
    def test_json_that_orjson_accepts_is_refused(self, tmp_path, monkeypatch, cell):
        line = b"1.0," + cell + b",1"
        assert len(orjson.loads(b"[[" + line + b"]]")[0]) == 3
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,y\n" + line + b"\n")
        assert reaches_orjson(path, monkeypatch) == (None, False)
        assert_loaders_match(path, "y")

    @pytest.mark.parametrize("first, later", [("\r\n", "\n"), ("\n", "\r\n")],
                             ids=["crlf-then-lf", "lf-then-crlf"])
    def test_line_ends_that_change_between_blocks_are_served(
        self, tmp_path, monkeypatch, first, later
    ):
        monkeypatch.setattr(data_io, "_READ_BLOCK_BYTES", 8)
        body = ("1.0,2.0,1" + first) * 3 + ("3.0,4.0,0" + later) * 3
        path = tmp_path / "d.csv"
        path.write_bytes(("a,b,y\n" + body).encode("utf-8"))
        with open(path, "rb") as handle:
            handle.readline()
            blocks = list(data_io._line_blocks(handle, len(body)))
        # Each block on its own ends its lines alike.
        assert len(blocks) > 1
        assert all(block.count(b"\r") in (0, block.count(b"\n")) for block in blocks)
        header, table, _ = _parse_json_blocks(path, 1)
        want = data_io._parse_cells(path, None)
        assert (header, bits(table)) == (want[0], bits(want[1]))
        assert_loaders_match(path, "y")
        # A lone CR in a later block sends the file to the per-cell parse.
        path.write_bytes(("a,b,y\n" + body + "5.0,6.0\r,1" + later).encode("utf-8"))
        assert _parse_json_blocks(path, 1) is None
        assert_loaders_match(path, "y")

    def test_an_integer_minus_zero_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_io, "_READ_BLOCK_BYTES", 8)
        path = tmp_path / "d.csv"
        body = TestSplitStageMatchesOneWorker.CLEAN + "3.0,-0,1\n"
        path.write_bytes(("a,b,y\n" + body).encode("utf-8"))
        assert _parse_json_blocks(path, 1, "y", [1]) is None
        assert _parse_json_blocks(path, 1) is None
        # Dropped, the -0 never reaches the table.
        assert _parse_json_blocks(path, 1, "y", [0]) is not None
        assert_column_loads_match(path, "y", [1])
        assert_loaders_match(path, "y")

    @pytest.mark.parametrize("length, served", [(131072, True), (131073, False)])
    def test_a_cell_at_the_csv_field_limit(self, tmp_path, length, served):
        assert csv.field_size_limit() == 131072
        cell = "0." + "0" * (length - 3) + "1"
        path = tmp_path / "d.csv"
        path.write_bytes(f"a,b,y\n{cell},2.0,1\n3.0,4.0,0\n".encode("utf-8"))
        assert (_parse_json_blocks(path) is not None) == served
        want = outcome(reference_load_csv, path, "y")
        if not served:
            assert want[1].endswith("malformed CSV: field larger than field limit (131072)")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_io, "_MIN_WORKER_BYTES", TINY_WORKER_BYTES)
            for jobs in (1, 2):
                assert_same_outcome(
                    outcome(load_csv, path, "y", jobs), want, assert_same_dataset
                )
                assert_same_outcome(
                    outcome(load_matrix_csv, path, jobs),
                    outcome(reference_load_matrix_csv, path),
                    assert_same_matrix,
                )


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

# Finite doubles, as a Dataset holds them.
FINITE_PATTERNS = DOUBLE_PATTERNS.filter(
    lambda pattern: np.isfinite(np.uint64(pattern).view(np.float64))
)

# The cells where orjson's notation changes, their neighbours, and the
# extremes; every one of them, and its negation, must print like repr.
BOUNDARY_CELLS = [0.0, 5e-324, 1e308, np.finfo(float).max] + [
    np.nextafter(edge, toward)
    for edge in (1e-4, 1e-3, 1e15, 1e16)
    for toward in (0.0, edge, np.inf)
]


@st.composite
def written_datasets(draw, min_rows=0):
    rows = draw(st.integers(min_rows, 6))
    cols = draw(st.integers(0, 5))
    bits = draw(st.lists(FINITE_PATTERNS, min_size=rows * cols, max_size=rows * cols))
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
            features[0] = [-0.0, 5e-324, -np.finfo(float).max]
        data = Dataset(features, (rng.random(n) < 0.5).astype(float), ("p", "q", "r"))
        path = tmp_path / "out.csv"
        write_csv(path, data, label_name="label")
        assert path.read_bytes() == reference_csv_text(data, "label").encode("utf-8")

    @pytest.mark.parametrize("m", [0, 1, 4])
    @pytest.mark.parametrize("n", [1, 999, 1000, 1001])
    def test_blocks_of_any_width_match_the_whole_text_writer(self, tmp_path, rng, n, m):
        # Magnitudes on both sides of [1e-3, 1e15).
        features = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-6, 18, (n, m))
        data = Dataset(features, (rng.random(n) < 0.5).astype(float))
        path = tmp_path / "out.csv"
        write_csv(path, data)
        assert path.read_bytes() == reference_csv_text(data).encode("utf-8")
        # A Dataset is C-ordered, so write_csv never hands the row printer
        # a strided block; the printer still takes one, such as a block of
        # a column-major matrix.
        strided = np.asfortranarray(features)[:data_io._WRITE_BLOCK_ROWS]
        assert data_io._float_rows(strided) == [
            ",".join(repr(float(v)) for v in row).encode("ascii") for row in strided
        ]

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
        assert_same_dataset(loaded, data)

    def test_featureless_dataset_writes_labels_only(self, tmp_path):
        data = Dataset(np.empty((2, 0)), np.array([1.0, -0.0]))
        path = tmp_path / "out.csv"
        write_csv(path, data)
        assert path.read_bytes() == reference_csv_text(data).encode("utf-8")


def reference_scores(outputs, labels):
    """The ``predict`` table printed one row at a time."""
    return "index,output,label\n" + b"".join(
        b"%d,%s,%d\n" % (i, repr(x).encode("ascii"), label)
        for i, (x, label) in enumerate(zip(outputs.tolist(), labels.tolist()))
    ).decode("ascii")


@st.composite
def scored_rows(draw):
    """Outputs from arbitrary doubles and their labels: int 0/1, bool, or
    int 0/1 with one other integer."""
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 30)))
    patterns = draw(st.lists(DOUBLE_PATTERNS, min_size=n, max_size=n))
    outputs = np.array(patterns, dtype=np.uint64).view(np.float64)
    labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["int", "bool", "other"]))
    if kind != "bool":
        labels = labels.astype(int)
    if kind == "other" and n:
        other = draw(st.integers(-(2**62), 2**62).filter(lambda v: v not in (0, 1)))
        labels[draw(st.integers(0, n - 1))] = other
    return outputs, labels


class TestScoresTable:
    @settings(max_examples=300, deadline=None)
    @given(rows=scored_rows())
    @example(rows=(np.array([]), np.array([], dtype=int)))
    @example(rows=(np.array([-0.0]), np.array([True])))
    @example(rows=(np.array([0.5, np.nan, -1e300]), np.array([0, 2, 1])))
    def test_matches_the_per_row_table(self, rows):
        outputs, labels = rows
        assert format_scores(outputs, labels) == reference_scores(outputs, labels)
