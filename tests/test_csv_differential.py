"""The CSV loaders and writer against plain per-cell reference versions.

``load_csv`` and ``load_matrix_csv`` parse the table in C and fall back to
a per-cell parse only when that cannot vouch for the file.  The reference
below is the per-cell parser on its own; on every generated text both must
return the same float bits and names, or raise a ``DataError`` with the
same message.
"""

from __future__ import annotations

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecnn import DataError, Dataset, load_csv, load_matrix_csv, write_csv


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

    def test_featureless_dataset_writes_labels_only(self, tmp_path):
        data = Dataset(np.empty((2, 0)), np.array([1.0, -0.0]))
        path = tmp_path / "out.csv"
        write_csv(path, data)
        assert path.read_bytes() == reference_csv_text(data).encode("utf-8")
