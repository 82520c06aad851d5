"""CSV handling, normalization, splits, and synthetic benchmarks."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from conftest import count_pools, deadline, no_cell_parse, traced_peak

from ecnn import (
    DataError,
    Dataset,
    load_csv,
    load_matrix_csv,
    normalize,
    split_odd_even,
    split_train_test,
    synth_dataset,
    write_csv,
)
from ecnn.cli import run

import ecnn.data_io as data_io


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_reads_features_and_labels_by_name(self, tmp_path):
        path = write_text(tmp_path / "d.csv",
                          "a,b,y\n1.5,2.0,1\n-0.5,3.25,0\n")
        data = load_csv(path, label_column="y")
        np.testing.assert_array_equal(data.features, [[1.5, 2.0], [-0.5, 3.25]])
        np.testing.assert_array_equal(data.targets, [1.0, 0.0])
        assert data.feature_names == ("a", "b")

    def test_reads_label_by_index(self, tmp_path):
        path = write_text(tmp_path / "d.csv",
                          "y,a,b\n0,1.0,2.0\n1,3.0,4.0\n")
        data = load_csv(path, label_column=0)
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(data.targets, [0.0, 1.0])

    def test_unknown_label_column_raises(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b\n1,0\n2,1\n")
        with pytest.raises(DataError, match="no column named 'missing'"):
            load_csv(path, label_column="missing")

    def test_the_dataset_holds_the_arrays_the_load_made(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b,y\n1.5,2.0,1\n-0.5,3.25,0\n")
        data = load_csv(path, label_column="y")
        for array in (data.features, data.targets):
            assert not array.flags.writeable and array.flags.owndata

    def test_non_numeric_cell_raises_with_location(self, tmp_path):
        path = write_text(tmp_path / "d.csv",
                          "a,b,y\n1.0,2.0,1\n1.0,oops,0\n")
        with pytest.raises(DataError, match=r"non-numeric value 'oops' at row 2"):
            load_csv(path, label_column="y")

    def test_non_binary_label_raises(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b,y\n1.0,2.0,0.5\n1.0,3.0,0\n")
        with pytest.raises(DataError, match="label must be 0 or 1"):
            load_csv(path, label_column="y")

    @pytest.mark.parametrize("label", ["y", "nope"])
    def test_ragged_row_raises(self, tmp_path, label):
        # Before a wrong label, too.
        path = write_text(tmp_path / "d.csv", "a,b,y\n1.0,2.0,1\n1.0,2.0\n")
        with pytest.raises(DataError, match="row 2 has 2 cells, header has 3"):
            load_csv(path, label_column=label)

    def test_empty_file_raises(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, label_column="y")

    def test_header_only_raises(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b,y\n")
        with pytest.raises(DataError, match="no examples"):
            load_csv(path, label_column="y")

    def test_missing_file_raises_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", label_column="y")

    @pytest.mark.parametrize("load", [
        lambda path: load_csv(path, label_column="y"),
        load_matrix_csv,
    ])
    def test_non_utf8_bytes_raise_data_error(self, tmp_path, load):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,y\n1.0,\xff\xfe,1\n")
        with pytest.raises(DataError, match="not valid UTF-8"):
            load(path)

    @pytest.mark.parametrize("load", [
        lambda path: load_csv(path, label_column="y"),
        load_matrix_csv,
    ])
    def test_malformed_csv_raises_data_error(self, tmp_path, load):
        # one field beyond the csv module's field size limit
        path = write_text(tmp_path / "d.csv", 'a,b,y\n"' + "1" * 200_000 + '",2,1\n')
        with pytest.raises(DataError, match="malformed CSV"):
            load(path)

    def test_peak_memory_stays_near_the_loaded_dataset(self, tmp_path):
        # The parsed table and the feature columns cut from it are the
        # most that is alive at once: the Dataset takes the cut as is.
        gen = np.random.default_rng(3)
        data = Dataset(gen.standard_normal((2000, 30)),
                       (gen.random(2000) < 0.5).astype(float))
        path = tmp_path / "d.csv"
        write_csv(path, data)
        loaded, peak = traced_peak(lambda: load_csv(path, label_column="y"))
        kept = loaded.features.nbytes + loaded.targets.nbytes
        assert peak <= 2.5 * kept

    @pytest.mark.parametrize("load", [
        lambda path: load_csv(path, "y", features=[3, 17]),
        lambda path: load_matrix_csv(path, features=[3, 17]),
    ], ids=["load_csv", "load_matrix_csv"])
    def test_a_column_load_builds_no_whole_table(self, tmp_path, load):
        # A third of the whole (20000, 31) float table: a load that
        # converted every column, even for a moment, would pass it.
        data, _ = synth_dataset(n=20000, m=30, relevant=(3,), noise_sigma=0.5, seed=2)
        path = tmp_path / "d.csv"
        write_csv(path, data)
        _, peak = traced_peak(lambda: load(path))
        assert peak < 20000 * 31 * 8 / 3


class TestLoadMatrixCsv:
    @pytest.mark.parametrize("features", [None, [0]], ids=["whole", "column"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_non_finite_cell_is_refused(self, tmp_path, monkeypatch, jobs, features):
        monkeypatch.setattr(data_io, "_MIN_WORKER_BYTES", 8)
        path = write_text(tmp_path / "d.csv", "a,b\n1.0,nan\n2.0,3.0\n")
        message = "^invalid features: non-finite feature value at row 1, column 1$"
        with deadline(60), pytest.raises(DataError, match=message):
            load_matrix_csv(path, jobs=jobs, features=features)


class TestSplitLoad:
    """``load_csv(..., jobs)`` with the first stage on forked workers."""

    def test_a_dead_worker_raises_instead_of_hanging(self, tmp_path, monkeypatch):
        path = write_text(tmp_path / "d.csv", "a,b,y\n" + "1.0,2.0,1\n" * 8)
        parent = os.getpid()

        def dying_parse(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("a range was parsed in the calling process")

        monkeypatch.setattr(data_io, "_MIN_WORKER_BYTES", 8)
        monkeypatch.setattr(data_io, "_parse_range", dying_parse)
        with deadline(60), pytest.raises(BrokenProcessPool):
            load_csv(path, "y", jobs=2)

    def test_no_pool_outside_linux(self, tmp_path, monkeypatch):
        path = write_text(tmp_path / "d.csv", "a,b,y\n" + "1.0,-2.5e-3,1\n3,4,0\n" * 8)
        monkeypatch.setattr(data_io, "_MIN_WORKER_BYTES", 8)
        one = load_csv(path, "y", jobs=1)
        monkeypatch.setattr(sys, "platform", "darwin")
        started = count_pools(monkeypatch)
        two = load_csv(path, "y", jobs=2)
        assert started == []
        assert two.features.tobytes() == one.features.tobytes()
        assert two.targets.tobytes() == one.targets.tobytes()
        assert two.feature_names == one.feature_names

    @pytest.mark.parametrize("load", [
        lambda path, jobs: load_csv(path, "y", jobs=jobs),
        lambda path, jobs: load_matrix_csv(path, jobs=jobs),
    ], ids=["load_csv", "load_matrix_csv"])
    def test_jobs_must_be_positive(self, tmp_path, load):
        path = write_text(tmp_path / "d.csv", "a,b,y\n1.0,2.0,1\n")
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            load(path, 0)

    @pytest.mark.parametrize("load", [
        "load_csv(sys.argv[1], 'y', jobs=int(sys.argv[2]))",
        "load_matrix_csv(sys.argv[1], jobs=int(sys.argv[2]))",
    ], ids=["load_csv", "load_matrix_csv"])
    def test_two_workers_add_no_table_sized_memory(self, tmp_path, load):
        # 14000 x 73 cells are about 20 MB of text, above two workers' floor.
        # The workers write the table in place into a shared mapping; a copy
        # out of it would add its 8 MB to load_matrix_csv's peak.
        # tracemalloc cannot see an mmap, so each load runs in a fresh
        # process that reports its peak RSS.  That is VmHWM, not ru_maxrss:
        # Linux keeps in ru_maxrss the peak of the process image an exec
        # replaced, here the test process's own.
        data, _ = synth_dataset(n=14000, m=72, relevant=(3,), noise_sigma=0.5, seed=2)
        path = tmp_path / "d.csv"
        write_csv(path, data)
        assert path.stat().st_size >= 2 * data_io._MIN_WORKER_BYTES
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("needs Linux's /proc/self/status")
        script = (
            "import re, sys\n"
            "from ecnn import load_csv, load_matrix_csv\n"
            f"{load}\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        peak_kb = {
            jobs: int(subprocess.run(
                [sys.executable, "-c", script, str(path), str(jobs)], env=env,
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout)
            for jobs in (1, 2)
        }
        assert peak_kb[2] <= peak_kb[1] + 5 * 1024


def quote_names(text):
    """A CSV text with every header name quoted, as R's ``write.csv(...,
    row.names = FALSE)`` writes it; the numbers stay bare."""
    header, body = text.split(b"\n", 1)
    return b",".join(b'"%b"' % name for name in header.split(b",")) + b"\n" + body


class TestParseStages:
    """Which parse of ``_load_table`` serves a file: bench and CLI inputs
    must stay on the first (orjson) stage, ahead of the per-cell parse."""

    @pytest.mark.parametrize("rewrite", [
        lambda text: text,
        lambda text: text.rstrip(b"\n"),
        lambda text: text.replace(b"\n", b"\r\n"),
        quote_names,
        lambda text: text.replace(b",", b", \t").replace(b"\n", b" \n"),
    ], ids=["as-written", "no-final-line-end", "crlf", "quoted-header", "padded-cells"])
    def test_written_files_are_served_by_the_first_stage(
        self, tmp_path, monkeypatch, rewrite
    ):
        gen = np.random.default_rng(11)
        features = gen.standard_normal((3000, 6)) * 10.0 ** gen.integers(-8, 20, (3000, 6))
        features[0] = [-0.0, 0.0, 5e-324, -1e-300, 1e16, 123456789.0]
        data = Dataset(features, (gen.random(3000) < 0.5).astype(float))
        path = tmp_path / "d.csv"
        write_csv(path, data)
        path.write_bytes(rewrite(path.read_bytes()))
        monkeypatch.setattr(data_io, "_parse_cells", no_cell_parse)
        loaded = load_csv(path, label_column="y")
        assert loaded.features.view(np.uint64).tolist() == data.features.view(np.uint64).tolist()
        assert loaded.targets.tolist() == data.targets.tolist()
        matrix, names = load_matrix_csv(path)
        assert matrix.shape == (3000, 7)
        assert names[-1] == "y"

    def test_synth_files_are_served_by_the_first_stage(self, tmp_path, monkeypatch):
        path = tmp_path / "synth.csv"
        assert run([
            "synth", "--n", "2000", "--m", "9", "--relevant", "1,4", "--seed", "5",
            "--out", str(path),
        ]) == 0
        data, _ = synth_dataset(n=2000, m=9, relevant=(1, 4), noise_sigma=0.5, seed=5)
        monkeypatch.setattr(data_io, "_parse_cells", no_cell_parse)
        loaded = load_csv(path, label_column="y")
        assert loaded.features.view(np.uint64).tolist() == data.features.view(np.uint64).tolist()
        assert loaded.targets.tolist() == data.targets.tolist()

    @pytest.mark.parametrize("body, features, targets, cell_parses", [
        # A -0 label reads as 0, so the first stage serves load_csv; as a
        # matrix cell it is -0.0, which that stage cannot vouch for.
        ("1.0,2.0,-0\n", [[1.0, 2.0]], [0.0], 0),
        ("-0,2.0,1\n", [[-0.0, 2.0]], [1.0], 1),
        (".5,2.0,1\n", [[0.5, 2.0]], [1.0], 1),
    ])
    def test_negative_zero_and_bare_point_fall_through(
        self, tmp_path, monkeypatch, body, features, targets, cell_parses
    ):
        path = write_text(tmp_path / "d.csv", "a,b,y\n" + body)
        calls = []
        cells = data_io._parse_cells

        def spy(path, label_column):
            calls.append(path)
            return cells(path, label_column)

        monkeypatch.setattr(data_io, "_parse_cells", spy)
        assert data_io._parse_json_blocks(path) is None
        loaded = load_csv(path, label_column="y")
        assert calls == [path] * cell_parses
        want = np.array(features)
        assert loaded.features.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert np.array(targets).view(np.uint64).tolist() == loaded.targets.view(np.uint64).tolist()

    @pytest.mark.parametrize("features", [None, [1]], ids=["whole", "columns"])
    @pytest.mark.parametrize("label, message", [
        ("nope", "no column named 'nope' in header ['a', 'b', 'y']"),
        (3, "label column index 3 out of range for 3 columns"),
        ("-1", "label column index -1 out of range for 3 columns"),
    ], ids=["name", "index-past-the-end", "negative-index"])
    def test_a_wrong_label_is_reported_by_the_first_stage(
        self, tmp_path, monkeypatch, features, label, message
    ):
        # The per-cell parse would read the whole file with csv first.
        path = write_text(tmp_path / "d.csv", "a,b,y\n1.0,-0,1\n3.0,-4.0,0\n")
        monkeypatch.setattr(data_io, "_parse_cells", no_cell_parse)
        with pytest.raises(DataError) as raised:
            load_csv(path, label, features=features)
        assert str(raised.value) == f"{path}: {message}"

    @pytest.mark.parametrize("features", [None, [1]], ids=["whole", "columns"])
    @pytest.mark.parametrize("header", ["y,b,y", "a,y,y"])
    def test_a_label_name_the_header_holds_twice_is_refused(
        self, tmp_path, monkeypatch, header, features
    ):
        # The first stage serves the clean file; the .5 cell sends the
        # other to the per-cell parse.  Neither guesses which y is meant.
        clean = write_text(tmp_path / "clean.csv", f"{header}\n0.0,1.0,1\n1.0,0.0,0\n")
        odd = write_text(tmp_path / "odd.csv", f"{header}\n.5,1.0,1\n1.0,0.0,0\n")
        messages = []
        for path in (clean, odd):
            with monkeypatch.context() as patch:
                if path == clean:
                    patch.setattr(data_io, "_parse_cells", no_cell_parse)
                with pytest.raises(DataError) as raised:
                    load_csv(path, "y", features=features)
            messages.append(str(raised.value).replace(str(path), "FILE"))
        want = f"FILE: label 'y' names two columns in {header.split(',')}"
        assert messages == [want, want]

    def test_a_label_given_by_index_still_loads_beside_a_repeated_name(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "y,b,y\n0.0,1.0,1\n1.0,0.0,0\n")
        data = load_csv(path, 2)
        assert data.feature_names == ("y", "b")
        assert data.targets.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("label", ["-0", "-0.0"])
    @pytest.mark.parametrize("stage", ["orjson", "per-cell"])
    def test_a_negative_zero_label_reads_as_zero(self, tmp_path, monkeypatch, stage, label):
        path = write_text(tmp_path / "d.csv", f"a,b,y\n1.0,2.0,{label}\n3.0,4.0,1\n")
        if stage == "orjson":
            monkeypatch.setattr(data_io, "_parse_cells", no_cell_parse)
        else:
            monkeypatch.setattr(data_io, "_parse_json_blocks", lambda *args: None)
        whole = load_csv(path, "y")
        _, column_targets, _ = load_csv(path, "y", features=[1])
        for targets in (whole.targets, column_targets):
            want = np.array([0.0, 1.0])
            assert targets.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestWriteCsv:
    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        data = Dataset(rng.standard_normal((20, 4)),
                       (rng.random(20) < 0.5).astype(float),
                       feature_names=("p", "q", "r", "s"))
        path = tmp_path / "out.csv"
        write_csv(path, data, label_name="y")
        back = load_csv(path, label_column="y")
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.targets, data.targets)
        assert back.feature_names == data.feature_names

    @pytest.mark.parametrize("name", ["a,b", '"hi" there', "line\nbreak", "cr\r, crlf\r\n."])
    def test_names_holding_csv_syntax_round_trip(self, tmp_path, name):
        data = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]), (name, "plain"))
        path = tmp_path / "out.csv"
        write_csv(path, data, label_name=name + "y")
        assert load_csv(path, label_column=name + "y").feature_names == (name, "plain")

    @pytest.mark.parametrize("names, label, bad", [
        ((" a", "b"), "y", " a"),
        (("a", "b "), "y", "b "),
        (("a", "b\r\n"), "y", "b\r\n"),
        (("a", "b"), "y ", "y "),
        (("a ", " b"), "y", "a "),
    ], ids=["leading-space", "trailing-space", "trailing-crlf", "label", "first-named"])
    def test_names_load_csv_would_strip_are_refused(self, tmp_path, names, label, bad):
        data = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]), names)
        message = f"^column name {re.escape(repr(bad))} has whitespace that load_csv strips$"
        with pytest.raises(ValueError, match=message):
            write_csv(tmp_path / "out.csv", data, label_name=label)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("names, label", [
        (("y", "b"), "y"),
        (("a", "label"), "label"),
        (None, "x1"),
    ], ids=["default-label", "named-label", "generated-name"])
    def test_a_feature_named_as_the_label_is_refused(self, tmp_path, names, label):
        # load_csv could not tell the label from that feature.
        data = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]), names)
        message = f"^feature name {re.escape(repr(label))} is also the label's name$"
        with pytest.raises(ValueError, match=message):
            write_csv(tmp_path / "out.csv", data, label_name=label)
        assert list(tmp_path.iterdir()) == []

    def test_hand_written_padded_names_still_load(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a, b, y\n1,2,0\n", encoding="utf-8")
        assert load_csv(path, label_column="y").feature_names == ("a", "b")

    def test_default_names_are_generated(self, tmp_path):
        data = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
        path = tmp_path / "out.csv"
        write_csv(path, data, label_name="label")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "x0,x1,label"

    def test_labels_are_written_as_integers(self, tmp_path):
        data = Dataset(np.array([[0.5, 1.5]]), np.array([1.0]))
        path = tmp_path / "out.csv"
        write_csv(path, data, label_name="y")
        assert path.read_text(encoding="utf-8").splitlines()[1].endswith(",1")


class TestNormalize:
    def test_two_point_column_maps_to_unit_spread(self):
        data = Dataset(np.array([[0.0, 10.0], [2.0, 20.0]]), np.array([0.0, 1.0]))
        scaled, stats = normalize(data)
        expected = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            scaled.features,
            [[-expected, -expected], [expected, expected]],
            atol=1e-12,
        )
        np.testing.assert_allclose(stats.mean, [1.0, 15.0], atol=1e-12)

    def test_constant_column_zeroes_and_is_listed_in_the_stats(self):
        # Tier-1 turns warnings into errors, so this also checks that
        # normalize reports the column only through its stats.
        data = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                       np.array([0.0, 1.0, 0.0]))
        scaled, stats = normalize(data)
        np.testing.assert_array_equal(scaled.features[:, 0], [0.0, 0.0, 0.0])
        assert stats.constant_columns == (0,)

    def test_transform_reapplies_exactly(self, rng):
        raw = rng.standard_normal((30, 3)) * 4.0 + 2.0
        data = Dataset(raw, (rng.random(30) < 0.5).astype(float))
        scaled, stats = normalize(data)
        np.testing.assert_array_equal(stats.transform(raw), scaled.features)

    def test_the_normalized_set_holds_its_transform_and_the_same_targets(self, rng):
        data = Dataset(rng.standard_normal((10, 2)), (rng.random(10) < 0.5).astype(float))
        scaled, _ = normalize(data)
        assert scaled.targets is data.targets
        assert not scaled.features.flags.writeable and scaled.features.flags.owndata

    def test_single_example_raises(self):
        data = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
        with pytest.raises(DataError, match="two examples"):
            normalize(data)

    def test_mean_and_spread_use_sample_statistics(self, rng):
        raw = rng.standard_normal((50, 2))
        data = Dataset(raw, (rng.random(50) < 0.5).astype(float))
        _, stats = normalize(data)
        np.testing.assert_allclose(stats.std, raw.std(axis=0, ddof=1), atol=1e-12)


class TestSplitOddEven:
    def test_even_count_splits_in_half(self):
        data = Dataset(np.arange(2244 * 2, dtype=float).reshape(2244, 2),
                       np.zeros(2244))
        split = split_odd_even(data)
        assert (split.rows.n, split.n_b) == (2244, 1122)

    def test_odd_count_gives_first_set_the_extra(self):
        data = Dataset(np.arange(10, dtype=float).reshape(5, 2), np.zeros(5))
        split = split_odd_even(data)
        assert (split.rows.n, split.n_b) == (5, 2)

    def test_two_examples_split_one_each(self):
        data = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0]))
        split = split_odd_even(data)
        assert (split.rows.n, split.n_b) == (2, 1)

    def test_single_example_raises(self):
        data = Dataset(np.array([[1.0, 2.0]]), np.array([0.0]))
        with pytest.raises(DataError, match="two examples"):
            split_odd_even(data)

    def test_a_target_other_than_0_or_1_raises_at_its_row(self):
        # No such Dataset reaches the split: its constructor refuses it.
        with pytest.raises(DataError,
                           match="^invalid dataset: non-binary target at row 3$"):
            Dataset(np.zeros((4, 1)), np.array([0.0, 1.0, 0.5, 1.0]))

    def test_sets_partition_the_source_in_order(self):
        n = 9
        data = Dataset(np.arange(n * 2, dtype=float).reshape(n, 2),
                       np.arange(n, dtype=float) % 2)
        split = split_odd_even(data)
        assert split.n_b == 4
        np.testing.assert_array_equal(split.rows.features[:, 0],
                                      [2, 6, 10, 14, 0, 4, 8, 12, 16])
        np.testing.assert_array_equal(split.rows.features[:4], data.features[1::2])
        np.testing.assert_array_equal(split.rows.features[4:], data.features[::2])
        np.testing.assert_array_equal(split.rows.targets[:4], data.targets[1::2])
        np.testing.assert_array_equal(split.rows.targets[4:], data.targets[::2])


class TestSplitTrainTest:
    def test_benchmark_proportions(self):
        data = Dataset(np.zeros((3454, 2)), np.zeros(3454))
        train, test = split_train_test(data, 0.3503, np.random.default_rng(0))
        assert test.n == 1210
        assert train.n == 2244

    def test_half_split(self):
        data = Dataset(np.zeros((10, 2)), np.zeros(10))
        train, test = split_train_test(data, 0.5, np.random.default_rng(0))
        assert (train.n, test.n) == (5, 5)

    def test_same_rng_state_reproduces_the_split(self):
        data = Dataset(np.random.default_rng(3).standard_normal((40, 2)),
                       np.zeros(40))
        a = split_train_test(data, 0.25, np.random.default_rng(7))
        b = split_train_test(data, 0.25, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_sides_partition_the_source(self):
        n = 24
        ids = np.arange(n, dtype=float)
        data = Dataset(np.column_stack([ids, ids]), np.zeros(n))
        train, test = split_train_test(data, 0.25, np.random.default_rng(5))
        seen = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert sorted(seen.tolist()) == ids.tolist()

    def test_each_side_preserves_source_order(self):
        n = 16
        ids = np.arange(n, dtype=float)
        data = Dataset(np.column_stack([ids, ids]), np.zeros(n))
        train, test = split_train_test(data, 0.5, np.random.default_rng(11))
        assert train.features[:, 0].tolist() == sorted(train.features[:, 0])
        assert test.features[:, 0].tolist() == sorted(test.features[:, 0])

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_outside_open_interval_raises(self, fraction):
        data = Dataset(np.zeros((10, 2)), np.zeros(10))
        with pytest.raises(DataError, match="fraction"):
            split_train_test(data, fraction, np.random.default_rng(0))

    def test_fraction_emptying_a_side_raises(self):
        data = Dataset(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(DataError, match="empty"):
            split_train_test(data, 0.01, np.random.default_rng(0))


class TestSynthDataset:
    def test_same_seed_is_identical(self):
        a, ta = synth_dataset(n=100, m=6, relevant=(1, 4), noise_sigma=0.5, seed=9)
        b, tb = synth_dataset(n=100, m=6, relevant=(1, 4), noise_sigma=0.5, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert ta == tb

    def test_noiseless_labels_match_the_stated_rule(self):
        data, truth = synth_dataset(n=200, m=5, relevant=(0, 2), noise_sigma=0.0,
                                    seed=4)
        scores = data.features[:, list(truth.relevant)] @ np.asarray(truth.weights)
        np.testing.assert_array_equal(data.targets,
                                      (scores > truth.threshold).astype(float))

    def test_default_prevalence_is_balanced(self):
        data, _ = synth_dataset(n=2000, m=4, relevant=(0,), noise_sigma=0.5, seed=2)
        assert abs(data.targets.mean() - 0.5) < 0.02

    def test_prevalence_is_honored(self):
        data, truth = synth_dataset(n=2000, m=4, relevant=(0,), noise_sigma=0.5,
                                    seed=2, prevalence=0.2)
        assert abs(data.targets.mean() - 0.2) < 0.02
        assert truth.prevalence == 0.2

    def test_weights_have_unit_scale_magnitudes(self):
        _, truth = synth_dataset(n=50, m=8, relevant=(0, 3, 7), noise_sigma=0.1,
                                 seed=6)
        magnitudes = np.abs(truth.weights)
        assert np.all((magnitudes >= 0.5) & (magnitudes <= 1.5))

    def test_feature_names_are_sequential(self):
        data, _ = synth_dataset(n=10, m=3, relevant=(0,), noise_sigma=0.1, seed=1)
        assert data.feature_names == ("x0", "x1", "x2")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=3, relevant=(0,), noise_sigma=0.1, seed=1),
            dict(n=10, m=1, relevant=(0,), noise_sigma=0.1, seed=1),
            dict(n=10, m=3, relevant=(), noise_sigma=0.1, seed=1),
            dict(n=10, m=3, relevant=(0, 0), noise_sigma=0.1, seed=1),
            dict(n=10, m=3, relevant=(3,), noise_sigma=0.1, seed=1),
            dict(n=10, m=3, relevant=(-1,), noise_sigma=0.1, seed=1),
            dict(n=10, m=3, relevant=(0,), noise_sigma=-0.1, seed=1),
            dict(n=10, m=3, relevant=(0,), noise_sigma=0.1, seed=1, prevalence=0.0),
            dict(n=10, m=3, relevant=(0,), noise_sigma=0.1, seed=1, prevalence=1.0),
            dict(n=10, m=3, relevant=(0,), noise_sigma=float("nan"), seed=1),
            dict(n=10, m=3, relevant=(0,), noise_sigma=float("inf"), seed=1),
        ],
    )
    def test_invalid_arguments_raise(self, kwargs):
        with pytest.raises(ValueError):
            synth_dataset(**kwargs)
