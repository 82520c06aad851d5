"""Command-line behavior: outputs, formats, and exit codes."""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import errno
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    WRONGLY_TYPED_MODEL_FIELDS,
    build_cascade,
    count_pools,
    deadline,
    no_pool,
    traced_peak,
    write_wrongly_typed_model,
)

from ecnn import (
    CascadeModel,
    Dataset,
    EcnnError,
    Feature,
    NeuronSpec,
    TrainConfig,
    forward_batch,
    load_csv,
    load_model,
    save_model,
    synth_dataset,
    write_csv,
)
from ecnn.domain import FeatureStats
from ecnn.model_io import model_to_payload
from ecnn.cli import OUT_DIR_ENV, build_parser, run

import ecnn
import ecnn.cli
import ecnn.data_io
import ecnn.evolve

USABLE_CPUS = ecnn.cli._usable_cpus()
needs_two_cpus = pytest.mark.skipif(
    USABLE_CPUS < 2, reason="--jobs 2 needs two usable CPUs"
)
FULL = Path("/dev/full")
needs_dev_full = pytest.mark.skipif(not FULL.exists(), reason="no /dev/full here")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_m(cwd, *argv, stdout=subprocess.PIPE):
    """``python -W error -m *argv`` on this checkout's sources, run in ``cwd``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", *argv], cwd=cwd, stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.fixture
def train_csv(tmp_path):
    data, _ = synth_dataset(n=120, m=3, relevant=(0,), noise_sigma=0.3, seed=5)
    path = tmp_path / "train.csv"
    write_csv(path, data)
    return path


@pytest.fixture
def saved_model(tmp_path):
    """Single-neuron model scoring sigmoid(10 * x1); x0 is ignored."""
    model = build_cascade([np.array([0.0, 0.0, 10.0])], candidate_features=[1])
    path = tmp_path / "m.ecnn"
    save_model(path, model, TrainConfig())
    return path


class TestSynth:
    def test_writes_dataset_and_truth_sidecar(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = invoke(
            capsys, "synth", "--n", "50", "--m", "4", "--relevant", "0,2",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        truth = json.loads((tmp_path / "bench.truth.json").read_text())
        assert truth["relevant"] == [0, 2]
        assert truth["n"] == 50
        assert "positives:" in stdout

    def test_same_seed_writes_identical_files(self, tmp_path, capsys):
        args = ["synth", "--n", "40", "--m", "3", "--relevant", "1", "--seed", "9"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert invoke(capsys, *args, "--out", str(a))[0] == 0
        assert invoke(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_integer_relevant_is_a_usage_error(self, tmp_path, capsys):
        code, _, stderr = invoke(
            capsys, "synth", "--n", "10", "--m", "3", "--relevant", "a,b",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "usage error" in stderr

    def test_out_of_range_relevant_is_a_usage_error(self, tmp_path, capsys):
        code, _, stderr = invoke(
            capsys, "synth", "--n", "10", "--m", "3", "--relevant", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "usage error" in stderr

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_a_usage_error_and_writes_nothing(
        self, tmp_path, capsys, noise
    ):
        code, stdout, stderr = invoke(
            capsys, "synth", "--n", "10", "--m", "3", "--relevant", "0",
            "--noise", noise, "--out", str(tmp_path / "out" / "x.csv"),
        )
        assert (code, stdout, stderr) == (
            1, "", f"usage error: noise_sigma must be finite and >= 0, got {noise}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_default_output_honors_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "routed"))
        code, _, _ = invoke(capsys, "synth", "--n", "10", "--m", "3",
                            "--relevant", "0")
        assert code == 0
        assert (tmp_path / "routed" / "synth.csv").exists()
        assert (tmp_path / "routed" / "synth.truth.json").exists()


def train_parser():
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return commands.choices["train"]


class TestTrain:
    def test_every_config_field_is_one_flag_and_a_model_file_key(self, saved_model):
        dests = [action.dest for action in train_parser()._actions]
        saved_keys = model_to_payload(*load_model(saved_model))["config"].keys()
        for field in dataclasses.fields(TrainConfig):
            assert dests.count(field.name) == 1, field.name
            assert field.name in saved_keys

    def test_help_names_the_threshold_flag(self, capsys):
        with pytest.raises(SystemExit):
            run(["train", "--help"])
        assert "--threshold THRESHOLD" in capsys.readouterr().out

    def test_missing_data_flag_is_a_usage_error(self, capsys):
        code, _, stderr = invoke(capsys, "train", "--label", "y")
        assert code == 1
        assert "usage error" in stderr

    def test_trains_and_writes_model_and_summary(self, tmp_path, train_csv, capsys):
        out = tmp_path / "fit" / "model.ecnn"
        code, stdout, _ = invoke(
            capsys, "train", "--data", str(train_csv), "--label", "y",
            "--runs", "3", "--seed", "11", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        summary = out.with_name("model.runs.csv")
        lines = summary.read_text().splitlines()
        assert lines[0] == "run,seed,size,train_error_pct,test_error_pct,features,status"
        assert len(lines) == 4
        assert all(line.endswith("ok") for line in lines[1:])
        assert "runs completed: 3 of 3" in stdout
        assert "best run:" in stdout
        assert "model file:" in stdout

    def test_identical_invocations_write_identical_bytes(self, tmp_path,
                                                         train_csv, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name / "model.ecnn"
            code, _, _ = invoke(
                capsys, "train", "--data", str(train_csv), "--label", "y",
                "--runs", "4", "--seed", "2", "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (outs[0].with_name("model.runs.csv").read_bytes()
                == outs[1].with_name("model.runs.csv").read_bytes())

    def test_a_label_name_the_header_holds_twice_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("y,b,y\n" + "0.0,1.0,1\n1.0,0.0,0\n" * 4, encoding="utf-8")
        code, stdout, stderr = invoke(
            capsys, "train", "--data", str(data), "--label", "y", "--runs", "1",
            "--out", str(tmp_path / "m.ecnn"),
        )
        assert (code, stdout) == (2, "")
        assert "label 'y' names two columns" in stderr
        assert not (tmp_path / "m.ecnn").exists()

    def test_holdout_fraction_reports_a_test_error(self, tmp_path, train_csv,
                                                   capsys):
        code, stdout, _ = invoke(
            capsys, "train", "--data", str(train_csv), "--label", "y",
            "--runs", "2", "--test-fraction", "0.25",
            "--out", str(tmp_path / "m.ecnn"),
        )
        assert code == 0
        test_line = next(l for l in stdout.splitlines() if l.startswith("test error"))
        assert test_line != "test error: n/a"

    def test_no_holdout_reports_not_available(self, tmp_path, train_csv, capsys):
        code, stdout, _ = invoke(
            capsys, "train", "--data", str(train_csv), "--label", "y",
            "--runs", "1", "--out", str(tmp_path / "m.ecnn"),
        )
        assert code == 0
        assert "test error: n/a" in stdout

    @pytest.mark.parametrize(
        "flags",
        [
            ("--runs", "0"),
            ("--test-fraction", "1.0"),
            ("--chi", "-1.0"),
            ("--threshold", "1.5"),
            ("--chi", "inf"),
            ("--delta", "inf"),
            ("--init-sigma", "nan"),
            ("--init-sigma", "inf"),
        ],
    )
    def test_invalid_values_are_usage_errors(self, tmp_path, train_csv, capsys,
                                             flags):
        code, _, stderr = invoke(
            capsys, "train", "--data", str(train_csv), "--label", "y",
            *flags, "--out", str(tmp_path / "m.ecnn"),
        )
        assert code == 1
        assert "usage error" in stderr

    @pytest.mark.parametrize("jobs", ["0", "-1", str(USABLE_CPUS + 1)])
    def test_out_of_range_jobs_is_a_usage_error_before_any_work(
        self, tmp_path, train_csv, capsys, monkeypatch, jobs
    ):
        def no_load(*args):
            raise AssertionError("the data was loaded")

        monkeypatch.setattr(ecnn.cli, "load_csv", no_load)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, _, stderr = invoke(
            capsys, "train", "--data", str(train_csv), "--label", "y",
            "--jobs", jobs, "--out", str(tmp_path / "m.ecnn"),
        )
        assert code == 1
        assert stderr.startswith("usage error: --jobs must be in [1, ")

    @needs_two_cpus
    def test_every_job_count_writes_the_same_bytes(self, tmp_path, capsys,
                                                   monkeypatch):
        data, _ = synth_dataset(n=300, m=6, relevant=(1, 4), noise_sigma=0.5, seed=8)
        path = tmp_path / "data.csv"
        write_csv(path, data)
        out = tmp_path / "model.ecnn"
        argv = ["train", "--data", str(path), "--label", "y", "--runs", "5",
                "--seed", "4", "--test-fraction", "0.3", "--out", str(out)]
        outputs = []
        for jobs in ("1", "2"):
            with monkeypatch.context() as patch:
                if jobs == "1":
                    patch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
                code, stdout, _ = invoke(capsys, *argv, "--jobs", jobs)
            assert code == 0
            outputs.append((stdout, out.read_bytes(),
                            out.with_name("model.runs.csv").read_bytes()))
        assert outputs[1] == outputs[0]

    def test_train_holds_its_data_about_once(self, tmp_path):
        # Loaded, split, raw and normalized copies of the feature matrix
        # all alive during the restarts came to about 5 times it.
        n, m = 50000, 8
        data, _ = synth_dataset(n=n, m=m, relevant=(1, 4, 6), noise_sigma=0.5, seed=3)
        path = tmp_path / "data.csv"
        write_csv(path, data)
        del data
        code, peak = traced_peak(lambda: run([
            "train", "--data", str(path), "--label", "y", "--runs", "1",
            "--jobs", "1", "--test-fraction", "0.3", "--max-fit-steps", "2",
            "--out", str(tmp_path / "m.ecnn"),
        ]))
        assert code == 0
        assert peak <= 3 * n * m * 8

    def test_constant_column_is_noted_on_stderr(self, tmp_path, capsys):
        data, _ = synth_dataset(n=60, m=3, relevant=(0,), noise_sigma=0.3, seed=5)
        features = np.array(data.features)
        features[:, 2] = 7.0
        path = tmp_path / "const.csv"
        write_csv(path, type(data)(features, data.targets, data.feature_names))
        code, _, stderr = invoke(
            capsys, "train", "--data", str(path), "--label", "y",
            "--runs", "1", "--out", str(tmp_path / "m.ecnn"),
        )
        assert code == 0
        assert stderr == "note: zero-variance feature columns mapped to 0: [2]\n"

    def test_missing_data_file_is_a_data_error(self, tmp_path, capsys):
        code, _, stderr = invoke(
            capsys, "train", "--data", str(tmp_path / "absent.csv"),
            "--label", "y", "--out", str(tmp_path / "m.ecnn"),
        )
        assert code == 2
        assert "data error" in stderr


class TestPredict:
    def data_csv(self, tmp_path, rows, header="x0,x1"):
        path = tmp_path / "points.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_scores_unlabeled_rows(self, tmp_path, saved_model, capsys):
        data = self.data_csv(tmp_path, ["0.0,-1.0", "0.0,1.0"])
        code, stdout, _ = invoke(
            capsys, "predict", "--model", str(saved_model), "--data", str(data)
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "index,output,label"
        assert len(lines) == 3
        index, output, label = lines[1].split(",")
        assert (index, label) == ("0", "0")
        assert float(output) == pytest.approx(1.0 / (1.0 + np.exp(10.0)))
        assert lines[2].split(",")[2] == "1"

    def test_label_column_is_dropped_when_named(self, tmp_path, saved_model,
                                                capsys):
        data = self.data_csv(tmp_path, ["0.0,1.0,1", "0.0,-1.0,0"],
                             header="x0,x1,y")
        code, stdout, _ = invoke(
            capsys, "predict", "--model", str(saved_model), "--data", str(data),
            "--label", "y",
        )
        assert code == 0
        assert [l.split(",")[2] for l in stdout.splitlines()[1:]] == ["1", "0"]

    def test_threshold_flag_overrides_the_models(self, tmp_path, saved_model,
                                                 capsys):
        data = self.data_csv(tmp_path, ["0.0,-1.0"])
        code, stdout, _ = invoke(
            capsys, "predict", "--model", str(saved_model), "--data", str(data),
            "--threshold", "0.00001",
        )
        assert code == 0
        assert stdout.splitlines()[1].split(",")[2] == "1"

    def test_out_flag_writes_a_file(self, tmp_path, saved_model, capsys):
        data = self.data_csv(tmp_path, ["0.0,1.0"])
        out = tmp_path / "scores.csv"
        code, stdout, _ = invoke(
            capsys, "predict", "--model", str(saved_model), "--data", str(data),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("index,output,label\n")
        assert "predictions:" in stdout

    def test_scores_print_like_repr_down_to_saturated_outputs(
        self, tmp_path, saved_model, capsys
    ):
        x1 = [-300.0, -10.0, -1.0, -0.69, -0.3, 0.0, 0.3, 3.0, 300.0]
        data = self.data_csv(tmp_path, [f"0.0,{v!r}" for v in x1])
        out = tmp_path / "scores.csv"
        code, _, _ = invoke(
            capsys, "predict", "--model", str(saved_model), "--data", str(data),
            "--out", str(out),
        )
        assert code == 0
        model, config = load_model(saved_model)
        _, outputs = forward_batch(model, np.column_stack([np.zeros(9), x1]))
        threshold = config.classification_threshold
        want = "index,output,label\n" + "".join(
            f"{i},{value!r},{int(value >= threshold)}\n"
            for i, value in enumerate(outputs.tolist())
        )
        assert out.read_text(encoding="utf-8") == want
        assert min(outputs) < 1e-3 and "e-" in want  # the repr route ran

    def test_width_mismatch_against_stored_statistics_is_a_data_error(
        self, tmp_path, capsys
    ):
        model = build_cascade(
            [np.array([0.0, 1.0, -1.0])],
            candidate_features=[1],
            stats=FeatureStats(np.zeros(2), np.ones(2)),
        )
        path = tmp_path / "m.ecnn"
        save_model(path, model, TrainConfig())
        data = self.data_csv(tmp_path, ["0.0,1.0,2.0"], header="x0,x1,x2")
        code, _, stderr = invoke(
            capsys, "predict", "--model", str(path), "--data", str(data)
        )
        assert code == 2
        assert "feature count mismatch" in stderr

    @pytest.mark.parametrize("command, width", [
        (["predict"], 6), (["predict", "--label", "f"], 5), (["eval", "--label", "f"], 5),
    ], ids=["predict", "predict-label", "eval"])
    def test_a_named_model_without_statistics_refuses_wider_rows(
        self, tmp_path, capsys, command, width
    ):
        # The names check is skipped when the widths differ; the width is not.
        model = build_cascade([np.array([0.0, 1.0, -1.0])], candidate_features=[1],
                              feature_names=("x0", "x1", "x2", "x3"))
        path = tmp_path / "m.ecnn"
        save_model(path, model, TrainConfig())
        data = self.data_csv(tmp_path, ["0,1,2,3,4,1", "1,2,3,4,5,0"], header="a,b,c,d,e,f")
        got = invoke(capsys, *command, "--model", str(path), "--data", str(data))
        assert got == (
            2, "", f"data error: model reads 4 feature columns, data has {width}\n"
        )

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_non_finite_feature_is_a_data_error(self, tmp_path, saved_model,
                                                capsys, cell, labeled):
        if labeled:
            data = self.data_csv(tmp_path, ["0.0,1.0,1", f"0.0,{cell},0"],
                                 header="x0,x1,y")
            label = ["--label", "y"]
        else:
            data = self.data_csv(tmp_path, ["0.0,1.0", f"0.0,{cell}"])
            label = []
        out = tmp_path / "scores.csv"
        code, stdout, stderr = invoke(
            capsys, "predict", "--model", str(saved_model), "--data", str(data),
            "--out", str(out), *label,
        )
        assert code == 2
        assert "non-finite feature value at row 2, column 1" in stderr
        assert not out.exists() and stdout == ""

    def test_non_finite_message_matches_eval(self, tmp_path, saved_model, capsys):
        data = self.data_csv(tmp_path, ["0.0,1.0,1", "nan,1.0,0"], header="x0,x1,y")
        common = ["--model", str(saved_model), "--data", str(data), "--label", "y"]
        predicted = invoke(capsys, "predict", *common)
        evaluated = invoke(capsys, "eval", *common)
        assert predicted[0] == evaluated[0] == 2
        assert predicted[2] == evaluated[2]

    def test_unreadable_model_is_a_data_error(self, tmp_path, capsys):
        data = self.data_csv(tmp_path, ["0.0,1.0"])
        code, _, stderr = invoke(
            capsys, "predict", "--model", str(tmp_path / "no.ecnn"),
            "--data", str(data),
        )
        assert code == 2
        assert "data error" in stderr

    @pytest.mark.parametrize("field, value", WRONGLY_TYPED_MODEL_FIELDS, ids=repr)
    def test_a_wrongly_typed_model_field_is_a_data_error(
        self, tmp_path, capsys, field, value
    ):
        model = write_wrongly_typed_model(tmp_path / "m.ecnn", field, value)
        data = self.data_csv(tmp_path, ["0.0,1.0"])
        code, stdout, stderr = invoke(
            capsys, "predict", "--model", str(model), "--data", str(data)
        )
        assert code == 2
        assert "data error: invalid model content" in stderr and stdout == ""


class TestEval:
    def test_perfect_model_scores_100(self, tmp_path, saved_model, capsys):
        rows = ["0.0,-2.0,0", "0.0,-1.0,0", "0.0,1.0,1", "0.0,2.0,1"]
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code, stdout, _ = invoke(
            capsys, "eval", "--model", str(saved_model), "--data", str(data),
            "--label", "y",
        )
        assert code == 0
        assert "error rate: 0.00%" in stdout
        assert "accuracy: 100.00%" in stdout
        assert "confusion: tp=2 fn=0 fp=0 tn=2" in stdout

    def test_runs_the_forward_pass_once(self, tmp_path, saved_model, capsys,
                                        monkeypatch):
        calls = []
        original = ecnn.cli.forward_batch

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ecnn.cli, "forward_batch", counted)
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,y\n0.0,-2.0,1\n0.0,2.0,1\n", encoding="utf-8")
        code, stdout, _ = invoke(
            capsys, "eval", "--model", str(saved_model), "--data", str(data),
            "--label", "y",
        )
        assert code == 0
        assert "error rate: 50.00%" in stdout
        assert "confusion: tp=1 fn=1 fp=0 tn=0" in stdout
        assert len(calls) == 1

    def test_error_rate_is_rounded_to_two_places(self, tmp_path, capsys):
        model = build_cascade([np.array([50.0, 0.0, 0.0])], candidate_features=[1])
        path = tmp_path / "ones.ecnn"
        save_model(path, model, TrainConfig())
        lines = ["x0,x1,y"]
        lines += ["0.0,0.0,1"] * 1170
        lines += ["0.0,0.0,0"] * 40
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, _ = invoke(
            capsys, "eval", "--model", str(path), "--data", str(data),
            "--label", "y",
        )
        assert code == 0
        assert "examples: 1210" in stdout
        assert "error rate: 3.31%" in stdout
        assert "accuracy: 96.69%" in stdout

    def test_non_utf8_data_is_a_data_error(self, tmp_path, saved_model, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"x0,x1,y\n0.0,\xff\xfe,1\n0.0,1.0,0\n")
        code, _, stderr = invoke(
            capsys, "eval", "--model", str(saved_model), "--data", str(data),
            "--label", "y",
        )
        assert code == 2
        assert "data error" in stderr and "not valid UTF-8" in stderr

    def test_non_binary_label_is_a_data_error(self, tmp_path, saved_model, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,y\n0.0,1.0,2\n0.0,1.0,0\n", encoding="utf-8")
        code, _, stderr = invoke(
            capsys, "eval", "--model", str(saved_model), "--data", str(data),
            "--label", "y",
        )
        assert code == 2
        assert "data error" in stderr


class TestColumnNames:
    """A file as wide as the model must name its columns as the model
    does: the same data with its columns reversed is refused, not scored."""

    @pytest.fixture
    def trained(self, tmp_path, capsys, train_csv):
        model = tmp_path / "m.ecnn"
        code, _, _ = invoke(
            capsys, "train", "--data", str(train_csv), "--label", "y",
            "--runs", "2", "--jobs", "1", "--out", str(model),
        )
        assert code == 0
        return model

    @pytest.mark.parametrize("command", [["predict", "--label", "y"],
                                         ["eval", "--label", "y"]],
                             ids=["predict", "eval"])
    def test_reversed_columns_exit_2_and_write_nothing(
        self, tmp_path, capsys, train_csv, trained, command
    ):
        data = load_csv(train_csv, "y")
        reversed_csv = tmp_path / "reversed.csv"
        write_csv(reversed_csv, Dataset(
            data.features[:, ::-1], data.targets, data.feature_names[::-1]
        ))
        scores = tmp_path / "scores.csv"
        out = ["--out", str(scores)] if command[0] == "predict" else []
        code, stdout, stderr = invoke(
            capsys, *command, "--model", str(trained), "--data", str(reversed_csv), *out
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            "data error: feature column 0 is 'x2' in the data but 'x0' in the model\n"
        )
        assert not scores.exists()

    def test_the_same_names_in_another_label_place_score_alike(
        self, tmp_path, capsys, train_csv, trained
    ):
        # The label column is not a feature, so where it stands is free.
        lines = train_csv.read_text(encoding="utf-8").splitlines()
        moved = tmp_path / "moved.csv"
        moved.write_text("".join(
            ",".join([line.rsplit(",", 1)[1], line.rsplit(",", 1)[0]]) + "\n"
            for line in lines
        ), encoding="utf-8")
        results = [
            invoke(capsys, "eval", "--model", str(trained), "--data", str(path),
                   "--label", "y")
            for path in (train_csv, moved)
        ]
        assert results[0][0] == 0 and results[0] == results[1]


class TestLoaderWorkers:
    """The CLI's CSV loads on forked workers: predict and eval pass the
    usable CPUs, train its --jobs."""

    @pytest.fixture
    def scored_files(self, tmp_path, capsys):
        data, _ = synth_dataset(n=400, m=6, relevant=(1, 4), noise_sigma=0.5, seed=8)
        labeled = tmp_path / "data.csv"
        write_csv(labeled, data)
        unlabeled = tmp_path / "features.csv"
        unlabeled.write_text("".join(
            line.rsplit(",", 1)[0] + "\n"
            for line in labeled.read_text(encoding="utf-8").splitlines()
        ), encoding="utf-8")
        model = tmp_path / "model.ecnn"
        code, _, _ = invoke(
            capsys, "train", "--data", str(labeled), "--label", "y", "--runs", "2",
            "--jobs", "1", "--seed", "3", "--out", str(model),
        )
        assert code == 0
        return model, labeled, unlabeled

    @needs_two_cpus
    def test_one_or_two_workers_give_the_same_bytes(self, tmp_path, capsys,
                                                    monkeypatch, scored_files):
        model, labeled, unlabeled = scored_files
        monkeypatch.setattr(ecnn.data_io, "_MIN_WORKER_BYTES", 256)
        started = count_pools(monkeypatch)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(ecnn.cli, "_usable_cpus", lambda: cpus)
            got = []
            for argv in (
                ["predict", "--data", str(labeled), "--label", "y"],
                ["predict", "--data", str(unlabeled)],
                ["eval", "--data", str(labeled), "--label", "y"],
            ):
                scores = tmp_path / "scores.csv"
                out = ["--out", str(scores)] if argv[0] == "predict" else []
                code, stdout, _ = invoke(capsys, *argv, "--model", str(model), *out)
                assert code == 0
                got.append((stdout, scores.read_bytes() if out else None))
                scores.unlink(missing_ok=True)
            outputs.append(got)
        assert started == [2, 2, 2]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("n, m, relevant", [
        (2857, 72, "10,23,36,60"), (40000, 8, "1,4,6"),
    ], ids=["train-wide-input", "train-tall-input"])
    def test_train_inputs_below_the_worker_floor_start_no_pool(
        self, tmp_path, capsys, monkeypatch, n, m, relevant
    ):
        data = tmp_path / "data.csv"
        assert invoke(capsys, "synth", "--n", str(n), "--m", str(m), "--relevant",
                      relevant, "--seed", "1", "--out", str(data))[0] == 0
        assert data.stat().st_size < 2 * ecnn.data_io._MIN_WORKER_BYTES
        monkeypatch.setattr(ecnn.cli, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, _, stderr = invoke(
            capsys, "train", "--data", str(data), "--label", "y", "--runs", "1",
            "--jobs", "4", "--max-fit-steps", "2", "--out", str(tmp_path / "m.ecnn"),
        )
        assert (code, stderr) == (0, "")

    def test_a_single_restart_parses_on_every_usable_cpu(
        self, tmp_path, capsys, monkeypatch, scored_files
    ):
        _, labeled, _ = scored_files
        monkeypatch.setattr(ecnn.data_io, "_MIN_WORKER_BYTES", 256)
        monkeypatch.setattr(ecnn.cli, "_usable_cpus", lambda: 2)
        outputs = []
        for jobs in ([], ["--jobs", "1"]):
            started = count_pools(monkeypatch)
            model = tmp_path / f"jobs-{len(jobs)}" / "m.ecnn"
            code, _, _ = invoke(
                capsys, "train", "--data", str(labeled), "--label", "y",
                "--runs", "1", "--seed", "3", *jobs, "--out", str(model),
            )
            assert code == 0
            summary = model.with_name("m.runs.csv")
            outputs.append((model.read_bytes(), summary.read_bytes()))
            assert started == ([2] if not jobs else [])
        assert outputs[1] == outputs[0]

    def test_a_dead_worker_maps_to_exit_3(self, tmp_path, capsys, monkeypatch,
                                          scored_files):
        model, labeled, _ = scored_files
        parent = os.getpid()

        def dying_parse(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("a range was parsed in the calling process")

        monkeypatch.setattr(ecnn.data_io, "_MIN_WORKER_BYTES", 256)
        monkeypatch.setattr(ecnn.data_io, "_parse_range", dying_parse)
        monkeypatch.setattr(ecnn.cli, "_usable_cpus", lambda: 2)
        with deadline(60):
            code, _, stderr = invoke(
                capsys, "predict", "--model", str(model), "--data", str(labeled),
                "--label", "y",
            )
        assert code == 3
        assert stderr.startswith("internal error: BrokenProcessPool")


def data_error(message):
    return 2, "", f"data error: {message}\n", None


# Inputs whose outcome turns on the columns a model does not read or on
# the file's width.  STATS_MODEL reads columns 0 and 2 of three.
COLUMN_INPUTS = {
    "nan-in-unused-column": "x0,x1,x2,y\n0.5,nan,1.0,1\n-0.5,2.0,0.25,0\n",
    "abc-in-unused-column": "x0,x1,x2,y\n0.5,2.0,1.0,1\n-0.5,abc,0.25,0\n",
    "nan-in-used-and-unused-columns": "x0,x1,x2,y\n0.5,nan,inf,1\nnan,2.0,0.25,0\n",
    "non-binary-label": "x0,x1,x2,y\n0.5,2.0,1.0,1\n-0.5,3.0,0.25,2\n",
    "width-mismatch": "x0,x1,y\n0.5,2.0,1\n-0.5,3.0,0\n",
    "one-feature-file": "x0,y\n0.5,1\n-0.5,0\n",
    "one-feature-file-with-nan": "x0,y\nnan,1\n-0.5,0\n",
    "one-feature-model": "x0,x1,y\n0.5,2.0,1\n-0.5,-3.0,0\n",
}
NAN_AT_1_1 = "non-finite feature value at row 1, column 1"
THREE_NANS = (
    f"{NAN_AT_1_1}; non-finite feature value at row 1, column 2; "
    "non-finite feature value at row 2, column 0"
)
ABC = "{data}: non-numeric value 'abc' at row 2, column 'x1'"
NAN_AT_1_0 = "non-finite feature value at row 1, column 0"
# (exit code, stdout, stderr, scores.csv) of predict --label y, predict
# and eval --label y, recorded when every command converted every column;
# {data} and {out} stand for the paths.  Only train requires two feature
# columns, so a one-feature file meets the width check, or the Dataset's
# own contract.
WHOLE_TABLE_OUTCOMES = {
    "nan-in-unused-column": (
        data_error(f"invalid dataset: {NAN_AT_1_1}"),
        data_error(f"invalid features: {NAN_AT_1_1}"),
        data_error(f"invalid dataset: {NAN_AT_1_1}"),
    ),
    "abc-in-unused-column": (data_error(ABC),) * 3,
    "nan-in-used-and-unused-columns": (
        data_error(f"invalid dataset: {THREE_NANS}"),
        data_error(f"invalid features: {THREE_NANS}"),
        data_error(f"invalid dataset: {THREE_NANS}"),
    ),
    "non-binary-label": (
        data_error("{data}: label must be 0 or 1, got '2' at row 2"),
        data_error("feature count mismatch: statistics cover 3 columns, data has 4"),
        data_error("{data}: label must be 0 or 1, got '2' at row 2"),
    ),
    "width-mismatch": (
        data_error("feature count mismatch: statistics cover 3 columns, data has 2"),
        (0, "predictions: {out} (2 rows)\n", "",
         "index,output,label\n0,0.09534946489910949,0\n1,0.7310585786300049,1\n"),
        data_error("feature count mismatch: statistics cover 3 columns, data has 2"),
    ),
    "one-feature-file": (
        data_error("feature count mismatch: statistics cover 3 columns, data has 1"),
        data_error("feature count mismatch: statistics cover 3 columns, data has 2"),
        data_error("feature count mismatch: statistics cover 3 columns, data has 1"),
    ),
    "one-feature-file-with-nan": (
        data_error(f"invalid dataset: {NAN_AT_1_0}"),
        data_error(f"invalid features: {NAN_AT_1_0}"),
        data_error(f"invalid dataset: {NAN_AT_1_0}"),
    ),
    "one-feature-model": (
        (0, "predictions: {out} (2 rows)\n", "",
         "index,output,label\n0,0.004070137715896128,0\n1,0.9999251537724895,1\n"),
    ) * 2 + (
        (0, "examples: 2\nerror rate: 100.00%\naccuracy: 0.00%\n"
            "confusion: tp=0 fn=1 fp=1 tn=0\n", "", None),
    ),
}
SCORING_COMMANDS = (["predict", "--label", "y"], ["predict"], ["eval", "--label", "y"])


class TestScoringReadsTheModelsColumns:
    """predict and eval convert only the model's columns, yet answer as
    when they converted all: the whole file is checked, and widths are
    the file's."""

    @pytest.fixture
    def models(self, tmp_path):
        stats_model = build_cascade(
            [np.array([0.25, 1.5, -2.0])], candidate_features=[2],
            stats=FeatureStats(np.array([0.1, 0.0, 0.3]), np.array([2.0, 1.0, 0.5])),
        )
        one_feature_model = CascadeModel(
            neurons=(NeuronSpec(layer=1, wiring=(Feature(1),),
                                weights=np.array([0.5, -3.0])),),
            anchor_feature=1, criterion_history=(2.0,),
        )
        paths = {}
        for name, model in (("stats", stats_model), ("one", one_feature_model)):
            paths[name] = tmp_path / f"{name}.ecnn"
            save_model(paths[name], model, TrainConfig())
        return paths

    @pytest.mark.parametrize("name", COLUMN_INPUTS)
    def test_outcomes_equal_the_whole_table_ones(self, tmp_path, capsys, models, name):
        data = tmp_path / "d.csv"
        data.write_text(COLUMN_INPUTS[name], encoding="utf-8")
        model = models["one" if name == "one-feature-model" else "stats"]
        scores = tmp_path / "scores.csv"
        for command, want in zip(SCORING_COMMANDS, WHOLE_TABLE_OUTCOMES[name]):
            out = ["--out", str(scores)] if command[0] == "predict" else []
            code, stdout, stderr = invoke(
                capsys, *command, "--model", str(model), "--data", str(data), *out
            )
            got = (code, stdout, stderr,
                   scores.read_text(encoding="utf-8") if scores.exists() else None)
            code, stdout, stderr, text = want
            assert got == (
                code, stdout.format(out=scores), stderr.format(data=data), text
            ), command
            scores.unlink(missing_ok=True)

    @pytest.mark.parametrize("command", SCORING_COMMANDS,
                             ids=["predict-label", "predict", "eval"])
    def test_one_load_and_one_forward_pass_over_every_row(
        self, tmp_path, capsys, monkeypatch, saved_model, command
    ):
        # The shape bench/tracer.py counts: the data path first to a loader,
        # and one row per data row to one forward pass.
        calls = []

        def recorded(name, fn):
            def call(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)
            return call

        for name in ("load_csv", "load_matrix_csv", "forward_batch"):
            monkeypatch.setattr(ecnn.cli, name, recorded(name, getattr(ecnn.cli, name)))
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,y\n0.0,-2.0,1\n0.0,2.0,1\n0.5,0.0,0\n", encoding="utf-8")
        code, _, _ = invoke(capsys, *command, "--model", str(saved_model),
                            "--data", str(data))
        assert code == 0
        loads = [args for name, args in calls if name.startswith("load")]
        passes = [args for name, args in calls if name == "forward_batch"]
        assert [args[0] for args in loads] == [str(data)]
        assert [name for name, _ in calls if name.startswith("load")] == [
            "load_matrix_csv" if "--label" not in command else "load_csv"
        ]
        assert [len(args[1]) for args in passes] == [3]


class TestOutputPaths:
    """An output the CLI cannot write is a data error that names it, found
    before train loads or trains anything, and nothing is written."""

    FLAGS = [("synth", "--out"), ("train", "--out"), ("train", "--summary-out"),
             ("predict", "--out")]

    @pytest.mark.parametrize("blocked", ["directory", "file-parent"])
    @pytest.mark.parametrize("command, flag", FLAGS)
    def test_is_a_data_error_and_writes_nothing(
        self, tmp_path, train_csv, saved_model, capsys, monkeypatch,
        command, flag, blocked,
    ):
        def untouched(*args, **kwargs):
            raise AssertionError("train went on past its output paths")

        monkeypatch.setattr(ecnn.cli, "load_csv", untouched)
        monkeypatch.setattr(ecnn.cli, "multi_run", untouched)
        argv = {
            "synth": ["synth", "--n", "20", "--m", "3", "--relevant", "0"],
            "train": ["train", "--data", str(train_csv), "--label", "y",
                      "--runs", "1", "--out", str(tmp_path / "model.ecnn")],
            "predict": ["predict", "--model", str(saved_model),
                        "--data", str(train_csv)],
        }[command]
        if blocked == "directory":
            target = tmp_path / "taken"
            target.mkdir()
            want = f"data error: cannot write {target}: it is a directory\n"
        else:
            (tmp_path / "blocker").write_text("", encoding="utf-8")
            target = tmp_path / "blocker" / "out.csv"
            want = f"data error: cannot write {target}: cannot make directory "
        before = sorted(tmp_path.rglob("*"))
        code, stdout, stderr = invoke(capsys, *argv, flag, str(target))
        assert (code, stdout) == (2, "")
        assert stderr.startswith(want)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, flag, other", [
        ("train", "--out", "--data"),
        ("train", "--summary-out", "--data"),
        ("train", "--summary-out", "--out"),
        ("predict", "--out", "--model"),
        ("predict", "--out", "--data"),
    ])
    def test_an_output_that_resolves_to_an_input_or_another_output_is_refused(
        self, tmp_path, train_csv, saved_model, capsys, monkeypatch,
        command, flag, other,
    ):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        model_out = tmp_path / "model.ecnn"
        argv = {
            "train": ["train", "--data", str(train_csv), "--label", "y",
                      "--runs", "1"],
            "predict": ["predict", "--model", str(saved_model),
                        "--data", str(train_csv)],
        }[command]
        if other == "--out":
            argv += ["--out", str(model_out)]
        # The same file by another spelling: through a link to its directory.
        link = tmp_path / "link"
        link.symlink_to(tmp_path)
        named = {"--data": train_csv, "--model": saved_model, "--out": model_out}
        target = link / named[other].name
        def tree():
            return {path: None if path.is_dir() else path.read_bytes()
                    for path in tmp_path.rglob("*")}

        before = tree()
        code, stdout, stderr = invoke(capsys, *argv, flag, str(target))
        assert (code, stdout) == (2, "")
        assert stderr == f"data error: cannot write {target}: it is the {other} file\n"
        assert tree() == before


class TestFailedWrites:
    """A write that fails once its output was accepted, to a full device or
    a closed pipe, is a data error naming the output, and that line is all
    of stderr: nothing more comes from the interpreter's final flush."""

    @pytest.fixture
    def argv(self, tmp_path, train_csv, saved_model):
        summary = tmp_path / "m.runs.csv"
        summary.write_text(
            "run,seed,size,train_error_pct,test_error_pct,features,status\n"
            "0,1,1,10.0,,1,ok\n", encoding="utf-8",
        )
        return {
            "report": ["report", "--summary", str(summary)],
            "eval": ["eval", "--model", str(saved_model), "--data", str(train_csv),
                     "--label", "y"],
            "train": ["train", "--data", str(train_csv), "--label", "y",
                      "--runs", "1", "--out", str(tmp_path / "t.ecnn")],
            "predict": ["predict", "--model", str(saved_model),
                        "--data", str(train_csv)],
            "synth": ["synth", "--n", "20", "--m", "3", "--relevant", "0"],
            "version": ["--version"],
            "help": ["--help"],
            "train-help": ["train", "--help"],
        }

    @needs_dev_full
    @pytest.mark.parametrize(
        "command", ["report", "eval", "train", "version", "help", "train-help"]
    )
    def test_stdout_on_a_full_device(self, tmp_path, argv, command):
        with open(FULL, "w", encoding="utf-8") as full:
            done = python_m(tmp_path, "ecnn", *argv[command], stdout=full)
        assert (done.returncode, done.stderr) == (
            2, f"data error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
        )

    @needs_dev_full
    @pytest.mark.parametrize("command", ["predict", "synth"])
    def test_out_on_a_full_device(self, tmp_path, argv, command):
        done = python_m(tmp_path, "ecnn", *argv[command], "--out", str(FULL))
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"data error: cannot write {FULL}: {os.strerror(errno.ENOSPC)}\n"
        )

    @pytest.mark.parametrize("command", ["report", "version"])
    def test_stdout_into_a_closed_pipe(self, tmp_path, argv, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = python_m(tmp_path, "ecnn", *argv[command], stdout=write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (
            2, f"data error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"
        )


class TestHugeWeights:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_a_huge_finite_weight_scores_without_a_warning(
        self, tmp_path, train_csv, capsys, command
    ):
        # 1e308 times any |x1| above 1.8 overflows; the clamp saturates it.
        path = tmp_path / "huge.ecnn"
        save_model(path, build_cascade([np.array([0.0, 0.0, 1e308])], [1]),
                   TrainConfig())
        code, _, stderr = invoke(capsys, command, "--model", str(path),
                                 "--data", str(train_csv), "--label", "y")
        assert (code, stderr) == (0, "")


class TestPredictAndEvalAgree:
    @pytest.mark.parametrize("threshold", [[], ["--threshold", "0.3"]], ids=repr)
    def test_eval_counts_the_labels_predict_writes(
        self, tmp_path, train_csv, capsys, threshold
    ):
        model, scores = tmp_path / "m.ecnn", tmp_path / "scores.csv"
        assert invoke(capsys, "train", "--data", str(train_csv), "--label", "y",
                      "--runs", "2", "--out", str(model))[0] == 0
        common = ["--model", str(model), "--data", str(train_csv), "--label", "y",
                  *threshold]
        assert invoke(capsys, "predict", *common, "--out", str(scores))[0] == 0
        code, stdout, _ = invoke(capsys, "eval", *common)
        assert code == 0
        with open(scores, encoding="utf-8") as handle:
            labels = [int(row["label"]) for row in csv.DictReader(handle)]
        with open(train_csv, encoding="utf-8") as handle:
            targets = [int(float(row["y"])) for row in csv.DictReader(handle)]
        pairs = Counter(zip(labels, targets))
        assert 0 < pairs[1, 0] + pairs[0, 1] < len(targets)
        want = (f"confusion: tp={pairs[1, 1]} fn={pairs[0, 1]} "
                f"fp={pairs[1, 0]} tn={pairs[0, 0]}")
        assert want in stdout.splitlines()


class TestModuleEntryPoints:
    def test_python_m_ecnn_runs_a_command(self, tmp_path):
        done = python_m(
            tmp_path, "ecnn", "synth", "--n", "10", "--m", "3", "--relevant", "0",
            "--out", "x.csv",
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "x.csv").read_text(encoding="utf-8").startswith("x0,x1,x2,y\n")

    def test_python_m_ecnn_cli_prints_the_version(self, tmp_path):
        done = python_m(tmp_path, "ecnn.cli", "--version")
        assert (done.returncode, done.stdout, done.stderr) == (
            0, f"ecnn {ecnn.__version__}\n", ""
        )

    def test_exit_codes_pass_through(self, tmp_path):
        done = python_m(tmp_path, "ecnn", "predict", "--model", "no.ecnn",
                        "--data", "no.csv")
        assert done.returncode == 2
        assert done.stderr.startswith("data error:")


class TestThresholdFlag:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("value", ["5", "nan", "inf", "0", "1"])
    def test_outside_the_unit_interval_is_a_usage_error(
        self, tmp_path, saved_model, capsys, command, value
    ):
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,y\n0.0,1.0,1\n0.0,-1.0,0\n", encoding="utf-8")
        code, stdout, stderr = invoke(
            capsys, command, "--model", str(saved_model), "--data", str(data),
            "--label", "y", "--threshold", value,
        )
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "usage error: classification_threshold must be inside (0, 1)\n"
        )


class TestReport:
    def summary_csv(self, tmp_path, rows):
        header = "run,seed,size,train_error_pct,test_error_pct,features,status"
        path = tmp_path / "runs.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_size_histogram_counts_ok_runs(self, tmp_path, capsys):
        path = self.summary_csv(tmp_path, [
            "0,10,4,12.5,14.0,0;1,ok",
            "1,11,4,11.0,13.0,0;2,ok",
            "2,12,4,10.0,12.0,0,ok",
            "3,13,2,9.5,11.5,1,ok",
            "4,14,0,,,,failed: boom",
        ])
        code, stdout, _ = invoke(capsys, "report", "--summary", str(path))
        assert code == 0
        assert "runs: 5 (4 ok, 1 failed)" in stdout
        lines = stdout.splitlines()
        start = lines.index("size,count")
        assert lines[start + 1] == "2,1"
        assert lines[start + 2] == "4,3"

    def test_error_histogram_uses_the_bin_width(self, tmp_path, capsys):
        path = self.summary_csv(tmp_path, [
            "0,10,1,0.2,,0,ok",
            "1,11,1,0.4,,0,ok",
            "2,12,1,0.9,,0,ok",
        ])
        code, stdout, _ = invoke(
            capsys, "report", "--summary", str(path), "--bin", "0.5"
        )
        assert code == 0
        assert "train error rates (bin width 0.5)" in stdout
        assert "0,0.5,2" in stdout
        assert "0.5,1,1" in stdout
        assert "test error rates: none recorded" in stdout

    def test_a_rate_on_a_printed_bin_edge_opens_that_bin(self, tmp_path, capsys):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point.
        path = self.summary_csv(tmp_path, ["0,10,1,0.3,,0,ok", "1,11,1,12.6,,0,ok"])
        code, stdout, _ = invoke(
            capsys, "report", "--summary", str(path), "--bin", "0.1"
        )
        assert code == 0
        lines = stdout.splitlines()
        start = lines.index("bin_start,bin_end,count")
        assert lines[start + 1:start + 3] == ["0.3,0.4,1", "12.6,12.7,1"]

    def test_missing_columns_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        code, _, stderr = invoke(capsys, "report", "--summary", str(path))
        assert code == 2
        assert "data error" in stderr

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["train", "test"])
    def test_a_non_finite_rate_is_a_data_error(self, tmp_path, capsys, rate, column):
        rates = f"{rate},1.0" if column == "train" else f"1.0,{rate}"
        path = self.summary_csv(tmp_path, ["0,10,1,0.2,0.4,0,ok", f"7,11,1,{rates},0,ok"])
        code, stdout, stderr = invoke(capsys, "report", "--summary", str(path))
        assert code == 2
        assert f"data error: run 7: {column}_error_pct is {rate}" in stderr
        assert stdout == ""

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        code, _, stderr = invoke(
            capsys, "report", "--summary", str(tmp_path / "absent.csv")
        )
        assert code == 2

    @pytest.mark.parametrize("width", ["0", "nan", "inf", "1e-320"])
    def test_non_positive_bin_is_a_usage_error(self, tmp_path, capsys, width):
        path = self.summary_csv(tmp_path, ["0,10,1,0.2,,0,ok"])
        code, _, stderr = invoke(
            capsys, "report", "--summary", str(path), "--bin", width
        )
        assert code == 1
        assert "usage error" in stderr


class TestExitCodes:
    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        code, _, stderr = invoke(capsys, "frobnicate")
        assert code == 1
        assert "usage error" in stderr

    def test_internal_failure_maps_to_exit_3(self, tmp_path, train_csv, capsys,
                                             monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(ecnn.cli, "multi_run", explode)
        code, _, stderr = invoke(
            capsys, "train", "--data", str(train_csv), "--label", "y",
            "--runs", "1", "--out", str(tmp_path / "m.ecnn"),
        )
        assert code == 3
        assert "internal error: RuntimeError: wires crossed" in stderr

    def test_training_failure_maps_to_exit_3(self, tmp_path, train_csv, capsys,
                                             monkeypatch):
        def fail(*args, **kwargs):
            raise EcnnError("training went wrong")

        monkeypatch.setattr(ecnn.cli, "multi_run", fail)
        code, _, stderr = invoke(
            capsys, "train", "--data", str(train_csv), "--label", "y",
            "--runs", "1", "--out", str(tmp_path / "m.ecnn"),
        )
        assert code == 3
        assert stderr.startswith("error: training went wrong")

    @needs_two_cpus
    def test_a_dead_worker_maps_to_exit_3(self, tmp_path, train_csv, capsys,
                                          monkeypatch):
        parent = os.getpid()

        def dying_evolve(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("the restart ran in the calling process")

        monkeypatch.setattr(ecnn.evolve, "evolve", dying_evolve)
        with deadline(60):
            code, _, stderr = invoke(
                capsys, "train", "--data", str(train_csv), "--label", "y",
                "--runs", "2", "--jobs", "2", "--out", str(tmp_path / "m.ecnn"),
            )
        assert code == 3
        assert stderr.startswith("internal error: BrokenProcessPool")

    @needs_two_cpus
    def test_a_fork_that_fails_maps_to_exit_3(self, tmp_path, train_csv, capsys,
                                              monkeypatch):
        # An OSError that is not a failed write stays an internal error.
        def fail():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fail)
        with deadline(60):
            code, _, stderr = invoke(
                capsys, "train", "--data", str(train_csv), "--label", "y",
                "--runs", "2", "--jobs", "2", "--out", str(tmp_path / "m.ecnn"),
            )
        assert code == 3
        assert stderr.startswith("internal error: BlockingIOError")

    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("ecnn ")
