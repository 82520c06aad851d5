"""Command-line interface: train, predict, eval, synth, report.

Exit codes: 0 success, 1 usage error, 2 data or model-file error,
3 internal error.  Default output locations honor the ECNN_OUT_DIR
environment variable; explicit --out paths are used as given.  Every
command is deterministic: identical flags, seeds, and input files yield
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import classify_batch, forward_batch, used_features
from .data_io import (
    ZeroVarianceWarning,
    format_scores,
    load_csv,
    load_matrix_csv,
    normalize,
    split_train_test,
    synth_dataset,
    write_csv,
)
from .domain import Dataset, TrainConfig, require_valid_dataset
from .errors import DataError, EcnnError, ModelFormatError
from .evolve import multi_run, select_best
from .model_io import dump_canonical_json, load_model, save_model

__all__ = ["OUT_DIR_ENV", "UsageError", "build_parser", "run"]

OUT_DIR_ENV = "ECNN_OUT_DIR"


class UsageError(Exception):
    """Bad command line: unknown flags, missing arguments, invalid values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit; we map to exit code 1
        raise UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    parser.add_argument(
        "--chi", type=float, default=defaults.chi, help="projection learning rate"
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=defaults.delta,
        help="minimal per-step validation improvement; smaller fits longer",
    )
    parser.add_argument(
        "--max-fit-steps", type=int, default=defaults.max_fit_steps,
        help="hard cap on fitting iterations per neuron",
    )
    parser.add_argument(
        "--max-layers", type=int, default=defaults.max_layers,
        help="hard cap on cascade depth",
    )
    parser.add_argument("--seed", type=int, default=defaults.seed, help="master seed")
    parser.add_argument(
        "--init-sigma", type=float, default=defaults.init_sigma,
        help="scale of the Gaussian weight initialization",
    )
    parser.add_argument(
        "--threshold", type=float, default=defaults.classification_threshold,
        dest="classification_threshold", metavar="THRESHOLD",
        help="sigmoid output at or above which an example is labeled 1",
    )
    parser.add_argument(
        "--advance-on-accept", action="store_true",
        help="move to the next ranked feature after an acceptance instead of "
        "retrying the same feature one layer deeper",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ecnn",
        description="Grow cascade networks of sigmoid neurons under a "
        "held-out validation criterion.",
    )
    parser.add_argument("--version", action="version", version=f"ecnn {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train", help="run the restart protocol and save the best model"
    )
    train.add_argument("--data", required=True, help="training CSV with a header row")
    train.add_argument(
        "--label", required=True, help="label column, by name or 0-based index"
    )
    train.add_argument(
        "--runs", type=int, default=100, help="number of restarts (default 100)"
    )
    train.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the restarts, at most the usable CPUs "
        "(default: min(runs, usable CPUs)); outputs are identical for every value",
    )
    train.add_argument(
        "--test-fraction", type=float, default=0.0,
        help="hold out this fraction as a test set (0 disables, the default)",
    )
    _add_config_flags(train)
    train.add_argument("--out", default=None, help="model file (default model.ecnn)")
    train.add_argument(
        "--summary-out", default=None,
        help="per-run summary CSV (default <out stem>.runs.csv)",
    )
    train.set_defaults(func=cmd_train)

    predict = commands.add_parser("predict", help="score examples with a saved model")
    predict.add_argument("--model", required=True, help="model file from train")
    predict.add_argument("--data", required=True, help="CSV of feature columns")
    predict.add_argument(
        "--label", default=None,
        help="label column to drop from the data, if it has one",
    )
    predict.add_argument(
        "--threshold", type=float, default=None,
        help="labeling threshold (default: the model's training value)",
    )
    predict.add_argument("--out", default=None, help="write CSV here instead of stdout")
    predict.set_defaults(func=cmd_predict)

    evaluate = commands.add_parser("eval", help="error rate of a model on labeled data")
    evaluate.add_argument("--model", required=True, help="model file from train")
    evaluate.add_argument("--data", required=True, help="labeled CSV")
    evaluate.add_argument(
        "--label", required=True, help="label column, by name or 0-based index"
    )
    evaluate.add_argument(
        "--threshold", type=float, default=None,
        help="labeling threshold (default: the model's training value)",
    )
    evaluate.set_defaults(func=cmd_eval)

    synth = commands.add_parser(
        "synth", help="generate a dataset with known relevant features"
    )
    synth.add_argument("--n", type=int, required=True, help="number of examples")
    synth.add_argument("--m", type=int, required=True, help="number of features")
    synth.add_argument(
        "--relevant", required=True,
        help="comma-separated feature indices that drive the label",
    )
    synth.add_argument(
        "--noise", type=float, default=0.5, help="label noise scale (default 0.5)"
    )
    synth.add_argument(
        "--prevalence", type=float, default=0.5,
        help="approximate fraction of positive labels (default 0.5)",
    )
    synth.add_argument("--seed", type=int, default=0, help="generator seed")
    synth.add_argument("--out", default=None, help="CSV file (default synth.csv)")
    synth.set_defaults(func=cmd_synth)

    report = commands.add_parser(
        "report", help="histograms of sizes and error rates from a run summary"
    )
    report.add_argument(
        "--summary", required=True, help="run-summary CSV written by train"
    )
    report.add_argument(
        "--bin", type=float, default=1.0,
        help="error-rate histogram bin width in percentage points (default 1)",
    )
    report.set_defaults(func=cmd_report)
    return parser


def _out_path(flag_value, default_name: str) -> Path:
    if flag_value is not None:
        path = Path(flag_value)
    else:
        path = Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _config_from_args(args) -> TrainConfig:
    try:
        return TrainConfig(
            **{field.name: getattr(args, field.name) for field in fields(TrainConfig)}
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _threshold(flag, config: TrainConfig) -> float:
    """The labeling threshold: ``flag`` if given, checked as training checks
    it, else the model's training value."""
    if flag is None:
        return config.classification_threshold
    try:
        return replace(config, classification_threshold=flag).classification_threshold
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _format_pct(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.2f}%"


def _feature_label(column: int, names) -> str:
    if names is not None and column < len(names):
        return f"{names[column]} ({column})"
    return str(column)


def _write_summary_csv(path, summaries) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["run", "seed", "size", "train_error_pct", "test_error_pct",
             "features", "status"]
        )
        for s in summaries:
            writer.writerow(
                [
                    s.run_index,
                    s.seed,
                    s.model_size,
                    repr(s.train_error_pct),
                    "" if math.isnan(s.test_error_pct) else repr(s.test_error_pct),
                    ";".join(str(f) for f in s.selected_features),
                    "ok",
                ]
            )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_train(args) -> int:
    if args.runs < 1:
        raise UsageError("--runs must be >= 1")
    usable = _usable_cpus()
    jobs = min(args.runs, usable) if args.jobs is None else args.jobs
    if not 1 <= jobs <= usable:
        raise UsageError(f"--jobs must be in [1, {usable}] (the usable CPUs)")
    if not 0.0 <= args.test_fraction < 1.0:
        raise UsageError("--test-fraction must be in [0, 1)")
    config = _config_from_args(args)
    train, test, stats = _training_sets(args, config.seed, jobs)
    best_model, summaries = multi_run(train, test, config, args.runs, jobs)
    best = select_best(summaries)
    final_model = best_model.with_normalization(stats)

    model_path = _out_path(args.out, "model.ecnn")
    if args.summary_out is not None:
        summary_path = Path(args.summary_out)
        summary_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        summary_path = model_path.with_name(model_path.stem + ".runs.csv")
    save_model(model_path, final_model, config)
    _write_summary_csv(summary_path, summaries)

    names = final_model.feature_names
    print(f"runs completed: {len(summaries)} of {args.runs}")
    print(f"best run: {best.run_index} (seed {best.seed})")
    print(f"model size: {best.model_size} neuron(s)")
    print(
        "selected features: "
        + ", ".join(_feature_label(c, names) for c in best.selected_features)
    )
    print(f"train error: {_format_pct(best.train_error_pct)}")
    print(f"test error: {_format_pct(best.test_error_pct)}")
    print(f"model file: {model_path}")
    print(f"run summary: {summary_path}")
    return 0


def _training_sets(args, seed: int, jobs: int):
    """The normalized train and test sets (test None without
    ``--test-fraction``) and the training statistics.

    Only these outlive the call: the loaded data is dropped once it is
    split, and each raw side once it is normalized, so the restarts and
    the workers they fork do not hold them.
    """
    data = load_csv(args.data, args.label, jobs=jobs)
    require_valid_dataset(data)
    if args.test_fraction > 0.0:
        split_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(1,))
        )
        train, test = split_train_test(data, args.test_fraction, split_rng)
    else:
        train, test = data, None
    del data
    train, stats = normalize_quietly(train)
    if test is not None:
        features = stats.transform(test.features)
        features.flags.writeable = False
        test = Dataset(features, test.targets, test.feature_names)
    return train, test, stats


def normalize_quietly(train: Dataset):
    """Normalize, reporting constant columns on stderr instead of warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ZeroVarianceWarning)
        normalized, stats = normalize(train)
    for warning in caught:
        print(f"note: {warning.message}", file=sys.stderr)
    return normalized, stats


def cmd_predict(args) -> int:
    model, config = load_model(args.model)
    threshold = _threshold(args.threshold, config)
    jobs = _usable_cpus()
    # Only the model's columns are converted; the loaders check the rest.
    columns = used_features(model)
    if args.label is not None:
        data, names = load_csv(args.data, args.label, jobs=jobs, features=columns)
        features = data.features
    else:
        features, names = load_matrix_csv(args.data, jobs=jobs, features=columns)
    _, outputs = forward_batch(model, features, len(names))
    text = format_scores(outputs, (outputs >= threshold).astype(int))
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"predictions: {out} ({len(outputs)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval(args) -> int:
    model, config = load_model(args.model)
    threshold = _threshold(args.threshold, config)
    data, names = load_csv(
        args.data, args.label, jobs=_usable_cpus(), features=used_features(model)
    )
    labels = classify_batch(model, data.features, threshold, len(names))
    positives = data.targets == 1.0
    predicted = labels == 1.0
    tp = int(np.count_nonzero(predicted & positives))
    fp = int(np.count_nonzero(predicted & ~positives))
    fn = int(np.count_nonzero(~predicted & positives))
    tn = int(np.count_nonzero(~predicted & ~positives))
    err = 100.0 * (fp + fn) / data.n
    print(f"examples: {data.n}")
    print(f"error rate: {err:.2f}%")
    print(f"accuracy: {100.0 - err:.2f}%")
    print(f"confusion: tp={tp} fn={fn} fp={fp} tn={tn}")
    return 0


def cmd_synth(args) -> int:
    try:
        relevant = [int(part) for part in args.relevant.split(",") if part.strip()]
    except ValueError:
        raise UsageError(
            f"--relevant must be comma-separated integers, got {args.relevant!r}"
        ) from None
    try:
        data, truth = synth_dataset(
            args.n, args.m, relevant, args.noise, args.seed, args.prevalence
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = _out_path(args.out, "synth.csv")
    write_csv(out, data)
    truth_path = out.with_name(out.stem + ".truth.json")
    truth_payload = {
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "relevant": list(truth.relevant),
        "weights": list(truth.weights),
        "threshold": truth.threshold,
        "noise_sigma": truth.noise_sigma,
        "prevalence": truth.prevalence,
    }
    truth_path.write_text(dump_canonical_json(truth_payload), encoding="utf-8")
    positives = int(np.count_nonzero(data.targets))
    print(f"dataset: {out} ({data.n} examples, {data.m} features)")
    print(f"ground truth: {truth_path}")
    print(f"positives: {positives} ({100.0 * positives / data.n:.1f}%)")
    return 0


def _histogram(values, bin_width: float) -> list[tuple[float, float, int]]:
    counts: dict[int, int] = {}
    for v in values:
        bucket = int(math.floor(v / bin_width))
        counts[bucket] = counts.get(bucket, 0) + 1
    return [
        (bucket * bin_width, (bucket + 1) * bin_width, counts[bucket])
        for bucket in sorted(counts)
    ]


def cmd_report(args) -> int:
    if not 0 < args.bin < math.inf:
        raise UsageError("--bin must be positive and finite")
    try:
        with open(args.summary, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        raise DataError(f"cannot read summary file: {exc}") from exc
    required = {"run", "size", "train_error_pct", "test_error_pct", "status"}
    if not rows or not required.issubset(rows[0].keys()):
        raise DataError(
            f"summary file must have columns {sorted(required)} and at least one row"
        )
    try:
        ok_rows = [row for row in rows if row["status"] == "ok"]
        sizes = [int(row["size"]) for row in ok_rows]
        train_errors = [
            float(row["train_error_pct"]) for row in ok_rows if row["train_error_pct"]
        ]
        test_errors = [
            float(row["test_error_pct"]) for row in ok_rows if row["test_error_pct"]
        ]
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed summary file: {exc}") from exc

    failed = len(rows) - len(ok_rows)
    print(f"runs: {len(rows)} ({len(ok_rows)} ok, {failed} failed)")
    print()
    print("model sizes")
    print("size,count")
    size_counts: dict[int, int] = {}
    for size in sizes:
        size_counts[size] = size_counts.get(size, 0) + 1
    for size in sorted(size_counts):
        print(f"{size},{size_counts[size]}")
    for title, values in (("train", train_errors), ("test", test_errors)):
        print()
        if not values:
            print(f"{title} error rates: none recorded")
            continue
        print(f"{title} error rates (bin width {args.bin:g})")
        print("bin_start,bin_end,count")
        for start, end, count in _histogram(values, args.bin):
            print(f"{start:g},{end:g},{count}")
    return 0


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ModelFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except EcnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is a bug, not a user mistake
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(run())
