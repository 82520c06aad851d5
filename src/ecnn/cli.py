"""Command-line interface: train, predict, eval, synth, report.

Exit codes: 0 success, 1 usage error, 2 data or model-file error (an
output that cannot be written included), 3 internal error.  Default
output locations honor the ECNN_OUT_DIR environment variable; explicit
--out paths are used as given.  Every command is deterministic:
identical flags, seeds, and input files yield byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import forward_batch, used_features
from .data_io import (
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

    def _print_message(self, message, file=None):
        # argparse prints --help and --version to stdout and drops a failed write
        with _writing("standard output"):
            file.write(message)
            file.flush()


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
        help="worker processes, at most the usable CPUs (default: all); the "
        "restarts use at most --runs of them; outputs are identical for every value",
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


def _default_out(name: str) -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "."), name)


def _out_path(flag_value, default: Path | None = None, taken=()) -> Path:
    """The file an output is written to: ``flag_value`` as given, else
    ``default``, with its parent directory made.  A directory, a path
    that resolves to one of ``taken`` (the ``(flag, path)`` pairs of the
    command's inputs and other outputs), or a parent that cannot be made,
    is a data error."""
    path = Path(flag_value) if flag_value is not None else default
    resolved = os.path.realpath(path)
    for flag, other in taken:
        if os.path.realpath(other) == resolved:
            raise DataError(f"cannot write {path}: it is the {flag} file")
    if path.is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"cannot write {path}: cannot make directory {path.parent} ({exc.strerror})"
        ) from None
    return path


@contextlib.contextmanager
def _writing(name):
    """A failed write to ``name``, a path or standard output, is a data error."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {name}: {exc.strerror}") from None


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
        writer.writerows(
            [s.run_index, s.seed, s.model_size, repr(s.train_error_pct),
             "" if math.isnan(s.test_error_pct) else repr(s.test_error_pct),
             ";".join(str(f) for f in s.selected_features), "ok"]
            for s in summaries
        )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_train(args) -> str:
    if args.runs < 1:
        raise UsageError("--runs must be >= 1")
    usable = _usable_cpus()
    jobs = usable if args.jobs is None else args.jobs
    if not 1 <= jobs <= usable:
        raise UsageError(f"--jobs must be in [1, {usable}] (the usable CPUs)")
    if not 0.0 <= args.test_fraction < 1.0:
        raise UsageError("--test-fraction must be in [0, 1)")
    config = _config_from_args(args)
    data = ("--data", args.data)
    model_path = _out_path(args.out, _default_out("model.ecnn"), [data])
    summary_path = _out_path(
        args.summary_out, model_path.with_name(model_path.stem + ".runs.csv"),
        [data, ("--out", model_path)],
    )
    train, test, stats = _training_sets(args, config.seed, jobs)
    best_model, summaries = multi_run(train, test, config, args.runs, jobs)
    best = select_best(summaries)
    final_model = best_model.with_normalization(stats)
    with _writing(model_path):
        save_model(model_path, final_model, config)
    with _writing(summary_path):
        _write_summary_csv(summary_path, summaries)

    names = final_model.feature_names
    selected = ", ".join(_feature_label(c, names) for c in best.selected_features)
    return (
        f"runs completed: {len(summaries)} of {args.runs}\n"
        f"best run: {best.run_index} (seed {best.seed})\n"
        f"model size: {best.model_size} neuron(s)\n"
        f"selected features: {selected}\n"
        f"train error: {_format_pct(best.train_error_pct)}\n"
        f"test error: {_format_pct(best.test_error_pct)}\n"
        f"model file: {model_path}\n"
        f"run summary: {summary_path}\n"
    )


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
    train, stats = normalize(train)
    if stats.constant_columns:
        print("note: zero-variance feature columns mapped to 0:",
              list(stats.constant_columns), file=sys.stderr)
    if test is not None:
        features = stats.transform(test.features)
        features.flags.writeable = False
        test = Dataset(features, test.targets, test.feature_names)
    return train, test, stats


def _score(args):
    """Score ``--data`` with ``--model``: the outputs, their labels
    (``outputs >= threshold``) and the targets (None without ``--label``).
    Errors come in order: model file, threshold, data, column names,
    width.  A file as wide as the model's feature names must carry them
    in the same order."""
    model, config = load_model(args.model)
    threshold = _threshold(args.threshold, config)
    # Only the model's columns are converted; the loaders check the rest.
    jobs, columns = _usable_cpus(), used_features(model)
    if args.label is not None:
        features, targets, names = load_csv(
            args.data, args.label, jobs=jobs, features=columns
        )
    else:
        features, names = load_matrix_csv(args.data, jobs=jobs, features=columns)
        targets = None
    expected = model.feature_names
    if expected is not None and len(names) == len(expected) and names != expected:
        j = next(j for j, (a, b) in enumerate(zip(names, expected)) if a != b)
        raise DataError(
            f"feature column {j} is {names[j]!r} in the data but {expected[j]!r} "
            "in the model"
        )
    model.require_width(len(names))
    _, outputs = forward_batch(model.on_columns(columns), features)
    return outputs, outputs >= threshold, targets


def cmd_predict(args) -> str:
    taken = [("--model", args.model), ("--data", args.data)]
    out = None if args.out is None else _out_path(args.out, taken=taken)
    outputs, labels, _ = _score(args)
    text = format_scores(outputs, labels)
    if out is None:
        return text
    with _writing(out):
        out.write_text(text, encoding="utf-8")
    return f"predictions: {out} ({len(outputs)} rows)\n"


def cmd_eval(args) -> str:
    _, predicted, targets = _score(args)
    positives = targets == 1.0
    tp = int(np.count_nonzero(predicted & positives))
    fp = int(np.count_nonzero(predicted & ~positives))
    fn = int(np.count_nonzero(~predicted & positives))
    tn = int(np.count_nonzero(~predicted & ~positives))
    err = 100.0 * (fp + fn) / len(targets)
    return (
        f"examples: {len(targets)}\n"
        f"error rate: {err:.2f}%\n"
        f"accuracy: {100.0 - err:.2f}%\n"
        f"confusion: tp={tp} fn={fn} fp={fp} tn={tn}\n"
    )


def cmd_synth(args) -> str:
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
    out = _out_path(args.out, _default_out("synth.csv"))
    truth_path = _out_path(out.with_name(out.stem + ".truth.json"))
    with _writing(out):
        write_csv(out, data)
    truth_payload = dict(asdict(truth), n=args.n, m=args.m, seed=args.seed)
    with _writing(truth_path):
        truth_path.write_text(dump_canonical_json(truth_payload), encoding="utf-8")
    positives = int(np.count_nonzero(data.targets))
    return (
        f"dataset: {out} ({data.n} examples, {data.m} features)\n"
        f"ground truth: {truth_path}\n"
        f"positives: {positives} ({100.0 * positives / data.n:.1f}%)\n"
    )


def _histogram(values, bin_width: float) -> list[tuple[float, float, int]]:
    """Count ``values`` per bin of ``bin_width``.  A value's bin is the
    floor of the exact quotient of the two as printed, so a printed bin
    edge such as 0.3 at width 0.1 opens its bin."""
    width = Fraction(repr(bin_width))
    counts = Counter(math.floor(Fraction(repr(v)) / width) for v in values)
    return [
        (bucket * bin_width, (bucket + 1) * bin_width, counts[bucket])
        for bucket in sorted(counts)
    ]


def _rates(rows, column: str) -> list[float]:
    """The error rates recorded in ``column`` of ``rows``; each must be finite."""
    rates = []
    for row in rows:
        if row[column]:
            rates.append(float(row[column]))
            if not math.isfinite(rates[-1]):
                raise DataError(f"run {row['run']}: {column} is {row[column]}, not a rate")
    return rates


def cmd_report(args) -> str:
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
        train_errors = _rates(ok_rows, "train_error_pct")
        test_errors = _rates(ok_rows, "test_error_pct")
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed summary file: {exc}") from exc
    largest = max(map(abs, train_errors + test_errors), default=0.0)
    if not math.isfinite(largest / args.bin):
        raise UsageError(f"--bin {args.bin:g} is too narrow for error rate {largest:g}")

    failed = len(rows) - len(ok_rows)
    lines = [f"runs: {len(rows)} ({len(ok_rows)} ok, {failed} failed)", "",
             "model sizes", "size,count"]
    lines += [f"{size},{count}" for size, count in sorted(Counter(sizes).items())]
    for title, values in (("train", train_errors), ("test", test_errors)):
        if values:
            lines += ["", f"{title} error rates (bin width {args.bin:g})",
                      "bin_start,bin_end,count"]
            lines += [f"{a:g},{b:g},{n}" for a, b, n in _histogram(values, args.bin)]
        else:
            lines += ["", f"{title} error rates: none recorded"]
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        text = args.func(args)  # each command returns what it prints
        with _writing("standard output"):
            sys.stdout.write(text)
            sys.stdout.flush()
        return 0
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
