"""Layered benchmark for ``ecnn train`` and ``ecnn predict``.

Run from the repository root:

    python3 bench/run.py --workload train-wide --seed 1 --seconds 25 --trace 0

One invocation is one workload in one fresh process, as a closed loop
with a single client: commands go one after another through
``ecnn.cli.run``.  Inputs are generated from ``--seed`` by ``ecnn synth``;
ecnn itself only ever sees the generated files.  Every command's outputs
are checked, and the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` interleaves untraced and traced rounds of commands and
reports the per-layer metrics from the traced ones, plus the tracing
overhead.
A result file with the environment, the samples and the spans is written
under ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The default seed has recorded output digests in golden.json.  The
# held-out seed is kept out of tuning and used only to confirm a claim.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9973
SETUP_REPEATS = 3
MIN_SAMPLES = 2
# Stop after the round running this long after the start, even if
# MIN_SAMPLES is not met, so a much slower build still exits well inside
# three minutes.
HARD_STOP_S = 120.0
TEST_FRACTION = "0.3"
NOISE = "0.5"


@dataclass(frozen=True)
class Workload:
    """One workload's shape; README.md gives the reason for each."""

    command: str  # "train" or "predict"
    rows: int
    features: int
    relevant: str
    restarts: int
    # Independent synth inputs per run.  Training work depends on the data
    # (how many candidates are accepted, how deep the cascade grows), so a
    # run pools commands over a few inputs to keep seeds comparable.
    input_sets: int
    model_rows: int = 0  # predict: leading rows the scoring model is trained on
    model_restarts: int = 0


WORKLOADS = {
    "train-wide": Workload("train", 2857, 72, "10,23,36,60", restarts=10, input_sets=2),
    "train-tall": Workload("train", 40000, 8, "1,4,6", restarts=5, input_sets=3),
    "score-bulk": Workload(
        "predict", 50000, 72, "10,23,36,60", restarts=0, input_sets=1,
        model_rows=2857, model_restarts=2,
    ),
}

# Per traced command: times are summarised by their median, counts must
# repeat exactly (and, at the default seed, match golden.json).
TIME_KEYS = (
    "rank_s", "grow_s", "restart_s", "load_csv_s", "normalize_s", "forward_s",
    "validate_s", "save_s", "load_s", "cli_self_s", "evolve_self_s",
)
COUNT_KEYS = (
    "grow_steps", "rank_steps", "cap_hits", "grow_fits", "accepted", "restarts",
    "rows_scored", "bytes_read",
)


class CheckFailed(Exception):
    """A command failed or its outputs did not pass a check."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in PINNED_THREAD_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def truth_labels(data: Path) -> list[int]:
    with open(data, encoding="utf-8") as handle:
        next(handle)
        return [int(line.rsplit(",", 1)[1]) for line in handle]


def model_threshold(model: Path) -> float:
    payload = json.loads(model.read_text(encoding="utf-8"))
    return float(payload["config"]["classification_threshold"])


class Bench:
    """Runs one workload's commands and checks their outputs."""

    def __init__(self, cli, tracer, workload: Workload, seed: int):
        self.cli = cli
        self.tracer = tracer
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_commands = 0

    def fail(self, message: str, command: bool = False) -> None:
        """Record a failed check; ``command`` marks one that fails a whole
        command (its exit code or its outputs), as opposed to a check
        across commands, which only makes the run incorrect."""
        self.failed_commands += command
        self.failures.append(message)
        print(f"bench: FAILED {message}", file=sys.stderr)

    def set_seed(self, index: int) -> int:
        return self.seed * 100 + index

    def ecnn(self, argv, traced=False, run="") -> tuple[float, str | None]:
        """Run one ecnn command in-process.  Returns its wall time and, if
        it exited nonzero, an error message."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if traced:
                self.tracer.run = run
                code = self.tracer.call("cli.run", self.cli.run, argv)
            else:
                code = self.cli.run(argv)
            wall = time.perf_counter() - start
        if code != 0:
            return wall, f"ecnn {argv[0]} exited {code}: {err.getvalue().strip()}"
        return wall, None

    def must(self, argv, traced: bool) -> None:
        _, error = self.ecnn(argv, traced, "setup")
        if error:
            raise CheckFailed(error)

    # -- setup ------------------------------------------------------------

    def setup(self, where: Path, traced: bool) -> tuple[float, list[dict]]:
        """Start a fresh interpreter that imports the CLI, as every command
        pays, then generate the input sets and, for predict, train the
        scoring model.  Returns the elapsed time and each set's files."""
        w = self.workload
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import ecnn.cli"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=60, cwd=ROOT,
        )
        sets = []
        for index in range(w.input_sets):
            folder = where / f"set{index}"
            folder.mkdir(parents=True)
            seed = str(self.set_seed(index))
            data = folder / "data.csv"
            self.must([
                "synth", "--n", str(w.rows), "--m", str(w.features),
                "--relevant", w.relevant, "--noise", NOISE, "--seed", seed,
                "--out", str(data),
            ], traced)
            files = {"data.csv": data}
            if w.command == "predict":
                head = folder / "model-data.csv"
                with open(data, encoding="utf-8") as src, open(head, "w", encoding="utf-8") as dst:
                    dst.writelines(line for _, line in zip(range(w.model_rows + 1), src))
                files["model.ecnn"] = folder / "model.ecnn"
                self.must([
                    "train", "--data", str(head), "--label", "y",
                    "--runs", str(w.model_restarts), "--seed", seed,
                    "--out", str(files["model.ecnn"]),
                ], traced)
            sets.append(files)
        return time.perf_counter() - start, sets

    # -- the timed command and its checks ----------------------------------

    def argv(self, index: int, files: dict, out: Path) -> list[str]:
        w = self.workload
        if w.command == "train":
            return [
                "train", "--data", str(files["data.csv"]), "--label", "y",
                "--runs", str(w.restarts), "--seed", str(self.set_seed(index)),
                "--test-fraction", TEST_FRACTION, "--out", str(out / "model.ecnn"),
            ]
        return [
            "predict", "--model", str(files["model.ecnn"]),
            "--data", str(files["data.csv"]), "--label", "y",
            "--out", str(out / "scores.csv"),
        ]

    def check_train(self, out: Path) -> tuple[dict, float]:
        """Digests of the model and run summary, and the best run's
        held-out error (best as ``select_best`` picks it)."""
        model, summary = out / "model.ecnn", out / "model.runs.csv"
        with open(summary, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != self.workload.restarts or any(r["status"] != "ok" for r in rows):
            raise CheckFailed(f"run summary does not hold {self.workload.restarts} ok runs")
        best = min(rows, key=lambda r: (float(r["train_error_pct"]), int(r["size"]), int(r["run"])))
        digests = {"model.ecnn": sha256(model), "model.runs.csv": sha256(summary)}
        return digests, float(best["test_error_pct"])

    def check_predict(self, out: Path, truth: list[int], threshold: float) -> tuple[dict, float]:
        """Digest of the scores, after checking every row's index and that
        its label is the output thresholded; returns the error rate
        against the file's labels."""
        scores = out / "scores.csv"
        wrong = rows = 0
        with open(scores, encoding="utf-8") as handle:
            if handle.readline() != "index,output,label\n":
                raise CheckFailed("scores.csv has the wrong header")
            for rows, line in enumerate(handle, start=1):
                index, output, label = line.rstrip("\n").split(",")
                if int(index) != rows - 1 or int(label) != int(float(output) >= threshold):
                    raise CheckFailed(f"scores.csv row {rows} disagrees with the threshold")
                wrong += int(label) != truth[rows - 1]
        if rows != len(truth):
            raise CheckFailed(f"scores.csv has {rows} rows, expected {len(truth)}")
        return {"scores.csv": sha256(scores)}, 100.0 * wrong / rows


def summarise(profiles: list[dict]) -> tuple[dict, dict, list[str]]:
    """Median times and exact counts over one input set's traced commands,
    plus the names of counts that did not repeat."""
    times = {key: statistics.median(p[key] for p in profiles) for key in TIME_KEYS}
    counts = {key: profiles[0][key] for key in COUNT_KEYS}
    unsteady = [key for key in COUNT_KEYS if any(p[key] != counts[key] for p in profiles)]
    if any(p["grow_fits"] != p["decided_fits"] for p in profiles):
        unsteady.append("grow_fits (spans disagree with the restart traces)")
    return times, counts, unsteady


def layer_metrics(times: dict, counts: dict, writes: list) -> dict:
    """Per-layer metrics from times and counts averaged over input sets;
    the write path is taken from the set-up spans (it is only used there)."""
    def share(part, whole):
        return part / whole if whole else 0.0

    n_sets = len(writes) or 1
    return {
        "fitting.grow_steps": counts["grow_steps"],
        "fitting.rank_steps": counts["rank_steps"],
        "fitting.cap_hit_share": share(counts["cap_hits"], counts["grow_fits"]),
        "fitting.grow_us_per_step": 1e6 * share(times["grow_s"], counts["grow_steps"]),
        "fitting.rank_us_per_step": 1e6 * share(times["rank_s"], counts["rank_steps"]),
        "evolve.restart_s": times["restart_s"],
        "evolve.restarts": counts["restarts"],
        "evolve.rank_s": times["rank_s"],
        "evolve.grow_s": times["grow_s"],
        "evolve.self_s": times["evolve_self_s"],
        "evolve.grow_fits": counts["grow_fits"],
        "evolve.accepted": counts["accepted"],
        "evolve.accept_ratio": share(counts["accepted"], counts["grow_fits"]),
        "data_io.load_csv_s": times["load_csv_s"],
        "data_io.bytes_read": counts["bytes_read"],
        "data_io.write_csv_s": sum(s.duration for s in writes) / n_sets,
        "data_io.bytes_written": sum(s.counts["bytes_written"] for s in writes) / n_sets,
        "data_io.normalize_s": times["normalize_s"],
        "cascade.forward_s": times["forward_s"],
        "cascade.rows_scored": counts["rows_scored"],
        "domain.validate_s": times["validate_s"],
        "model_io.save_s": times["save_s"],
        "model_io.load_s": times["load_s"],
        "cli.self_s": times["cli_self_s"],
    }


def mean_over_sets(dicts: list[dict]) -> dict:
    return {key: statistics.fmean(d[key] for d in dicts) for key in dicts[0]}


def run_workload(args) -> dict:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import ecnn
    import ecnn.cli as cli
    from tracer import Tracer, command_profile, patch_points

    if not Path(ecnn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported ecnn from {ecnn.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload]
    n_sets = workload.input_sets
    # ecnn.evolve is the package's evolve() function, not the module.
    tracer = Tracer(patch_points(cli, sys.modules["ecnn.evolve"]))
    bench = Bench(cli, tracer, workload, args.seed)
    traced_runs = bool(args.trace)

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        expected = golden.get(args.workload)
        if expected is None:
            bench.fail(f"golden.json has no entry for {args.workload}")

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    setup_s: list[float] = []
    walls = {False: [[] for _ in range(n_sets)], True: [[] for _ in range(n_sets)]}
    profiles: list[list[dict]] = [[] for _ in range(n_sets)]
    quality: list[set] = [set() for _ in range(n_sets)]
    reference: list[dict | None] = [None] * n_sets
    input_digests = None
    setup_spans = []
    try:
        # Set up several times for a steady setup_s and keep the last
        # inputs.  A traced run sets up once, traced, for the write path.
        for repeat in range(1 if traced_runs else SETUP_REPEATS):
            with tracer if traced_runs else contextlib.nullcontext():
                seconds, sets = bench.setup(work / f"setup{repeat}", traced_runs)
            setup_s.append(seconds)
            digests = [{name: sha256(path) for name, path in files.items()} for files in sets]
            if input_digests is None:
                input_digests = digests
            elif digests != input_digests:
                bench.fail(f"set-up {repeat} generated different inputs")
        setup_spans = tracer.since(0)
        if expected is not None and expected["inputs"] != input_digests:
            bench.fail("generated inputs differ from golden.json")
        if workload.command == "predict":
            truth = [truth_labels(files["data.csv"]) for files in sets]
            threshold = [model_threshold(files["model.ecnn"]) for files in sets]

        gc.collect()
        start = time.perf_counter()
        command = 0
        while True:
            index, round_ = command % n_sets, command // n_sets
            # Rounds go untraced, traced, traced, untraced, ... so a steady
            # drift in machine speed does not bias trace.overhead_s.
            traced = traced_runs and round_ % 4 in (1, 2)
            out = work / f"cmd{command}"
            out.mkdir()
            first = len(tracer.spans)
            with tracer if traced else contextlib.nullcontext():
                wall, error = bench.ecnn(bench.argv(index, sets[index], out), traced, out.name)
            walls[traced][index].append(wall)
            if traced and not error:
                profiles[index].append(dict(command_profile(tracer.since(first)), wall=wall))
            try:
                if error:
                    raise CheckFailed(error)
                if workload.command == "train":
                    digests, test_error = bench.check_train(out)
                else:
                    digests, test_error = bench.check_predict(out, truth[index], threshold[index])
                quality[index].add(test_error)
                if reference[index] is None:
                    reference[index] = digests
                elif digests != reference[index]:
                    raise CheckFailed("outputs differ from the first command's on this input")
                if expected is not None and digests != expected["outputs"][index]:
                    raise CheckFailed("outputs differ from golden.json")
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                bench.fail(f"command {command} on input set {index}: {exc}", command=True)
            shutil.rmtree(out)
            gc.collect()
            command += 1
            if index == n_sets - 1 and time.perf_counter() - started >= HARD_STOP_S:
                break
            if time.perf_counter() - start >= args.seconds and all(
                len(samples) >= MIN_SAMPLES
                for samples in walls[False] + (walls[True] if traced_runs else [])
            ):
                break
    except (CheckFailed, subprocess.SubprocessError, OSError) as exc:
        bench.fail(f"run stopped: {exc}", command=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not all(walls[False]) or (traced_runs and not all(profiles)):
        raise SystemExit("bench: not every input set has a result; " + "; ".join(bench.failures))
    for index, values in enumerate(quality):
        if len(values) > 1:
            bench.fail(f"test error differs between commands on input set {index}")
    test_errors = [min(values) for values in quality if values]
    if expected is not None and expected["test_error_pct"] != test_errors:
        bench.fail("test errors differ from golden.json")

    # wall_s is the median over every timed command of the run, whatever
    # its input set: a slow spell on a shared machine then moves it less
    # than it would move a per-set median of two or three samples.
    wall_s = statistics.median(w for per_set in walls[False] for w in per_set)
    if traced_runs:
        summaries = [summarise(p) for p in profiles]
        counts = [c for _, c, _ in summaries]
        for index, (_, _, unsteady) in enumerate(summaries):
            for key in unsteady:
                bench.fail(f"count {key} differs between traced commands on input set {index}")
        if expected is not None and expected["counts"] != counts:
            bench.fail("deterministic counts differ from golden.json")
        writes = [s for s in setup_spans if s.name == "data_io.write_csv"]
        metrics = layer_metrics(
            mean_over_sets([t for t, _, _ in summaries]), mean_over_sets(counts), writes
        )
        traced_wall = statistics.median(w for per_set in walls[True] for w in per_set)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall_s
        metrics["trace.accounted_share"] = statistics.median(
            p["self_total"] / p["wall"] for per_set in profiles for p in per_set
        )
        metrics["test_error_pct"] = statistics.fmean(test_errors) if test_errors else 0.0
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    # BENCHMARK.json declares the metric names and units.
    declared = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if traced_runs else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json")

    if args.record_golden:
        if not traced_runs or args.seed != DEFAULT_SEED or bench.failures:
            raise SystemExit(
                f"bench: record golden.json from a clean --trace 1 run at --seed {DEFAULT_SEED}"
            )
        golden[args.workload] = {
            "inputs": input_digests,
            "outputs": reference,
            "counts": counts,
            "test_error_pct": test_errors,
        }
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed_commands,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": {"rows": workload.rows, "features": workload.features,
                   "relevant": workload.relevant, "restarts": workload.restarts,
                   "input_sets": n_sets},
        "samples": {"wall_s": walls[False], "traced_wall_s": walls[True], "setup_s": setup_s},
        "failures": bench.failures,
        "result": result,
        "spans": [vars(s) for s in tracer.spans],
    }
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    # Pin the BLAS and OpenMP pools before numpy is first imported (with
    # ecnn, in run_workload), so timings do not depend on how many cores
    # the pools grab; the import probe inherits the pin.
    for var in PINNED_THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}, whose outputs golden.json "
        f"pins; {HELD_OUT_SEED} is held out to confirm claims)",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden", action="store_true",
        help=f"store this run's digests and counts in golden.json "
        f"(needs --trace 1 --seed {DEFAULT_SEED})",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if not (SRC / "ecnn" / "__init__.py").is_file():
        print(f"bench: no ecnn sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
