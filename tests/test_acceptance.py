"""Acceptance gate: end-to-end behavioral criteria at fixed tolerances.

Each test prints exactly one line, [PASS] or [FAIL] with a measured
detail, then asserts.  The recovery/generalization criteria share one
module-scoped batch of twenty independent training reps.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import anchor_baseline, random_cascade

from ecnn import (
    Dataset,
    Feature,
    TrainConfig,
    error_rate,
    fit_neuron,
    forward_batch,
    load_model,
    multi_run,
    rng_for_run,
    save_model,
    select_best,
    split_odd_even,
    split_train_test,
    synth_dataset,
)
from ecnn import fitting
from ecnn.cli import run as cli_run
from ecnn.evolve import evolve

RELEVANT = (10, 23, 36, 60)
# Restarts run on every usable CPU; the --jobs byte tests hold their
# results equal to one process's.
JOBS = len(os.sched_getaffinity(0))


def check(capfd, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def recovery_reps():
    """Twenty independent restart-protocol trainings on known-truth data."""
    started = time.perf_counter()
    reps = []
    for rep in range(20):
        master = 1000 + rep
        data, _ = synth_dataset(
            n=2857, m=72, relevant=RELEVANT, noise_sigma=0.5, seed=master
        )
        split_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=master, spawn_key=(1,))
        )
        train, test = split_train_test(data, 0.3, split_rng)
        config = TrainConfig(seed=master)
        model, summaries = multi_run(train, test, config, runs=5, jobs=JOBS)
        best = select_best(summaries)
        baseline = anchor_baseline(
            split_odd_even(train), model.anchor_feature, config,
            np.random.default_rng(best.seed),
        )
        baseline_err = error_rate(
            baseline, test, config.classification_threshold
        )
        same_start = baseline.criterion_history[0] == model.criterion_history[0]
        reps.append((best, baseline_err, same_start))
    return reps, time.perf_counter() - started


class TestAcceptance:
    def test_projection_update_matches_a_naive_oracle(self, capfd):
        gen = np.random.default_rng(404)
        started = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            U = gen.normal(0.0, 2.0, (3, 3))
            w = gen.normal(0.0, 1.0, 3)
            residuals = gen.normal(0.0, 1.0, 3)
            chi = float(gen.uniform(0.1, 2.0))
            got = fitting._project(w, U, residuals, fitting._projection_scale(U, chi))
            norm_sq = sum(U[i][j] ** 2 for i in range(3) for j in range(3))
            expected = [
                w[i] - chi * sum(U[i][j] * residuals[j] for j in range(3)) / norm_sq
                for i in range(3)
            ]
            worst = max(worst, max(abs(float(g) - e) for g, e in zip(got, expected)))
        elapsed = time.perf_counter() - started
        check(
            capfd,
            "projection-oracle",
            worst <= 1e-12 and elapsed < 1.0,
            f"max deviation {worst:.3e} across 100 instances in {elapsed:.2f}s "
            "(bounds: 1e-12, 1s)",
        )

    def test_accepted_criteria_always_decrease(self, capfd):
        data, _ = synth_dataset(n=500, m=10, relevant=(0, 5), noise_sigma=0.5,
                                seed=31)
        split = split_odd_even(data)
        config = TrainConfig(seed=123)
        started = time.perf_counter()
        violations = 0
        for i in range(50):
            model, trace = evolve(split, config, rng_for_run(123, i))
            history = model.criterion_history
            if any(b >= a for a, b in zip(history, history[1:])):
                violations += 1
            chain = (trace.ranked_features[0].score,) + tuple(
                r.criterion for r in trace.accepted
            )
            if any(b >= a for a, b in zip(chain, chain[1:])):
                violations += 1
        elapsed = time.perf_counter() - started
        check(
            capfd,
            "criterion-monotonicity",
            violations == 0 and elapsed < 120.0,
            f"{violations} violations across 50 trainings in {elapsed:.1f}s "
            "(bounds: 0, 120s)",
        )

    def test_relevant_features_are_recovered(self, recovery_reps, capfd):
        reps, elapsed = recovery_reps
        hits = [
            len(set(best.selected_features) & set(RELEVANT)) for best, _, _ in reps
        ]
        good = sum(1 for h in hits if h >= 2)
        median_count = statistics.median(
            len(best.selected_features) for best, _, _ in reps
        )
        check(
            capfd,
            "feature-recovery",
            good >= 16 and median_count <= 10 and elapsed < 600.0,
            f"{good}/20 reps recovered >= 2 of 4 relevant features, median "
            f"selected-feature count {median_count:g} in {elapsed:.1f}s "
            "(bounds: 16, 10, 600s)",
        )

    def test_grown_cascades_beat_the_anchor_baseline(self, recovery_reps, capfd):
        reps, _ = recovery_reps
        wins = sum(
            1 for best, baseline_err, _ in reps if best.test_error_pct <= baseline_err
        )
        same_start = sum(1 for _, _, same in reps if same)
        check(
            capfd,
            "beats-anchor-baseline",
            wins >= 16 and same_start == 20,
            f"best model matched or beat the single-input baseline on held-out "
            f"data in {wins}/20 reps; the baseline's criterion equals the best "
            f"model's starting criterion in {same_start}/20 (bounds: 16, 20)",
        )

    def test_fitting_stops_within_the_step_budget(self, capfd):
        data, _ = synth_dataset(n=2000, m=72, relevant=RELEVANT, noise_sigma=0.5,
                                seed=42)
        split = split_odd_even(data)
        config = TrainConfig(seed=7)
        gen = np.random.default_rng(7)
        steps = []
        for _ in range(200):
            anchor, candidate = gen.choice(72, size=2, replace=False)
            wiring = (Feature(int(anchor)), Feature(int(candidate)))
            result = fit_neuron(split, wiring, None, None, config, gen)
            steps.append(result.steps_taken)
        median_steps = statistics.median(steps)
        capped = sum(1 for s in steps if s >= config.max_fit_steps)
        check(
            capfd,
            "fit-step-budget",
            median_steps <= 30,
            f"median {median_steps:g} fitting steps across 200 neuron fits, "
            f"{capped} hit the cap (bound: median <= 30)",
        )

    def test_restarts_produce_diverse_model_sizes(self, capfd):
        data, _ = synth_dataset(n=600, m=12, relevant=(1, 4, 7), noise_sigma=0.6,
                                seed=21)
        config = TrainConfig(seed=77)
        _, summaries = multi_run(data, None, config, runs=100, jobs=JOBS)
        assert len(summaries) == 100
        sizes = {s.model_size for s in summaries}
        within = all(1 <= size <= config.max_layers for size in sizes)
        check(
            capfd,
            "size-diversity",
            len(sizes) >= 3 and within,
            f"{len(sizes)} distinct model sizes across 100 runs, all within "
            f"[1, {config.max_layers}] (bound: >= 3)",
        )

    def test_full_pipeline_is_byte_deterministic(self, tmp_path, capfd):
        def pipeline(workdir: Path) -> str:
            workdir.mkdir()
            previous = os.getcwd()
            os.chdir(workdir)
            try:
                from contextlib import redirect_stdout
                import io

                buffer = io.StringIO()
                with redirect_stdout(buffer):
                    for argv in (
                        ["synth", "--n", "600", "--m", "12", "--relevant",
                         "1,4,7", "--noise", "0.6", "--seed", "21",
                         "--out", "synth.csv"],
                        ["train", "--data", "synth.csv", "--label", "y",
                         "--runs", "100", "--seed", "77",
                         "--test-fraction", "0.25", "--out", "model.ecnn"],
                        ["predict", "--model", "model.ecnn", "--data",
                         "synth.csv", "--label", "y", "--out", "scores.csv"],
                        ["eval", "--model", "model.ecnn", "--data", "synth.csv",
                         "--label", "y"],
                        ["report", "--summary", "model.runs.csv"],
                    ):
                        assert cli_run(argv) == 0, argv
                return buffer.getvalue()
            finally:
                os.chdir(previous)

        stdout_a = pipeline(tmp_path / "a")
        stdout_b = pipeline(tmp_path / "b")
        artifacts = ["synth.csv", "synth.truth.json", "model.ecnn",
                     "model.runs.csv", "scores.csv"]
        differing = [
            name
            for name in artifacts
            if (tmp_path / "a" / name).read_bytes()
            != (tmp_path / "b" / name).read_bytes()
        ]
        check(
            capfd,
            "pipeline-determinism",
            not differing and stdout_a == stdout_b,
            f"two identical synth/train(100 runs)/predict/eval/report pipelines: "
            f"{len(artifacts) - len(differing)}/{len(artifacts)} artifacts "
            f"byte-identical, stdout {'identical' if stdout_a == stdout_b else 'differs'}"
            + (f", differing: {differing}" if differing else ""),
        )

    def test_validation_split_halves_the_benchmark_size(self, capfd):
        data = Dataset(
            np.random.default_rng(0).standard_normal((2244, 3)), np.zeros(2244)
        )
        split = split_odd_even(data)
        check(
            capfd,
            "validation-split",
            (split.set_a.n, split.set_b.n) == (1122, 1122),
            f"2244 examples split into {split.set_a.n} fitting / "
            f"{split.set_b.n} validation (expected 1122/1122)",
        )

    def test_saved_models_reload_bit_identically(self, tmp_path, capfd):
        gen = np.random.default_rng(909)
        path = tmp_path / "m.ecnn"
        mismatches = 0
        for _ in range(1000):
            model, config = random_cascade(gen)
            save_model(path, model, config)
            loaded, _ = load_model(path)
            width = max(model.required_features, 2)
            X = gen.standard_normal((100, width))
            _, before = forward_batch(model, X)
            _, after = forward_batch(loaded, X)
            if not np.array_equal(before, after):
                mismatches += 1
        check(
            capfd,
            "model-round-trip",
            mismatches == 0,
            f"{mismatches} of 1000 random models changed any of 100 outputs "
            "after a save/load cycle (bound: 0)",
        )

    def test_training_finishes_within_a_minute(self, capfd):
        data, _ = synth_dataset(n=2244, m=72, relevant=RELEVANT, noise_sigma=0.5,
                                seed=1)
        split = split_odd_even(data)
        started = time.perf_counter()
        model, _ = evolve(split, TrainConfig(seed=1), rng_for_run(1, 0))
        elapsed = time.perf_counter() - started
        check(
            capfd,
            "training-speed",
            elapsed < 60.0,
            f"one training on 2244 examples x 72 features took {elapsed:.2f}s "
            f"and grew {model.size} neuron(s) (bound: 60s)",
        )
