"""Growth loop: ranking, candidate wiring, accept/reject, restarts."""

from __future__ import annotations

import concurrent.futures
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from conftest import anchor_baseline, count_pools, deadline, no_pool
from hypothesis import given, settings
from hypothesis import strategies as st

from ecnn import (
    DataError,
    Dataset,
    EcnnError,
    Feature,
    NeuronSpec,
    PrevNeuron,
    RunSummary,
    STOP_FEATURES_EXHAUSTED,
    STOP_MAX_LAYERS,
    TrainConfig,
    child_seed,
    error_rate,
    forward_batch,
    multi_run,
    rng_for_run,
    save_model,
    select_best,
    split_odd_even,
    synth_dataset,
    used_features,
)
import ecnn.evolve
from ecnn.evolve import _wiring, evolve


def and_dataset(n=400, seed=55):
    """Label = AND of two binary features; four noise columns alongside."""
    gen = np.random.default_rng(seed)
    b0 = (gen.random(n) < 0.5).astype(float)
    b1 = (gen.random(n) < 0.5).astype(float)
    features = np.column_stack([b0, b1, gen.standard_normal((n, 4))])
    return Dataset(features, b0 * b1)


def noise_dataset(n=80, m=4, seed=8):
    gen = np.random.default_rng(seed)
    return Dataset(gen.standard_normal((n, m)), (gen.random(n) < 0.5).astype(float))


class TestBuildCandidate:
    """The wiring helper alone; NeuronSpec rejects what it must not build."""

    def test_first_layer_is_a_feature_pair(self):
        assert _wiring(1, anchor=36, candidate=23) == (Feature(36), Feature(23))

    def test_deep_layer_lists_newest_previous_first(self):
        wiring = _wiring(4, anchor=36, candidate=60)
        assert wiring == (
            PrevNeuron(3), PrevNeuron(2), PrevNeuron(1), Feature(36), Feature(60)
        )
        assert len(wiring) == 5

    def test_anchor_equal_to_candidate_is_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            NeuronSpec(2, _wiring(2, anchor=0, candidate=0), np.zeros(4))

    def test_prior_layer_count_must_match_layer(self):
        with pytest.raises(ValueError, match="needs 4 inputs"):
            NeuronSpec(3, _wiring(2, anchor=0, candidate=1), np.zeros(4))


class TestCandidateWiring:
    """Layer r reads every earlier output newest first, then the anchor,
    then the candidate feature it was accepted on."""

    def grown(self):
        data, _ = synth_dataset(n=400, m=8, relevant=(0, 3), noise_sigma=0.3, seed=11)
        model, trace = evolve(split_odd_even(data), TrainConfig(seed=0),
                              rng_for_run(0, 0))
        assert model.size >= 4
        return model, trace

    def test_first_layer_is_a_feature_pair(self):
        model, trace = self.grown()
        assert model.neurons[0].wiring == (
            Feature(model.anchor_feature), Feature(trace.accepted[0].feature)
        )

    def test_deep_layer_lists_newest_previous_first(self):
        model, trace = self.grown()
        assert model.neurons[3].wiring == (
            PrevNeuron(3), PrevNeuron(2), PrevNeuron(1),
            Feature(model.anchor_feature), Feature(trace.accepted[3].feature),
        )
        for neuron, record in zip(model.neurons, trace.accepted):
            previous = tuple(PrevNeuron(k) for k in range(neuron.layer - 1, 0, -1))
            tail = (Feature(model.anchor_feature), Feature(record.feature))
            assert neuron.wiring == previous + tail


def ranking_of(split, config, rng):
    """The ranking of a growth run: the generator's first draw feeds it,
    so it is the list a ranking of its own would give."""
    return evolve(split, config, rng)[1].ranked_features


class TestRankFeatures:
    def test_label_copy_ranks_first(self):
        gen = np.random.default_rng(13)
        targets = (gen.random(60) < 0.5).astype(float)
        features = np.column_stack([targets, gen.standard_normal((60, 3))])
        split = split_odd_even(Dataset(features, targets))
        ranked = ranking_of(split, TrainConfig(), np.random.default_rng(1))
        assert ranked[0].feature == 0

    def test_identical_columns_tie_exactly_with_lower_index_first(self):
        gen = np.random.default_rng(17)
        column = gen.standard_normal(40)
        features = np.column_stack([gen.standard_normal(40), column, column])
        split = split_odd_even(Dataset(features, (gen.random(40) < 0.5).astype(float)))
        ranked = ranking_of(split, TrainConfig(), np.random.default_rng(2))
        scores = {record.feature: record.score for record in ranked}
        assert scores[1] == scores[2]
        position_1 = [r.feature for r in ranked].index(1)
        assert ranked[position_1 + 1].feature == 2

    def test_two_features_give_two_records(self, small_split):
        ranked = ranking_of(small_split, TrainConfig(), np.random.default_rng(3))
        assert len(ranked) == small_split.m
        assert sorted(r.feature for r in ranked) == list(range(small_split.m))

    def test_scores_ascend(self, small_split):
        ranked = ranking_of(small_split, TrainConfig(), np.random.default_rng(4))
        scores = [r.score for r in ranked]
        assert scores == sorted(scores)

    def test_same_seed_reproduces_ranking(self, small_split):
        first = ranking_of(small_split, TrainConfig(), np.random.default_rng(5))
        second = ranking_of(small_split, TrainConfig(), np.random.default_rng(5))
        assert first == second


@st.composite
def growth_problems(draw):
    """A small synthetic training split and a growth config."""
    m = draw(st.integers(2, 8))
    relevant = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m,
                             unique=True))
    data, _ = synth_dataset(n=draw(st.integers(40, 300)), m=m, relevant=relevant,
                            noise_sigma=draw(st.floats(0.0, 2.0)),
                            seed=draw(st.integers(0, 2**32 - 1)))
    config = TrainConfig(
        delta=draw(st.floats(1e-5, 0.5)),
        max_fit_steps=draw(st.integers(1, 60)),
        max_layers=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32 - 1)),
        advance_on_accept=draw(st.booleans()),
    )
    return split_odd_even(data), config


class TestGrowthInvariants:
    @given(problem=growth_problems())
    @settings(max_examples=60, deadline=None)
    def test_growth_invariants_hold_on_real_runs(self, problem):
        split, config = problem
        model, trace = evolve(split, config, np.random.default_rng(config.seed))

        chain = (trace.ranked_features[0].score,) + tuple(
            record.criterion for record in trace.accepted
        )
        assert all(b < a for a, b in zip(chain, chain[1:]))
        if trace.accepted:
            assert model.criterion_history == chain
        assert [record.layer for record in trace.accepted] == list(
            range(1, len(trace.accepted) + 1)
        )
        for record in trace.rejected:
            assert record.criterion >= record.best_before
        positions = [record.position for record in trace.rejected]
        assert all(position >= 2 for position in positions)
        assert positions == sorted(positions)
        assert (model.neurons[0].p == 1) == (not trace.accepted)


class TestEvolve:
    def test_recovers_the_and_structure(self):
        data = and_dataset()
        split = split_odd_even(data)
        model, trace = evolve(split, TrainConfig(seed=0), rng_for_run(0, 0))
        used = used_features(model)
        assert set(used) >= {0, 1}
        assert error_rate(model, data) == 0.0
        history = model.criterion_history
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_huge_delta_on_noise_yields_degenerate_model(self):
        split = split_odd_even(noise_dataset())
        config = TrainConfig(delta=10.0, seed=2)
        model, trace = evolve(split, config, rng_for_run(2, 0))
        assert trace.accepted == ()
        assert trace.stop_reason == STOP_FEATURES_EXHAUSTED
        assert model.size == 1
        assert model.neurons[0].p == 1
        assert model.criterion_history == (trace.ranked_features[0].score,)
        assert model.anchor_feature == trace.ranked_features[0].feature

    def test_max_layers_one_caps_growth(self):
        data = and_dataset()
        split = split_odd_even(data)
        config = TrainConfig(seed=0, max_layers=1)
        model, trace = evolve(split, config, rng_for_run(0, 0))
        assert model.size == 1
        assert trace.stop_reason == STOP_MAX_LAYERS

    def test_advance_on_accept_tries_each_feature_at_most_once(self):
        data, _ = synth_dataset(n=400, m=8, relevant=(0, 3), noise_sigma=0.3, seed=11)
        split = split_odd_even(data)
        config = TrainConfig(seed=5, advance_on_accept=True)
        model, trace = evolve(split, config, rng_for_run(5, 0))
        accepted = [record.feature for record in trace.accepted]
        rejected = [record.feature for record in trace.rejected]
        assert len(set(accepted)) == len(accepted)
        assert not set(accepted) & set(rejected)
        assert len(accepted) + len(rejected) <= split.m - 1

    @pytest.mark.parametrize("seed", range(8))
    def test_trace_invariants_across_seeds(self, seed):
        data, _ = synth_dataset(n=300, m=7, relevant=(1, 4), noise_sigma=0.5,
                                seed=100 + seed)
        split = split_odd_even(data)
        config = TrainConfig(seed=seed)
        model, trace = evolve(split, config, rng_for_run(seed, 0))

        # acceptance soundness: strict decrease from the starting criterion
        chain = (trace.ranked_features[0].score,) + tuple(
            record.criterion for record in trace.accepted
        )
        assert all(b < a for a, b in zip(chain, chain[1:]))
        if trace.accepted:
            assert model.criterion_history == chain

        # rejection soundness and h monotonicity
        for record in trace.rejected:
            assert record.criterion >= record.best_before
        positions = [record.position for record in trace.rejected]
        assert positions == sorted(positions)
        assert all(position >= 2 for position in positions)

        # feature-selection property: nothing enters without passing the test
        allowed = {model.anchor_feature} | {r.feature for r in trace.accepted}
        assert set(used_features(model)) <= allowed

        # size bounds
        assert 1 <= model.size <= config.max_layers
        assert model.size == max(1, len(trace.accepted))
        assert (model.neurons[0].p == 1) == (len(trace.accepted) == 0)
        assert model.anchor_feature == trace.ranked_features[0].feature

    def test_same_seed_is_fully_reproducible(self, small_split):
        config = TrainConfig(seed=77)
        model_a, trace_a = evolve(small_split, config, rng_for_run(77, 0))
        model_b, trace_b = evolve(small_split, config, rng_for_run(77, 0))
        assert trace_a == trace_b
        assert model_a.criterion_history == model_b.criterion_history
        for na, nb in zip(model_a.neurons, model_b.neurons):
            np.testing.assert_array_equal(na.weights, nb.weights)


class TestAnchorModel:
    def test_matches_the_ranking_head_of_evolve(self, small_split):
        config = TrainConfig(seed=21)
        model, trace = evolve(small_split, config, rng_for_run(21, 0))
        baseline = anchor_baseline(small_split, model.anchor_feature, config,
                                   rng_for_run(21, 0))
        assert model.anchor_feature == trace.ranked_features[0].feature
        assert baseline.criterion_history == (trace.ranked_features[0].score,)
        assert baseline.criterion_history[0] == model.criterion_history[0]
        assert baseline.size == 1 and baseline.neurons[0].p == 1

    def test_degenerate_evolve_equals_anchor_model(self):
        split = split_odd_even(noise_dataset())
        config = TrainConfig(delta=10.0, seed=2)
        model, trace = evolve(split, config, rng_for_run(2, 0))
        assert not trace.accepted
        baseline = anchor_baseline(split, model.anchor_feature, config,
                                   rng_for_run(2, 0))
        assert (model.neurons[0].weights.tobytes()
                == baseline.neurons[0].weights.tobytes())
        assert model.criterion_history == baseline.criterion_history


class TestSeeding:
    def test_child_seed_is_deterministic(self):
        assert child_seed(42, 3) == child_seed(42, 3)

    def test_child_seeds_differ_across_runs_and_masters(self):
        seeds = {child_seed(42, i) for i in range(50)}
        assert len(seeds) == 50
        assert child_seed(42, 0) != child_seed(43, 0)

    def test_rng_for_run_reproduces_the_stream(self):
        a = rng_for_run(9, 4).standard_normal(5)
        b = rng_for_run(9, 4).standard_normal(5)
        np.testing.assert_array_equal(a, b)


def summary(run, train, size=3, **kwargs):
    return RunSummary(
        run_index=run,
        seed=1000 + run,
        model_size=size,
        train_error_pct=train,
        test_error_pct=math.nan,
        selected_features=(0, 1),
        **kwargs,
    )


class TestSelectBest:
    def test_minimal_training_error_wins(self):
        best = select_best([summary(0, 5.0), summary(1, 3.0), summary(2, 4.0)])
        assert best.run_index == 1

    def test_tie_breaks_toward_smaller_model(self):
        best = select_best([summary(0, 3.0, size=4), summary(1, 3.0, size=2)])
        assert best.run_index == 1

    def test_tie_breaks_toward_lower_run_index(self):
        best = select_best([summary(0, 3.0, size=2), summary(1, 3.0, size=2)])
        assert best.run_index == 0

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            select_best([])


class TestMultiRun:
    def test_single_run_returns_that_runs_model(self, small_dataset):
        config = TrainConfig(seed=33)
        best, summaries = multi_run(small_dataset, None, config, runs=1)
        assert len(summaries) == 1
        split = split_odd_even(small_dataset)
        direct, _ = evolve(split, config, rng_for_run(33, 0))
        X = small_dataset.features
        np.testing.assert_array_equal(forward_batch(best, X)[1],
                                      forward_batch(direct, X)[1])

    def test_summaries_are_deterministic(self, small_dataset):
        config = TrainConfig(seed=33)
        _, first = multi_run(small_dataset, None, config, runs=4)
        _, second = multi_run(small_dataset, None, config, runs=4)
        assert first == second

    def test_best_agrees_with_select_best(self, small_dataset):
        config = TrainConfig(seed=33)
        best, summaries = multi_run(small_dataset, None, config, runs=5)
        chosen = select_best(summaries)
        assert best.size == chosen.model_size
        assert used_features(best) == chosen.selected_features

    def test_returns_the_model_the_select_best_run_grew(self, small_dataset, monkeypatch):
        grown = []

        def tracked_evolve(*args):
            model, trace = evolve(*args)
            grown.append(model)
            return model, trace

        monkeypatch.setattr(ecnn.evolve, "evolve", tracked_evolve)
        config = TrainConfig(seed=33)
        best, summaries = multi_run(small_dataset, None, config, runs=6)
        chosen = select_best(summaries)
        assert best is grown[chosen.run_index]
        direct, _ = evolve(
            split_odd_even(small_dataset), config, rng_for_run(33, chosen.run_index)
        )
        X = small_dataset.features
        assert forward_batch(best, X)[1].tolist() == forward_batch(direct, X)[1].tolist()

    def test_an_error_in_a_restart_surfaces_with_its_own_text(
        self, small_dataset, monkeypatch
    ):
        def failing_evolve(*args):
            raise EcnnError("boom")

        monkeypatch.setattr(ecnn.evolve, "evolve", failing_evolve)
        with pytest.raises(EcnnError, match="^boom$"):
            multi_run(small_dataset, None, TrainConfig(seed=33), runs=3)

    def test_an_error_in_a_worker_crosses_with_its_type_and_text(
        self, small_dataset, monkeypatch
    ):
        def failing_evolve(*args):
            raise DataError("boom")

        monkeypatch.setattr(ecnn.evolve, "evolve", failing_evolve)
        with deadline(60), pytest.raises(DataError, match="^boom$"):
            multi_run(small_dataset, None, TrainConfig(seed=33), runs=3, jobs=2)

    def test_a_dead_worker_raises_instead_of_hanging(self, small_dataset, monkeypatch):
        parent = os.getpid()

        def dying_evolve(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("the restart ran in the calling process")

        monkeypatch.setattr(ecnn.evolve, "evolve", dying_evolve)
        with deadline(60), pytest.raises(BrokenProcessPool):
            multi_run(small_dataset, None, TrainConfig(seed=33), runs=3, jobs=2)

    @pytest.mark.parametrize("runs, jobs", [(1, 4), (3, 1)])
    def test_one_worker_or_one_run_starts_no_pool(
        self, small_dataset, monkeypatch, runs, jobs
    ):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _, summaries = multi_run(small_dataset, None, TrainConfig(seed=33), runs, jobs)
        assert len(summaries) == runs

    def test_no_pool_outside_linux(self, small_dataset, tmp_path):
        config = TrainConfig(seed=33)
        one = multi_run(small_dataset, small_dataset, config, runs=3, jobs=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "platform", "darwin")
            started = count_pools(patch)
            two = multi_run(small_dataset, small_dataset, config, runs=3, jobs=2)
        assert started == []
        assert two[1] == one[1]
        for name, (best, _) in (("one", one), ("two", two)):
            save_model(tmp_path / f"{name}.ecnn", best, config)
        assert (tmp_path / "two.ecnn").read_bytes() == (tmp_path / "one.ecnn").read_bytes()

    @given(
        n=st.integers(40, 200),
        m=st.integers(2, 6),
        runs=st.integers(1, 5),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_job_count_gives_the_same_bytes(
        self, tmp_path_factory, n, m, runs, data_seed, seed
    ):
        data, _ = synth_dataset(n=n, m=m, relevant=(0, m - 1), noise_sigma=0.5,
                                seed=data_seed)
        config = TrainConfig(seed=seed)
        folder = tmp_path_factory.mktemp("jobs")
        results = []
        for jobs in (1, 2, 3):
            with deadline(120):
                best, summaries = multi_run(data, data, config, runs, jobs=jobs)
            assert not any(nr.weights.flags.writeable for nr in best.neurons)
            path = folder / f"jobs{jobs}.ecnn"
            save_model(path, best, config)
            results.append((summaries, path.read_bytes()))
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_empty_test_set_names_the_cause(self, small_dataset):
        empty = Dataset(np.empty((0, small_dataset.m)), np.empty(0))
        with pytest.raises(DataError, match="cannot score an empty dataset"):
            multi_run(small_dataset, empty, TrainConfig(seed=33), runs=2)

    @given(
        n=st.integers(40, 200),
        m=st.integers(2, 6),
        runs=st.integers(1, 4),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_restart_yields_a_model(self, n, m, runs, data_seed, seed):
        data, _ = synth_dataset(n=n, m=m, relevant=(0, m - 1), noise_sigma=0.5,
                                seed=data_seed)
        config = TrainConfig(seed=seed)
        best, summaries = multi_run(data, None, config, runs)
        assert len(summaries) == runs
        for i, s in enumerate(summaries):
            assert s.run_index == i
            assert s.seed == child_seed(config.seed, i)
            assert s.model_size >= 1
            assert 0.0 <= s.train_error_pct <= 100.0
        chosen = select_best(summaries)
        assert best.size == chosen.model_size
        assert used_features(best) == chosen.selected_features

    def test_no_test_set_records_nan(self, small_dataset):
        _, summaries = multi_run(small_dataset, None, TrainConfig(seed=1), runs=2)
        assert all(math.isnan(s.test_error_pct) for s in summaries)

    def test_test_errors_are_measured_when_given(self, small_dataset):
        _, summaries = multi_run(small_dataset, small_dataset, TrainConfig(seed=1),
                                 runs=2)
        assert all(0.0 <= s.test_error_pct <= 100.0 for s in summaries)
        assert all(s.train_error_pct == s.test_error_pct for s in summaries)

    def test_zero_feature_columns_raise_a_data_error(self):
        data = Dataset(np.empty((10, 0)), np.arange(10) % 2)
        with pytest.raises(DataError, match="no feature columns"):
            multi_run(data, None, TrainConfig(), runs=1)
        with pytest.raises(DataError, match="no feature columns"):
            split_odd_even(data)

    # multi_run and split_odd_even take Datasets, and no Dataset breaks
    # the data contract: its constructor refuses the data at its row.
    def test_non_finite_feature_raises_a_data_error_at_its_row(self, small_dataset):
        features = small_dataset.features.copy()
        features[5, 1] = np.nan
        message = "^invalid dataset: non-finite feature value at row 6, column 1$"
        with pytest.raises(DataError, match=message):
            Dataset(features, small_dataset.targets)

    def test_a_non_finite_test_feature_raises_at_its_row(self):
        train, _ = synth_dataset(100, 3, (0,), 0.3, 1)
        features = np.array(train.features)
        features[1::2, 1] = np.nan
        message = (r"^invalid dataset \(50 violations\): "
                   r"non-finite feature value at row 2, column 1; .* and 40 more$")
        with pytest.raises(DataError, match=message):
            Dataset(features, train.targets)

    def test_a_target_other_than_0_or_1_raises_at_its_row(self):
        data, _ = synth_dataset(200, 4, (1,), 0.3, 1)
        first = int(np.flatnonzero(data.targets == 1.0)[0]) + 1
        message = (rf"^invalid dataset \(\d+ violations\): "
                   rf"non-binary target at row {first}; .* more$")
        with pytest.raises(DataError, match=message):
            Dataset(data.features, 2.0 * data.targets)

    def test_one_feature_trains(self):
        wide, _ = synth_dataset(60, 2, (0,), 0.3, 1)
        data = Dataset(wide.features[:, :1], wide.targets)
        model, summaries = multi_run(data, data, TrainConfig(seed=2), runs=1)
        assert used_features(model) == (0,)
        assert summaries[0].train_error_pct == summaries[0].test_error_pct

    def test_feature_count_mismatch_raises(self, small_dataset):
        wider = Dataset(np.zeros((4, 5)), np.zeros(4))
        with pytest.raises(DataError, match="feature count"):
            multi_run(small_dataset, wider, TrainConfig(), runs=1)

    def test_runs_must_be_positive(self, small_dataset):
        with pytest.raises(ValueError, match=">= 1"):
            multi_run(small_dataset, None, TrainConfig(), runs=0)

    def test_jobs_must_be_positive(self, small_dataset):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            multi_run(small_dataset, None, TrainConfig(), runs=2, jobs=0)

    def test_run_summaries_record_child_seeds(self, small_dataset):
        config = TrainConfig(seed=90)
        _, summaries = multi_run(small_dataset, None, config, runs=3)
        assert [s.seed for s in summaries] == [child_seed(90, i) for i in range(3)]
        assert [s.run_index for s in summaries] == [0, 1, 2]
