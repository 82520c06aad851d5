"""Forward evaluation, classification, feature usage, and error rates."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecnn import (
    CascadeModel,
    DataError,
    Dataset,
    Feature,
    FeatureStats,
    NeuronSpec,
    PrevNeuron,
    SIGMOID_CLAMP,
    classify_batch,
    error_rate,
    forward_batch,
    used_features,
)

from conftest import build_cascade, random_cascade, traced_peak


def sig(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


class TestForward:
    def test_single_neuron_all_zero_weights(self):
        model = build_cascade([np.zeros(3)], [1])
        outputs, final = forward_batch(model, [[7.0, -3.0]])
        assert final[0] == 0.5
        np.testing.assert_array_equal(outputs, [[0.5]])

    def test_three_level_nested_sigmoid_matches_hand_computation(self):
        w1 = [0.2, -0.5, 0.8]
        w2 = [-0.1, 0.4, 0.3, -0.7]
        w3 = [0.05, 0.6, -0.2, 0.1, 0.9]
        model = build_cascade([w1, w2, w3], [1, 2, 3], anchor=0,
                              criterion_history=(4.0, 3.0, 2.0, 1.0))
        x = [0.3, -1.2, 0.7, 2.0]
        z1 = sig(w1[0] + w1[1] * x[0] + w1[2] * x[1])
        z2 = sig(w2[0] + w2[1] * z1 + w2[2] * x[0] + w2[3] * x[2])
        z3 = sig(w3[0] + w3[1] * z2 + w3[2] * z1 + w3[3] * x[0] + w3[4] * x[3])
        outputs, final = forward_batch(model, [x])
        np.testing.assert_allclose(outputs[:, 0], [z1, z2, z3], atol=1e-12)
        assert final[0] == pytest.approx(z3, abs=1e-12)

    def test_neuron_storage_order_does_not_matter(self, rng):
        n1 = NeuronSpec(1, (Feature(0), Feature(1)), rng.standard_normal(3))
        n2 = NeuronSpec(
            2, (PrevNeuron(1), Feature(0), Feature(2)), rng.standard_normal(4)
        )
        history = (3.0, 2.0, 1.0)
        sorted_model = CascadeModel((n1, n2), 0, history)
        shuffled_model = CascadeModel((n2, n1), 0, history)
        X = rng.standard_normal((1, 3))
        np.testing.assert_array_equal(forward_batch(sorted_model, X)[0],
                                      forward_batch(shuffled_model, X)[0])

    def test_outputs_stay_clamped_for_extreme_inputs(self):
        model = build_cascade([[0.0, 200.0, 200.0]], [1])
        _, final = forward_batch(model, [[1e6, 1e6], [-1e6, -1e6]])
        np.testing.assert_array_equal(final, [1.0 - SIGMOID_CLAMP, SIGMOID_CLAMP])

    def test_a_huge_finite_weight_scores_as_without_the_overflow_guard(
        self, monkeypatch
    ):
        # Tier-1 makes warnings errors, so the first call checks there is none.
        model = build_cascade([[0.0, 1e308, 1e308], [0.5, 1e308, -1.0, 2.0]], [1, 1])
        X = [[3.0, 0.5], [-2.0, -0.5], [0.0, 0.0], [1e-300, 1.0]]
        outputs, _ = forward_batch(model, X)
        monkeypatch.setattr(np, "errstate", lambda **kwargs: contextlib.nullcontext())
        with pytest.warns(RuntimeWarning, match="overflow"):
            unguarded, _ = forward_batch(model, X)
        np.testing.assert_array_equal(outputs, unguarded)

    def test_too_few_columns_raises(self):
        model = build_cascade([np.zeros(3)], [1])
        with pytest.raises(DataError, match="2 feature columns"):
            forward_batch(model, [[1.0]])

    @pytest.mark.parametrize("width", [3, 6])
    def test_a_named_model_reads_rows_exactly_as_wide_as_its_names(self, width):
        model = build_cascade([np.zeros(3)], [1], feature_names=("a", "b", "c", "d"))
        assert forward_batch(model, np.zeros((2, 4)))[1].tolist() == [0.5, 0.5]
        message = f"^model reads 4 feature columns, data has {width}$"
        with pytest.raises(DataError, match=message):
            forward_batch(model, np.zeros((2, width)))

    def test_exact_width_enforced_with_stats(self):
        stats = FeatureStats(np.zeros(2), np.ones(2))
        model = build_cascade([np.zeros(3)], [1], stats=stats)
        with pytest.raises(DataError, match="mismatch"):
            forward_batch(model, [[1.0, 2.0, 3.0]])

    def test_extending_the_cascade_preserves_earlier_outputs(self, rng):
        w1 = rng.standard_normal(3)
        w2 = rng.standard_normal(4)
        w3 = rng.standard_normal(5)
        short = build_cascade([w1, w2], [1, 2], criterion_history=(3.0, 2.0, 1.0))
        extended = build_cascade([w1, w2, w3], [1, 2, 1],
                                 criterion_history=(3.0, 2.0, 1.0, 0.5))
        X = rng.standard_normal((10, 3))
        short_outputs, _ = forward_batch(short, X)
        extended_outputs, _ = forward_batch(extended, X)
        np.testing.assert_array_equal(short_outputs, extended_outputs[:2])

    def test_batch_and_single_agree(self, rng):
        model = build_cascade(
            [rng.standard_normal(3), rng.standard_normal(4)], [1, 2],
            criterion_history=(3.0, 2.0, 1.0),
        )
        X = rng.standard_normal((5, 3))
        batch_outputs, batch_final = forward_batch(model, X)
        for i in range(5):
            outputs, final = forward_batch(model, X[i][None])
            np.testing.assert_array_equal(outputs[:, 0], batch_outputs[:, i])
            assert final[0] == batch_final[i]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300))
    @settings(max_examples=60, deadline=None)
    def test_batch_and_single_agree_to_rounding_on_random_cascades(self, seed, n):
        # Not bit-exact: the BLAS product sums in an order that depends on
        # the batch size, so single rows may differ in the last bits.
        gen = np.random.default_rng(seed)
        model, _ = random_cascade(gen)
        named = model.normalization_stats or model.feature_names
        m = model.required_features if named else 8
        X = gen.normal(0.0, 2.0, (n, m))
        batch_outputs, _ = forward_batch(model, X)
        for i in gen.choice(n, size=min(n, 8), replace=False):
            outputs, _ = forward_batch(model, X[i][None])
            np.testing.assert_allclose(outputs[:, 0], batch_outputs[:, i],
                                       rtol=1e-12, atol=0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_the_model_on_its_used_columns_gives_the_same_bits(self, seed, n):
        gen = np.random.default_rng(seed)
        model, _ = random_cascade(gen)
        named = model.normalization_stats or model.feature_names
        extra = 0 if named else int(gen.integers(0, 3))
        X = gen.normal(0.0, 2.0, (n, model.required_features + extra))
        cols = used_features(model)
        got = forward_batch(model.on_columns(cols), X[:, cols])
        want = forward_batch(model, X)
        for a, b in zip(got, want):
            assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()

    def test_normalization_is_applied_before_evaluation(self, rng):
        stats = FeatureStats(mean=[1.0, -2.0], std=[2.0, 0.5])
        bare = build_cascade([rng.standard_normal(3)], [1])
        stamped = bare.with_normalization(stats)
        raw = rng.standard_normal((4, 2))
        _, expected = forward_batch(bare, stats.transform(raw))
        _, got = forward_batch(stamped, raw)
        np.testing.assert_array_equal(got, expected)

    def test_normalizes_only_the_columns_the_model_reads(self, rng):
        # A model reading 2 of 60 columns must not build a normalized copy
        # of the whole (n, 60) matrix.
        n, m = 20000, 60
        stats = FeatureStats(mean=rng.standard_normal(m), std=rng.random(m) + 0.5)
        model = build_cascade([rng.standard_normal(3)], [41], anchor=7, stats=stats)
        X = rng.standard_normal((n, m))
        (_, got), peak = traced_peak(lambda: forward_batch(model, X))
        assert peak < X.nbytes / 4
        bare = build_cascade([model.neurons[0].weights], [41], anchor=7)
        _, want = forward_batch(bare, stats.transform(X))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("row, bad", [
        ([np.nan, 0.0, 0.0], 0), ([0.0, 0.0, np.inf], 2), ([0.0, -np.inf, 0.0], 1),
    ], ids=["anchor-column", "unread-column", "candidate-column"])
    def test_whole_rows_with_a_non_finite_cell_are_refused(self, row, bad):
        # The model reads columns 0 and 1; column 2 is checked all the same.
        model = build_cascade([np.zeros(3)], [1])
        message = f"^invalid features: non-finite feature value at row 2, column {bad}$"
        with pytest.raises(DataError, match=message):
            forward_batch(model, [[0.0, 0.0, 0.0], row])


class TestClassify:
    def test_boundary_output_maps_to_one(self):
        model = build_cascade([np.zeros(3)], [1])  # output exactly 0.5
        assert classify_batch(model, [[0.0, 0.0]], threshold=0.5)[0] == 1

    def test_below_threshold_maps_to_zero(self):
        model = build_cascade([[-0.1, 0.0, 0.0]], [1])  # output sig(-0.1) < 0.5
        assert classify_batch(model, [[0.0, 0.0]], threshold=0.5)[0] == 0

    def test_zero_weight_model_always_predicts_one(self, rng):
        model = build_cascade([np.zeros(3)], [1])
        X = rng.standard_normal((20, 2))
        np.testing.assert_array_equal(classify_batch(model, X), np.ones(20))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_cell_is_refused_not_labeled(self, value):
        # Even in a column the model does not read.
        model = build_cascade([np.zeros(3)], [1])
        X = np.zeros((3, 3))
        X[1, 2] = value
        message = "^invalid features: non-finite feature value at row 2, column 2$"
        with pytest.raises(DataError, match=message):
            classify_batch(model, X)

    @given(
        lower=st.floats(min_value=0.01, max_value=0.98, allow_nan=False),
        gap=st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_raising_threshold_never_adds_positives(self, lower, gap):
        upper = min(lower + gap, 0.99)
        gen = np.random.default_rng(31)
        model = build_cascade([gen.standard_normal(3)], [1])
        X = gen.standard_normal((25, 2))
        low = classify_batch(model, X, threshold=lower)
        high = classify_batch(model, X, threshold=upper)
        assert np.all(high <= low)


class TestUsedFeatures:
    def test_first_use_order_across_layers(self):
        model = build_cascade(
            [np.zeros(3), np.zeros(4), np.zeros(5)],
            [23, 10, 60],
            anchor=36,
            criterion_history=(4.0, 3.0, 2.0, 1.0),
        )
        assert used_features(model) == (36, 23, 10, 60)

    def test_single_neuron_pair(self):
        model = build_cascade([np.zeros(3)], [1], anchor=0)
        assert used_features(model) == (0, 1)

    def test_repeated_feature_appears_once(self):
        model = build_cascade(
            [np.zeros(3), np.zeros(4)], [5, 5], anchor=2,
            criterion_history=(3.0, 2.0, 1.0),
        )
        assert used_features(model) == (2, 5)

    def test_degenerate_model_uses_only_its_anchor(self):
        neuron = NeuronSpec(1, (Feature(3),), [0.0, 1.0])
        model = CascadeModel((neuron,), 3, (1.0,))
        assert used_features(model) == (3,)


class TestErrorRate:
    def test_perfect_model_scores_zero(self):
        model = build_cascade([[0.0, 10.0, 0.0]], [1])  # label = [x0 >= 0]
        features = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
        data = Dataset(features, [1, 0, 1, 0])
        assert error_rate(model, data) == 0.0

    def test_constant_positive_model_on_quarter_positives(self):
        model = build_cascade([np.zeros(3)], [1])  # always predicts 1
        data = Dataset(np.zeros((8, 2)), [1, 0, 0, 0, 1, 0, 0, 0])
        assert error_rate(model, data) == 75.0

    def test_single_example_is_all_or_nothing(self):
        model = build_cascade([np.zeros(3)], [1])
        assert error_rate(model, Dataset([[0.0, 0.0]], [1])) == 0.0
        assert error_rate(model, Dataset([[0.0, 0.0]], [0])) == 100.0

    def test_empty_dataset_raises(self):
        model = build_cascade([np.zeros(3)], [1])
        with pytest.raises(DataError, match="empty"):
            error_rate(model, Dataset(np.empty((0, 2)), np.empty(0)))

    def test_threshold_changes_the_rate(self):
        model = build_cascade([[0.0, 5.0, 0.0]], [1])
        data = Dataset([[0.1, 0.0], [-0.1, 0.0]], [1, 1])
        assert error_rate(model, data, threshold=0.5) == 50.0
        assert error_rate(model, data, threshold=0.1) == 0.0
