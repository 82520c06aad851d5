"""Projection fitting: oracles, hand cases, and algebraic properties."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ecnn import (
    DataError,
    Dataset,
    Feature,
    PrevNeuron,
    TrainConfig,
    fit_neuron,
)
from ecnn.domain import SplitAB
from ecnn import fitting
from ecnn.fitting import (
    FitResult,
    SIGMOID_CLAMP,
    _norm,
    _project,
    _projection_scale,
    design_matrix,
    fit_neuron_from_init,
    init_weights,
    sigmoid,
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def validation_error(residuals_b) -> float:
    """Oracle: the Euclidean norm ||eta_B|| of the validation residuals."""
    return float(np.linalg.norm(residuals_b))


def projection_update(weights, inputs_a, residuals_a, chi):
    """Oracle: one projection step w - chi * (U eta) / ||U||^2, with the
    Frobenius norm over every entry of U, bias row included."""
    U = np.asarray(inputs_a, dtype=float)
    return np.asarray(weights) - (chi / np.sum(U * U)) * (U @ residuals_a)


def kernel_step(weights, inputs_a, residuals_a, chi):
    """The step exactly as the fit kernel takes it."""
    U = np.asarray(inputs_a, dtype=float)
    return _project(np.asarray(weights, dtype=float), U,
                    np.asarray(residuals_a, dtype=float), _projection_scale(U, chi))


def make_split(features_a, targets_a, features_b, targets_b):
    """The split of side A and side B, held as one Dataset, B's rows first."""
    rows = Dataset(np.vstack((features_b, features_a)),
                   np.concatenate((targets_b, targets_a)))
    return SplitAB(rows, len(targets_b))


def stack_prior(prior_a, prior_b):
    """Per-side prior output rows as the fit takes them: one (layers,
    n_b + n_a) matrix, B's columns first; None without layers."""
    return np.hstack((prior_b, prior_a)) if prior_a else None


class TestSigmoid:
    def test_zero_gives_one_half(self):
        assert sigmoid(np.array([0.0])).tolist() == [0.5]

    def test_log_three_gives_three_quarters(self):
        assert sigmoid(np.array([math.log(3.0)]))[0] == pytest.approx(0.75, abs=1e-15)

    def test_saturation_clamps(self):
        assert sigmoid(np.array([100.0])).tolist() == [1.0 - SIGMOID_CLAMP]
        assert sigmoid(np.array([-100.0])).tolist() == [SIGMOID_CLAMP]
        np.testing.assert_array_equal(
            sigmoid(np.array([100.0, -100.0])), [1.0 - SIGMOID_CLAMP, SIGMOID_CLAMP]
        )

    @given(st.lists(finite_floats, min_size=1, max_size=5))
    def test_output_is_always_inside_unit_interval(self, inputs):
        out = sigmoid(0.5 + 0.5 * np.asarray(inputs))
        assert np.all((SIGMOID_CLAMP <= out) & (out <= 1.0 - SIGMOID_CLAMP))


class TestValidationError:
    """The kernel's criterion norm against hand cases and the oracle."""

    def test_zero_residuals(self):
        assert _norm(np.zeros(3)) == 0.0

    def test_three_four_five(self):
        assert _norm(np.array([3.0, 4.0])) == 5.0

    def test_single_negative_element(self):
        assert _norm(np.array([-0.5])) == 0.5

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_matches_naive_root_sum_of_squares(self, residuals):
        naive = math.sqrt(sum(r * r for r in residuals))
        assert _norm(np.array(residuals)) == pytest.approx(naive, abs=1e-12, rel=1e-12)

    def test_is_the_euclidean_norm(self, rng):
        residuals = rng.standard_normal(40)
        assert _norm(residuals) == validation_error(residuals)


class TestProjectionUpdate:
    """The kernel's projection step against hand cases and the oracle."""

    def test_zero_residuals_leave_weights_unchanged(self, rng):
        w = rng.standard_normal(3)
        U = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(kernel_step(w, U, np.zeros(5), 1.9), w)

    def test_zero_chi_leaves_weights_unchanged(self, rng):
        w = rng.standard_normal(3)
        U = rng.standard_normal((3, 5))
        eta = rng.standard_normal(5)
        np.testing.assert_array_equal(kernel_step(w, U, eta, 0.0), w)

    def test_hand_computed_single_example(self):
        # ||U||^2 = 2, correction = 1.9 * (1/2) * (0.5, 0.5)
        w = kernel_step([0.0, 0.0], [[1.0], [1.0]], [0.5], 1.9)
        np.testing.assert_allclose(w, [-0.475, -0.475], atol=1e-15)

    @given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    @settings(max_examples=50)
    def test_correction_is_linear_in_residuals(self, scale):
        gen = np.random.default_rng(99)
        w = gen.standard_normal(4)
        U = gen.standard_normal((4, 6))
        eta = gen.standard_normal(6)
        base = kernel_step(w, U, eta, 1.9) - w
        scaled = kernel_step(w, U, scale * eta, 1.9) - w
        np.testing.assert_allclose(scaled, scale * base, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.5, 2.0, -3.0, 10.0])
    def test_scaling_inputs_scales_correction_inversely(self, scale, rng):
        w = rng.standard_normal(3)
        U = rng.standard_normal((3, 7))
        eta = rng.standard_normal(7)
        base = kernel_step(w, U, eta, 1.9) - w
        scaled = kernel_step(w, scale * U, eta, 1.9) - w
        np.testing.assert_allclose(scaled, base / scale, atol=1e-10)

    @given(p=st.integers(1, 8), n_a=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_kernel_step_matches_the_formula(self, p, n_a, seed):
        gen = np.random.default_rng(seed)
        w = gen.standard_normal(p + 1)
        U = np.vstack([gen.standard_normal((p, n_a)), np.ones(n_a)])
        eta = gen.random(n_a) - 0.5
        np.testing.assert_allclose(kernel_step(w, U, eta, 1.9),
                                   projection_update(w, U, eta, 1.9),
                                   rtol=0, atol=1e-12)


class TestInitWeights:
    def test_same_seed_reproduces(self):
        a = init_weights(3, 0.1, np.random.default_rng(7))
        b = init_weights(3, 0.1, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = init_weights(3, 0.1, np.random.default_rng(7))
        b = init_weights(3, 0.1, np.random.default_rng(8))
        assert not np.array_equal(a, b)

    def test_zero_sigma_gives_zero_vector(self):
        np.testing.assert_array_equal(
            init_weights(4, 0.0, np.random.default_rng(1)), np.zeros(4)
        )

    def test_length_matches_request(self):
        assert len(init_weights(5, 1.0, np.random.default_rng(0))) == 5

    def test_needs_bias_plus_one_input(self):
        with pytest.raises(ValueError):
            init_weights(1, 1.0, np.random.default_rng(0))


class TestDesignMatrix:
    def test_bias_row_comes_first(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        U = design_matrix(X, (Feature(1), Feature(0)), None)
        np.testing.assert_array_equal(U, [[1.0, 1.0], [2.0, 4.0], [1.0, 3.0]])

    def test_previous_outputs_are_picked_by_layer(self):
        X = np.array([[1.0, 2.0]])
        prior = [np.array([0.25]), np.array([0.75])]
        U = design_matrix(X, (PrevNeuron(2), PrevNeuron(1)), prior)
        np.testing.assert_array_equal(U, [[1.0], [0.75], [0.25]])

    def test_missing_prior_output_raises(self):
        with pytest.raises(DataError, match="prior"):
            design_matrix(np.array([[1.0, 2.0]]), (PrevNeuron(1), Feature(0)), None)

    def test_prior_outputs_of_the_wrong_length_raise(self):
        with pytest.raises(DataError, match="stacked"):
            design_matrix(np.array([[1.0, 2.0]]), (PrevNeuron(1),), [np.zeros(2)])

    def test_column_out_of_range_raises(self):
        with pytest.raises(DataError, match="column 5"):
            design_matrix(np.array([[1.0, 2.0]]), (Feature(5),), None)


class TestFitResult:
    def test_criterion_and_steps_come_from_the_trace(self):
        result = FitResult(np.zeros(2), [2.0, 1.5])
        assert result.criterion == 1.5
        assert result.steps_taken == 2

    def test_arrays_are_read_only(self):
        result = FitResult(np.zeros(2), [2.0, 1.5])
        with pytest.raises(ValueError):
            result.weights[0] = 1.0

    @pytest.mark.parametrize("weights, trace, message", [
        (np.zeros((2, 1)), [1.0], "weights must be 1-dimensional"),
        ([0.0, np.nan], [1.0], "weights must be finite"),
        ([0.0, 1.0], 1.0, "eb_trace must be 1-dimensional"),
        ([0.0, 1.0], [], "eb_trace must hold at least one entry"),
        ([0.0, 1.0], [1.0, -0.5], "validation errors must be finite and >= 0"),
        ([0.0, 1.0], [np.inf], "validation errors must be finite and >= 0"),
    ])
    def test_invalid_fields_are_refused(self, weights, trace, message):
        with pytest.raises(ValueError, match=message):
            FitResult(weights, trace)


class TestFitNeuron:
    WIRING = (Feature(0), Feature(1))

    def test_same_seed_is_bit_reproducible(self, small_split):
        config = TrainConfig()
        a = fit_neuron(small_split, self.WIRING, None, config,
                       np.random.default_rng(5))
        b = fit_neuron(small_split, self.WIRING, None, config,
                       np.random.default_rng(5))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.eb_trace, b.eb_trace)
        assert a.criterion == b.criterion and a.steps_taken == b.steps_taken

    def test_huge_delta_stops_at_step_two(self, small_split):
        config = TrainConfig(delta=10.0)
        result = fit_neuron(small_split, self.WIRING, None, config,
                            np.random.default_rng(3))
        assert result.steps_taken == 2
        assert len(result.eb_trace) == 2

    def test_trace_invariants_hold(self, small_split):
        config = TrainConfig()
        result = fit_neuron(small_split, self.WIRING, None, config,
                            np.random.default_rng(11))
        assert len(result.eb_trace) == result.steps_taken <= config.max_fit_steps
        assert result.criterion == result.eb_trace[-1]

    def test_final_gap_is_below_delta_when_not_capped(self, small_split):
        config = TrainConfig()
        result = fit_neuron(small_split, self.WIRING, None, config,
                            np.random.default_rng(13))
        assert result.steps_taken < config.max_fit_steps
        gap = result.eb_trace[-2] - result.eb_trace[-1]
        assert gap < config.delta

    def test_step_cap_is_never_exceeded(self, small_split):
        config = TrainConfig(max_fit_steps=5, delta=1e-12)
        result = fit_neuron(small_split, self.WIRING, None, config,
                            np.random.default_rng(17))
        assert result.steps_taken == 5

    def test_informative_feature_improves_and_stops_before_cap(self, small_split):
        # feature 0 separates the classes: the fit should end on the
        # stopping rule, not the step cap, and beat its starting error
        config = TrainConfig()
        result = fit_neuron(small_split, (Feature(0),), None, config,
                            np.random.default_rng(19))
        assert result.steps_taken < config.max_fit_steps
        assert result.criterion < result.eb_trace[0]

    def test_validation_increase_keeps_previous_weights(self):
        # fitting side wants outputs at 0, validating side wants 1: every
        # update step makes the validation error worse, so fitting stops
        # at step 2 and returns the untouched initial weights while the
        # criterion keeps the measured (worse) value
        features = np.full((4, 2), 2.0)
        split = make_split(features, np.zeros(4), features, np.ones(4))
        config = TrainConfig()
        init = np.zeros(3)
        result = fit_neuron_from_init(split, self.WIRING, None, init, config)
        assert result.steps_taken == 2
        assert result.eb_trace[1] > result.eb_trace[0]
        np.testing.assert_array_equal(result.weights, init)
        assert result.criterion == result.eb_trace[1]

    def test_constant_target_error_decreases(self):
        gen = np.random.default_rng(23)
        features = gen.standard_normal((40, 2))
        split = make_split(features[:20], np.zeros(20), features[20:], np.zeros(20))
        config = TrainConfig()
        result = fit_neuron(split, self.WIRING, None, config,
                            np.random.default_rng(29))
        assert result.eb_trace[-1] < result.eb_trace[0]

    def test_first_criterion_is_the_residual_norm_of_the_init(self):
        # zero weights output 1/2 everywhere, so every residual is 1/2
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        split = make_split(features, np.zeros(2), features, np.zeros(2))
        config = TrainConfig(max_fit_steps=1)
        result = fit_neuron_from_init(split, self.WIRING, None, np.zeros(3),
                                      config)
        assert result.eb_trace.tolist() == [math.sqrt(0.5)]

    def test_first_criterion_single_example_arithmetic(self):
        # sigmoid(log 3) = 3/4 against a target of 1 leaves a residual of 1/4
        features = np.array([[1.0, 0.0]])
        split = make_split(features, np.ones(1), features, np.ones(1))
        config = TrainConfig(max_fit_steps=1)
        result = fit_neuron_from_init(split, (Feature(0),), None,
                                      np.array([0.0, math.log(3.0)]), config)
        assert result.criterion == pytest.approx(0.25, abs=1e-15)

    def test_init_length_must_match_wiring(self, small_split):
        with pytest.raises(DataError, match="initial"):
            fit_neuron_from_init(
                small_split, self.WIRING, None, np.zeros(5), TrainConfig()
            )

    def test_prior_rows_over_side_a_alone_raise(self, small_split):
        # One output per row of the whole split, B then A, is the layout.
        n = small_split.rows.n
        side_a_only = [np.full(n - small_split.n_b, 0.5)]
        wiring = (PrevNeuron(1),) + self.WIRING
        with pytest.raises(DataError, match=rf"\(layers, {n}\), got shape \(1, "):
            fit_neuron_from_init(small_split, wiring, side_a_only, np.zeros(4),
                                 TrainConfig())


def reference_fit(split, wiring, prior, init, config):
    """The projection loop written plainly from the oracle formulas above.

    Returns (weights, criterion, steps, trace, cause) where cause is how
    the loop ended: "gain" (improvement below delta), "rise" (validation
    error went up), "cap" (ran all steps, more than one) or "single"
    (max_fit_steps == 1).
    """
    side_b, side_a = slice(None, split.n_b), slice(split.n_b, None)

    def design(side):
        # Each side's design matrix is built from that side's rows alone.
        rows = None if prior is None else np.asarray(prior)[:, side]
        return design_matrix(split.rows.features[side], wiring, rows)

    U_A, U_B = design(side_a), design(side_b)
    targets_a, targets_b = split.rows.targets[side_a], split.rows.targets[side_b]
    w_cur = np.asarray(init, dtype=float)
    w_prev, prev_eb, trace = w_cur, math.inf, []
    for k in range(1, config.max_fit_steps + 1):
        eb = validation_error(sigmoid(w_cur @ U_B) - targets_b)
        trace.append(eb)
        if k >= 2 and prev_eb - eb < config.delta:
            if eb > prev_eb:
                return w_prev, eb, k, trace, "rise"
            return w_cur, eb, k, trace, "gain"
        if k < config.max_fit_steps:
            residuals_a = sigmoid(w_cur @ U_A) - targets_a
            w_prev, prev_eb = w_cur, eb
            w_cur = projection_update(w_cur, U_A, residuals_a, config.chi)
    cause = "single" if config.max_fit_steps == 1 else "cap"
    return w_cur, trace[-1], len(trace), trace, cause


@st.composite
def fit_problems(draw, case):
    """A split, a wiring over features and prior outputs, an init and a
    config, shaped so that the loop usually ends the way ``case`` names."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_a = draw(st.integers(1, 40))
    n_b = n_a if case == "rise" else draw(st.integers(1, 40))
    m = draw(st.integers(2, 5))
    layers = draw(st.integers(0, 3))
    columns = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
    wiring = tuple(PrevNeuron(r) for r in range(layers, 0, -1)) + tuple(
        Feature(c) for c in columns
    )
    features_a = gen.normal(0.0, draw(st.floats(0.1, 5.0)), (n_a, m))
    if case == "rise":
        # fit towards 0 and validate against 1 on the same inputs
        features_b, targets_a, targets_b = features_a, np.zeros(n_a), np.ones(n_b)
        prior_a = [gen.uniform(0.0, 1.0, n_a) for _ in range(layers)]
        prior_b = prior_a
        init = np.zeros(len(wiring) + 1)
    else:
        features_b = gen.normal(0.0, 1.0, (n_b, m))
        targets_a = (gen.random(n_a) < 0.5).astype(float)
        targets_b = (gen.random(n_b) < 0.5).astype(float)
        prior_a = [gen.uniform(0.0, 1.0, n_a) for _ in range(layers)]
        prior_b = [gen.uniform(0.0, 1.0, n_b) for _ in range(layers)]
        init = gen.normal(0.0, draw(st.floats(0.0, 3.0)), len(wiring) + 1)
    steps = {"single": 1, "cap": draw(st.integers(2, 6))}.get(case, 100)
    delta = {"cap": 1e-300, "rise": 1e-3}.get(case) or draw(st.floats(1e-4, 0.1))
    config = TrainConfig(chi=draw(st.floats(0.1, 1.9)), delta=delta,
                         max_fit_steps=steps)
    split = make_split(features_a, targets_a, features_b, targets_b)
    return split, wiring, stack_prior(prior_a, prior_b), init, config


class TestKernelEquivalence:
    """fit_neuron_from_init must reproduce the plain reference loop bit for
    bit, however it arranges the work of a step."""

    @pytest.mark.parametrize("case", ["gain", "rise", "cap", "single"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop_bit_for_bit(self, case, data):
        split, wiring, prior, init, config = data.draw(fit_problems(case))
        weights, criterion, steps, trace, cause = reference_fit(
            split, wiring, prior, init, config
        )
        assume(cause == case)
        result = fit_neuron_from_init(split, wiring, prior, init, config)
        assert result.weights.tobytes() == np.asarray(weights, dtype=float).tobytes()
        assert result.eb_trace.tobytes() == np.asarray(trace).tobytes()
        assert result.criterion == criterion
        assert result.steps_taken == steps

    @pytest.mark.parametrize("n_a, n_b, inputs", [
        (1429, 1428, 3), (1429, 1428, 5), (14000, 13999, 4),
    ])
    def test_matches_reference_loop_at_bench_sizes(self, n_a, n_b, inputs):
        # Long vectors take other BLAS paths than the drawn problems, and the
        # A residuals start n_b doubles into the kernel's buffer.
        split, wiring, prior, init = layered_problem(n_a, n_b, inputs, 7)
        config = TrainConfig(chi=0.5, delta=1e-300, max_fit_steps=100)
        weights, _, steps, trace, cause = reference_fit(
            split, wiring, prior, init, config
        )
        assert (cause, steps) == ("cap", 100)
        result = fit_neuron_from_init(split, wiring, prior, init, config)
        assert result.weights.tobytes() == weights.tobytes()
        assert result.eb_trace.tobytes() == np.asarray(trace).tobytes()


def layered_problem(n_a, n_b, inputs, seed):
    """A split of two noisy linearly labelled halves and a layer-r wiring
    of ``inputs`` = r + 1 sources, r - 1 of them prior outputs, as growth
    fits them: (split, wiring, prior, init)."""
    gen = np.random.default_rng(seed)
    layers = inputs - 2
    wiring = tuple(PrevNeuron(r) for r in range(layers, 0, -1)) + (
        Feature(0), Feature(3),
    )

    def half(n):
        X = gen.normal(0.0, 1.0, (n, 4))
        y = (X[:, 0] - X[:, 3] + gen.normal(0.0, 1.0, n) > 0).astype(float)
        return X, y, [gen.uniform(0.0, 1.0, n) for _ in range(layers)]

    (X_a, y_a, prior_a), (X_b, y_b, prior_b) = half(n_a), half(n_b)
    init = gen.normal(0.0, 1.0, inputs + 1)
    return make_split(X_a, y_a, X_b, y_b), wiring, stack_prior(prior_a, prior_b), init


class TestOneSigmoidPassPerStep:
    """However a fit stops, each step it takes calls the sigmoid once."""

    @pytest.mark.parametrize("cause, config", [
        ("gain", TrainConfig(delta=0.05)),
        ("cap", TrainConfig(chi=0.5, delta=1e-300, max_fit_steps=30)),
        ("single", TrainConfig(max_fit_steps=1)),
    ])
    def test_each_step_calls_the_sigmoid_once(self, monkeypatch, cause, config):
        problem = layered_problem(300, 200, 3, 11)
        assert reference_fit(*problem, config)[4] == cause
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return expit(*args, **kwargs)

        monkeypatch.setattr(fitting, "expit", counted)
        result = fit_neuron_from_init(*problem, config)
        assert len(calls) == result.steps_taken
