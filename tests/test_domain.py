"""Value-type construction, coercion, and invariant enforcement."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import traced_peak

from ecnn import (
    CascadeModel,
    DataError,
    Dataset,
    Feature,
    FeatureStats,
    NeuronSpec,
    PrevNeuron,
    SplitAB,
    TrainConfig,
    require_finite_features,
    require_valid_dataset,
    split_odd_even,
)


class TestDataset:
    def test_coerces_shapes_and_dtypes(self):
        d = Dataset([[1, 2], [3, 4]], [0, 1])
        assert d.features.dtype == float
        assert d.n == 2 and d.m == 2
        assert d.feature_names is None

    def test_arrays_are_read_only(self):
        d = Dataset([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            d.features[0, 0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.targets = np.zeros(1)

    def test_a_writeable_array_is_copied(self):
        features, targets = np.ones((3, 2)), np.zeros(3)
        d = Dataset(features, targets)
        assert not np.shares_memory(d.features, features)
        assert not np.shares_memory(d.targets, targets)
        features[0, 0] = targets[0] = 9.0
        assert d.features[0, 0] == 1.0 and d.targets[0] == 0.0
        assert features.flags.writeable

    def test_a_frozen_array_that_owns_its_memory_is_taken_as_is(self):
        features, targets = np.ones((3, 2)), np.zeros(3)
        features.flags.writeable = targets.flags.writeable = False
        d = Dataset(features, targets)
        assert d.features is features and d.targets is targets

    def test_a_frozen_view_is_copied(self):
        table = np.arange(12.0).reshape(4, 3)
        table[:, 2] = [0.0, 1.0, 1.0, 0.0]
        table.flags.writeable = False
        d = Dataset(table[:, :2], table[:, 2])
        assert not np.shares_memory(d.features, table)
        assert not np.shares_memory(d.targets, table)
        assert not d.features.flags.writeable and d.features.flags.owndata

    @pytest.mark.parametrize("dtype", [np.float32, ">f8"])
    def test_a_frozen_array_of_another_dtype_is_converted(self, dtype):
        features = np.ones((3, 2), dtype=dtype)
        features.flags.writeable = False
        d = Dataset(features, np.zeros(3))
        assert d.features is not features and d.features.dtype == np.float64

    def test_take_gives_arrays_it_owns_read_only(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1])
        sub = d.take([3, 1])
        for array in (sub.features, sub.targets):
            assert not array.flags.writeable and array.flags.owndata
            assert not np.shares_memory(array, d.features)
            assert not np.shares_memory(array, d.targets)

    def test_take_preserves_order(self):
        d = Dataset([[0.0, 0], [1, 1], [2, 2]], [0, 1, 0], ("a", "b"))
        sub = d.take([2, 0])
        np.testing.assert_array_equal(sub.features[:, 0], [2.0, 0.0])
        np.testing.assert_array_equal(sub.targets, [0.0, 0.0])
        assert sub.feature_names == ("a", "b")

    def test_name_count_must_match_columns(self):
        with pytest.raises(ValueError, match="names"):
            Dataset([[1.0, 2.0]], [0.0], ("only_one",))

    def test_a_bare_string_is_not_a_list_of_names(self):
        with pytest.raises(ValueError, match="feature_names must be a sequence"):
            Dataset([[1.0, 2.0]], [0.0], "ab")

    @pytest.mark.parametrize("n_targets", [2, 4])
    def test_targets_must_be_one_per_row(self, n_targets):
        message = f"^features have 3 rows but there are {n_targets} targets$"
        with pytest.raises(ValueError, match=message):
            Dataset([[1, 2], [3, 4], [5, 6]], [0, 1, 0, 1][:n_targets])

    def test_rejects_non_2d_features(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Dataset([1.0, 2.0], [0.0])


def reference_contract_message(features, targets):
    """The constructor's message for ``features`` and ``targets``, built
    from ``np.argwhere``, or None when both meet the data contract."""
    bad_targets = np.argwhere((targets != 0.0) & (targets != 1.0))
    bad_cells = np.argwhere(~np.isfinite(features))
    problems = [f"non-binary target at row {i + 1}" for (i,) in bad_targets] + [
        f"non-finite feature value at row {i + 1}, column {j}" for i, j in bad_cells
    ]
    if not problems:
        return None
    if len(problems) <= 10:
        return "invalid dataset: " + "; ".join(problems)
    return (
        f"invalid dataset ({len(problems)} violations): "
        + "; ".join(problems[:10])
        + f"; and {len(problems) - 10} more"
    )


CONTRACT_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]), st.floats()
)
CONTRACT_TARGETS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.sampled_from([0.5, -1.0, 2.0, np.nan, np.inf, -np.inf]),
    st.floats(),
)


@st.composite
def contract_inputs(draw):
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 4))
    cells = draw(st.lists(CONTRACT_CELLS, min_size=n * m, max_size=n * m))
    targets = draw(st.lists(CONTRACT_TARGETS, min_size=n, max_size=n))
    return np.array(cells, dtype=float).reshape(n, m), np.array(targets, dtype=float)


class TestValidateDataset:
    @given(contract_inputs())
    def test_a_dataset_is_refused_exactly_when_it_breaks_the_contract(self, inputs):
        features, targets = inputs
        want = reference_contract_message(features, targets)
        if want is None:
            d = Dataset(features, targets)
            assert d.n == len(targets) and d.m == features.shape[1]
        else:
            with pytest.raises(DataError) as excinfo:
                Dataset(features, targets)
            assert str(excinfo.value) == want

    def test_valid_dataset_has_no_violations(self):
        d = Dataset([[1, 2, 3], [4, 5, 6], [7, 8, 9], [0, 1, 2]], [0, 1, 1, 0])
        assert require_valid_dataset(d) is None

    def test_negative_zero_is_valid_in_cells_and_targets(self):
        d = Dataset([[-0.0, 1.0], [2.0, -0.0]], [-0.0, 1.0])
        assert d.n == 2

    def test_non_binary_target_is_reported_with_row(self):
        message = "^invalid dataset: non-binary target at row 2$"
        with pytest.raises(DataError, match=message):
            Dataset([[1, 2], [3, 4]], [0, 2])

    def test_single_feature_is_rejected(self):
        d = Dataset([[1.0], [2.0]], [0, 1])
        message = "^invalid dataset: at least two features required$"
        with pytest.raises(DataError, match=message):
            require_valid_dataset(d)

    def test_non_finite_feature_is_reported_with_position(self):
        message = "non-finite feature value at row 2, column 1"
        with pytest.raises(DataError, match=message):
            Dataset([[1, 2], [3, np.nan]], [0, 1])

    def test_every_violation_is_reported(self):
        with pytest.raises(DataError) as excinfo:
            Dataset([[np.inf], [2.0]], [0, 3])
        assert str(excinfo.value) == (
            "invalid dataset: non-binary target at row 2; "
            "non-finite feature value at row 1, column 0"
        )

    def test_require_valid_passes_silently(self):
        require_valid_dataset(Dataset([[1, 2], [3, 4]], [0, 1]))

    def test_message_is_bounded_on_huge_bad_input(self):
        with pytest.raises(DataError) as excinfo:
            Dataset(np.full((20000, 50), np.nan), np.zeros(20000))
        message = str(excinfo.value)
        assert len(message.encode("utf-8")) < 2048
        assert "1000000 violations" in message
        assert "and 999990 more" in message
        assert message.count("non-finite feature value") == 10
        assert "row 1, column 9" in message and "column 10" not in message

    def test_violations_are_listed_in_order_before_the_cap(self):
        features = np.ones((12, 2))
        features[3, 1] = np.inf
        with pytest.raises(DataError) as excinfo:
            Dataset(features, [2.0] * 11 + [0.0])
        message = str(excinfo.value)
        assert message.startswith("invalid dataset (12 violations): ")
        assert "non-binary target at row 10; and 2 more" in message
        assert "non-finite" not in message

    def test_a_small_message_lists_everything(self):
        with pytest.raises(DataError) as excinfo:
            Dataset([[1, np.nan], [3, 4]], [0, 2])
        assert str(excinfo.value) == (
            "invalid dataset: non-binary target at row 2; "
            "non-finite feature value at row 1, column 1"
        )


class TestRequireFiniteFeatures:
    def test_finite_matrix_passes(self):
        require_finite_features([[1.0, 2.0], [3.0, -4.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_named_by_position(self, value):
        with pytest.raises(DataError, match="non-finite feature value at row 2, column 0"):
            require_finite_features([[1.0, 2.0], [value, 3.0]])

    def test_message_is_bounded(self):
        with pytest.raises(DataError) as excinfo:
            require_finite_features(np.full((1000, 30), np.inf))
        message = str(excinfo.value)
        assert len(message) < 2048
        assert "30000 violations" in message and "and 29990 more" in message


def _pair(n_a=2, n_b=2, m=2):
    a = Dataset(np.arange(n_a * m, dtype=float).reshape(n_a, m), np.zeros(n_a))
    b = Dataset(np.arange(n_b * m, dtype=float).reshape(n_b, m), np.ones(n_b))
    return a, b


class TestSplitAB:
    def test_valid_split(self):
        a, b = _pair()
        split = SplitAB(a, b)
        assert split.set_a.n == 2 and split.set_b.n == 2 and split.m == 2

    def test_feature_count_must_agree(self):
        a, _ = _pair(m=2)
        _, b = _pair(m=3)
        with pytest.raises(ValueError, match="feature count"):
            SplitAB(a, b)

    def test_each_side_needs_an_example(self):
        a, _ = _pair()
        empty = Dataset(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError, match="at least one example"):
            SplitAB(a, empty)

    def test_needs_a_feature_column(self):
        a, b = _pair(m=0)
        with pytest.raises(DataError, match="no feature columns"):
            SplitAB(a, b)

    # split_odd_even is the one builder of a split, so the source-row
    # invariants are checked on what it builds.  Column 0 holds the row.
    @staticmethod
    def _rows_split(n, targets):
        rows = np.arange(n, dtype=float)
        split = split_odd_even(Dataset(np.column_stack([rows, -rows]), targets))
        return split, split.set_a.features[:, 0], split.set_b.features[:, 0]

    @given(n=st.integers(2, 60))
    def test_indices_must_not_intersect(self, n):
        _, rows_a, rows_b = self._rows_split(n, np.arange(n) % 2)
        assert np.intersect1d(rows_a, rows_b).size == 0
        np.testing.assert_array_equal(np.union1d(rows_a, rows_b), np.arange(n))

    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
    def test_source_index_sizes_must_match(self, n, seed):
        targets = (np.random.default_rng(seed).random(n) < 0.5).astype(float)
        split, rows_a, rows_b = self._rows_split(n, targets)
        assert (split.set_a.n, split.set_b.n) == ((n + 1) // 2, n // 2)
        np.testing.assert_array_equal(split.set_a.targets, targets[rows_a.astype(int)])
        np.testing.assert_array_equal(split.set_b.targets, targets[rows_b.astype(int)])


class TestNeuronSpec:
    def test_layer_one_pair(self):
        n = NeuronSpec(1, (Feature(3), Feature(1)), [0.1, 0.2, 0.3])
        assert n.p == 2
        assert n.feature_columns() == (3, 1)

    def test_single_input_fallback_shape(self):
        n = NeuronSpec(1, (Feature(5),), [0.0, 1.0])
        assert n.p == 1 and n.feature_columns() == (5,)

    def test_single_input_must_read_a_feature(self):
        with pytest.raises(ValueError, match="feature column"):
            NeuronSpec(1, (PrevNeuron(1),), [0.0, 1.0])

    def test_deep_layer_chain(self):
        wiring = (PrevNeuron(2), PrevNeuron(1), Feature(0), Feature(4))
        n = NeuronSpec(3, wiring, np.zeros(5))
        assert n.p == 4

    def test_previous_chain_order_is_enforced(self):
        wiring = (PrevNeuron(1), PrevNeuron(2), Feature(0), Feature(4))
        with pytest.raises(ValueError, match="neuron 2"):
            NeuronSpec(3, wiring, np.zeros(5))

    def test_input_count_must_be_layer_plus_one(self):
        with pytest.raises(ValueError, match="needs 3 inputs"):
            NeuronSpec(2, (Feature(0), Feature(1)), np.zeros(3))

    def test_feature_pair_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            NeuronSpec(1, (Feature(2), Feature(2)), np.zeros(3))

    def test_weight_count_is_inputs_plus_bias(self):
        with pytest.raises(ValueError, match="weights"):
            NeuronSpec(1, (Feature(0), Feature(1)), np.zeros(4))

    def test_weights_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            NeuronSpec(1, (Feature(0), Feature(1)), [0.0, np.nan, 1.0])

    def test_tail_must_be_features(self):
        wiring = (PrevNeuron(1), Feature(0), PrevNeuron(1))
        with pytest.raises(ValueError, match="feature columns"):
            NeuronSpec(2, wiring, np.zeros(4))


def _two_layer_model(**kwargs):
    n1 = NeuronSpec(1, (Feature(0), Feature(1)), [0.0, 1.0, -1.0])
    n2 = NeuronSpec(2, (PrevNeuron(1), Feature(0), Feature(2)), [0.1, 0.2, 0.3, 0.4])
    defaults = dict(
        neurons=(n1, n2),
        anchor_feature=0,
        criterion_history=(3.0, 2.0, 1.0),
    )
    defaults.update(kwargs)
    return CascadeModel(**defaults)


class TestCascadeModel:
    def test_neurons_are_sorted_by_layer(self):
        n1 = NeuronSpec(1, (Feature(0), Feature(1)), [0.0, 1.0, -1.0])
        n2 = NeuronSpec(2, (PrevNeuron(1), Feature(0), Feature(2)), np.zeros(4))
        model = CascadeModel((n2, n1), 0, (3.0, 2.0, 1.0))
        assert [n.layer for n in model.neurons] == [1, 2]
        assert model.size == 2

    def test_layers_must_be_consecutive_from_one(self):
        n2 = NeuronSpec(2, (PrevNeuron(1), Feature(0), Feature(2)), np.zeros(4))
        with pytest.raises(ValueError, match="1..1"):
            CascadeModel((n2,), 0, (3.0, 2.0))

    def test_history_must_strictly_decrease(self):
        with pytest.raises(ValueError, match="strictly"):
            _two_layer_model(criterion_history=(3.0, 3.0, 1.0))

    def test_history_length_is_layers_plus_one(self):
        with pytest.raises(ValueError, match="3 entries"):
            _two_layer_model(criterion_history=(3.0, 2.0))

    def test_history_values_must_be_finite_non_negative(self):
        with pytest.raises(ValueError, match="finite"):
            _two_layer_model(criterion_history=(3.0, 2.0, -1.0))

    def test_every_neuron_anchors_on_the_anchor_feature(self):
        with pytest.raises(ValueError, match="anchor"):
            _two_layer_model(anchor_feature=1)

    def test_degenerate_model_has_one_criterion_entry(self):
        neuron = NeuronSpec(1, (Feature(4),), [0.0, 2.0])
        model = CascadeModel((neuron,), 4, (1.5,))
        assert model.size == 1 and model.criterion_history == (1.5,)
        with pytest.raises(ValueError, match="exactly one criterion"):
            CascadeModel((neuron,), 4, (2.0, 1.5))

    def test_required_features_from_wiring(self):
        assert _two_layer_model().required_features == 3

    def test_required_features_prefers_attached_metadata(self):
        stats = FeatureStats(np.zeros(7), np.ones(7))
        assert _two_layer_model(normalization_stats=stats).required_features == 7

    def test_on_columns_rewires_and_cuts_the_metadata(self):
        stats = FeatureStats(np.arange(4.0), np.ones(4))
        model = _two_layer_model(normalization_stats=stats, feature_names=tuple("abcd"))
        picked = model.on_columns([2, 0, 1])
        assert picked.anchor_feature == 1
        assert [nr.feature_columns() for nr in picked.neurons] == [(1, 2), (1, 0)]
        assert picked.normalization_stats.mean.tolist() == [2.0, 0.0, 1.0]
        assert picked.feature_names == ("c", "a", "b")
        with pytest.raises(KeyError, match="2"):
            model.on_columns([0, 1])

    def test_normalization_must_cover_wired_columns(self):
        stats = FeatureStats(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="column 2"):
            _two_layer_model(normalization_stats=stats)

    def test_names_must_cover_wired_columns(self):
        with pytest.raises(ValueError, match="column 2"):
            _two_layer_model(feature_names=("a", "b"))

    def test_a_bare_string_is_not_a_list_of_names(self):
        with pytest.raises(ValueError, match="feature_names must be a sequence"):
            _two_layer_model(feature_names="abc")

    def test_stats_and_names_must_agree(self):
        stats = FeatureStats(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="disagree"):
            _two_layer_model(normalization_stats=stats, feature_names=("a", "b", "c"))

    def test_with_normalization_returns_updated_copy(self):
        base = _two_layer_model(feature_names=("a", "b", "c"))
        stats = FeatureStats(np.zeros(3), np.ones(3))
        stamped = base.with_normalization(stats)
        assert stamped.normalization_stats is stats
        assert stamped.feature_names == ("a", "b", "c")
        assert base.normalization_stats is None

    def test_empty_model_is_rejected(self):
        with pytest.raises(ValueError, match="at least one neuron"):
            CascadeModel((), 0, (1.0,))


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.chi == 1.9
        assert config.delta == 0.0015
        assert config.max_fit_steps == 100
        assert config.max_layers == 50
        assert config.init_sigma == 1.0
        assert config.classification_threshold == 0.5
        assert config.advance_on_accept is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chi": 0.0},
            {"chi": -1.0},
            {"chi": math.inf},
            {"chi": math.nan},
            {"delta": 0.0},
            {"delta": math.inf},
            {"delta": math.nan},
            {"max_fit_steps": 0},
            {"max_layers": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"init_sigma": -0.5},
            {"init_sigma": math.inf},
            {"init_sigma": math.nan},
            {"classification_threshold": 0.0},
            {"classification_threshold": 1.0},
        ],
    )
    def test_invalid_fields_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_zero_init_sigma_is_allowed(self):
        assert TrainConfig(init_sigma=0.0).init_sigma == 0.0

    @pytest.mark.parametrize("field", ["chi", "delta", "init_sigma",
                                       "classification_threshold"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_a_real_field_refuses_a_non_number_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            TrainConfig(**{field: value})

    def test_numbers_are_kept_as_given(self):
        config = TrainConfig(chi=2, delta=np.float32(0.25), init_sigma=0)
        assert type(config.chi) is int and type(config.init_sigma) is int
        assert type(config.delta) is np.float32

    @pytest.mark.parametrize("value", ["false", 0, 1, None, np.True_])
    def test_advance_on_accept_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="advance_on_accept must be True or False"):
            TrainConfig(advance_on_accept=value)


INTEGER_FIELDS = {
    "Feature.column": lambda value: Feature(value),
    "PrevNeuron.layer": lambda value: PrevNeuron(value),
    "NeuronSpec.layer": lambda value: NeuronSpec(value, (Feature(0),), [0.0, 1.0]),
    "CascadeModel.anchor_feature": lambda value: CascadeModel(
        (NeuronSpec(1, (Feature(1),), [0.0, 1.0]),), value, (1.0,)
    ),
    "TrainConfig.seed": lambda value: TrainConfig(seed=value),
    "TrainConfig.max_fit_steps": lambda value: TrainConfig(max_fit_steps=value),
    "TrainConfig.max_layers": lambda value: TrainConfig(max_layers=value),
}


@pytest.mark.parametrize("field", INTEGER_FIELDS)
@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_an_integer_field_refuses_a_non_integer_by_name(field, value):
    with pytest.raises(ValueError, match=f"{field.split('.')[1]} must be an integer"):
        INTEGER_FIELDS[field](value)


class TestFeatureStats:
    def test_transform_centers_and_scales(self):
        stats = FeatureStats(mean=[1.0, 10.0], std=[2.0, 5.0])
        out = stats.transform([[3.0, 0.0]])
        np.testing.assert_allclose(out, [[1.0, -2.0]])

    def test_constant_columns_map_to_zero(self):
        stats = FeatureStats(mean=[1.0, 4.0], std=[2.0, 0.0])
        out = stats.transform([[3.0, 123.0]])
        np.testing.assert_array_equal(out, [[1.0, 0.0]])
        assert stats.constant_columns == (1,)

    def test_scaled_columns_are_exact_and_constant_columns_exactly_zero(self):
        # Subtracting the mean of a constant column would overflow here.
        X = np.array([[1e308, 3.0, np.inf], [-1e308, -2.0, np.nan]])
        stats = FeatureStats(mean=[-1e308, 0.5, 1e308], std=[0.0, 3.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = stats.transform(X)
            row = stats.transform(X[0])
        assert out[:, [0, 2]].view(np.uint64).tolist() == [[0, 0], [0, 0]]
        assert out[:, 1].tolist() == ((X[:, 1] - 0.5) / 3.0).tolist()
        assert row.tolist() == out[0].tolist()

    def test_transform_holds_one_copy_of_the_matrix(self):
        X = np.random.default_rng(3).standard_normal((2000, 30))
        std = np.ones(30)
        std[::7] = 0.0
        stats = FeatureStats(mean=X.mean(axis=0), std=std)
        out, peak = traced_peak(lambda: stats.transform(X))
        assert peak <= 1.5 * out.nbytes

    def test_width_mismatch_raises(self):
        stats = FeatureStats(mean=[0.0], std=[1.0])
        with pytest.raises(DataError, match="mismatch"):
            stats.transform([[1.0, 2.0]])

    def test_statistics_of_some_columns_give_the_bits_of_the_full_transform(
        self, rng
    ):
        # The form forward_batch uses to normalize only the columns a
        # model reads.
        X = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-5, 5, (50, 6))
        std = rng.random(6) + 0.5
        std[[1, 4]] = 0.0
        stats = FeatureStats(mean=rng.standard_normal(6), std=std)
        columns = [4, 0, 3, 1]
        chosen = FeatureStats(stats.mean[columns], stats.std[columns])
        got = chosen.transform(X[:, columns])
        want = stats.transform(X)[:, columns]
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        row = chosen.transform(X[7, columns])
        assert row.view(np.uint64).tolist() == want[7].view(np.uint64).tolist()

    def test_negative_std_is_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FeatureStats(mean=[0.0], std=[-1.0])

    def test_statistics_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureStats(mean=[np.nan], std=[1.0])
