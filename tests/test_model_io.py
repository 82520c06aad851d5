"""Model persistence: canonical JSON, round trips, and format errors."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import WRONGLY_TYPED_MODEL_FIELDS, write_wrongly_typed_model

from ecnn import (
    CascadeModel,
    Feature,
    ModelFormatError,
    NeuronSpec,
    PrevNeuron,
    TrainConfig,
    dump_canonical_json,
    forward_batch,
    load_model,
    save_model,
)
from ecnn.domain import FeatureStats
from ecnn.model_io import FORMAT_VERSION, model_to_payload, payload_to_model


class TestRoundTrip:
    # Both files are rewritten in full by every example, so sharing one
    # tmp_path across examples is safe.
    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_save_load_save_is_byte_identical(self, tmp_path, model_factory, seed):
        model, config = model_factory(np.random.default_rng(seed))
        first = tmp_path / "a.ecnn"
        second = tmp_path / "b.ecnn"
        save_model(first, model, config)
        loaded, loaded_config = load_model(first)
        save_model(second, loaded, loaded_config)
        assert first.read_bytes() == second.read_bytes()

    def test_forward_is_bit_equal_after_reload(self, tmp_path, model_factory):
        gen = np.random.default_rng(502)
        for _ in range(20):
            model, config = model_factory(gen)
            path = tmp_path / "m.ecnn"
            save_model(path, model, config)
            loaded, _ = load_model(path)
            width = max(model.required_features, 2)
            X = gen.standard_normal((16, width))
            np.testing.assert_array_equal(forward_batch(model, X)[1],
                                          forward_batch(loaded, X)[1])

    def test_config_round_trips_exactly(self, tmp_path, cascade_builder):
        config = TrainConfig(chi=1.7, delta=0.002, max_fit_steps=64,
                             max_layers=12, seed=987654321, init_sigma=0.5,
                             classification_threshold=0.4,
                             advance_on_accept=True)
        model = cascade_builder([np.array([0.1, -0.2, 0.3])],
                                candidate_features=[1])
        path = tmp_path / "m.ecnn"
        save_model(path, model, config)
        _, loaded_config = load_model(path)
        assert loaded_config == config

    def test_normalization_and_names_survive(self, tmp_path, cascade_builder):
        model = cascade_builder(
            [np.array([0.1, -0.2, 0.3])],
            candidate_features=[1],
            stats=FeatureStats(np.array([1.0, -2.0]), np.array([3.0, 0.0])),
            feature_names=("height", "width"),
        )
        path = tmp_path / "m.ecnn"
        save_model(path, model, TrainConfig())
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(loaded.normalization_stats.mean, [1.0, -2.0])
        np.testing.assert_array_equal(loaded.normalization_stats.std, [3.0, 0.0])
        assert loaded.feature_names == ("height", "width")

    def test_absent_normalization_round_trips_as_none(self, tmp_path,
                                                      cascade_builder):
        model = cascade_builder([np.array([0.1, -0.2, 0.3])],
                                candidate_features=[1])
        path = tmp_path / "m.ecnn"
        save_model(path, model, TrainConfig())
        loaded, _ = load_model(path)
        assert loaded.normalization_stats is None
        assert loaded.feature_names is None

    def test_degenerate_single_input_model_round_trips(self, tmp_path):
        model = CascadeModel(
            neurons=(NeuronSpec(layer=1, wiring=(Feature(3),),
                                weights=np.array([0.4, 1.1])),),
            anchor_feature=3,
            criterion_history=(2.5,),
        )
        path = tmp_path / "m.ecnn"
        save_model(path, model, TrainConfig())
        loaded, _ = load_model(path)
        assert loaded.size == 1
        assert loaded.neurons[0].p == 1
        assert loaded.anchor_feature == 3


class TestPayload:
    def test_payload_declares_the_format_version(self, cascade_builder):
        model = cascade_builder([np.array([0.1, -0.2, 0.3])],
                                candidate_features=[1])
        payload = model_to_payload(model, TrainConfig())
        assert payload["format_version"] == FORMAT_VERSION == 1

    def test_canonical_dump_sorts_keys_and_ends_with_newline(self):
        text = dump_canonical_json({"b": 1, "a": [1.5, 2]})
        assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'

    def test_canonical_dump_refuses_nan(self):
        with pytest.raises(ValueError):
            dump_canonical_json({"x": float("nan")})

    def test_wiring_serializes_kinds(self, cascade_builder):
        model = cascade_builder(
            [np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.1, -0.1, 0.2])],
            candidate_features=[1, 1],
        )
        payload = model_to_payload(model, TrainConfig())
        second = payload["neurons"][1]["wiring"]
        assert second[0] == {"kind": "previous-neuron", "layer": 1}
        assert second[1] == {"kind": "feature", "column": 0}
        assert second[2] == {"kind": "feature", "column": 1}


class TestLoadFailures:
    def save_payload(self, tmp_path, payload):
        path = tmp_path / "m.ecnn"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def valid_payload(self, cascade_builder):
        model = cascade_builder([np.array([0.1, -0.2, 0.3])],
                                candidate_features=[1])
        return model_to_payload(model, TrainConfig())

    def test_future_version_is_refused(self, tmp_path, cascade_builder):
        payload = self.valid_payload(cascade_builder)
        payload["format_version"] = 2
        path = self.save_payload(tmp_path, payload)
        with pytest.raises(ModelFormatError, match="version 2.*reads version 1"):
            load_model(path)

    def test_malformed_json_is_refused(self, tmp_path):
        path = tmp_path / "m.ecnn"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(path)

    def test_non_object_json_is_refused(self, tmp_path):
        path = tmp_path / "m.ecnn"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="JSON object"):
            load_model(path)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(tmp_path / "absent.ecnn")

    def test_missing_key_is_invalid_content(self, tmp_path, cascade_builder):
        payload = self.valid_payload(cascade_builder)
        del payload["neurons"]
        path = self.save_payload(tmp_path, payload)
        with pytest.raises(ModelFormatError, match="invalid model content"):
            load_model(path)

    def test_unknown_wiring_kind_is_refused(self, cascade_builder):
        payload = self.valid_payload(cascade_builder)
        payload["neurons"][0]["wiring"][0] = {"kind": "bias", "column": 0}
        with pytest.raises(ModelFormatError, match="wiring source kind 'bias'"):
            payload_to_model(payload)

    def test_inconsistent_model_is_invalid_content(self, tmp_path,
                                                   cascade_builder):
        payload = self.valid_payload(cascade_builder)
        payload["neurons"][0]["weights"] = [0.1]
        path = self.save_payload(tmp_path, payload)
        with pytest.raises(ModelFormatError, match="invalid model content"):
            load_model(path)


class TestIntegerFields:
    def test_a_model_wired_with_numpy_integers_round_trips(self, tmp_path):
        def build(integer):
            neurons = (
                NeuronSpec(integer(1), (Feature(integer(2)), Feature(integer(0))),
                           [0.1, -0.2, 0.3]),
                NeuronSpec(integer(2), (PrevNeuron(integer(1)), Feature(integer(2)),
                                        Feature(integer(1))), [0.5, 0.1, -0.1, 0.2]),
            )
            model = CascadeModel(neurons, integer(2), (3.0, 2.0, 1.0))
            config = TrainConfig(max_fit_steps=integer(7), max_layers=integer(3),
                                 seed=integer(11))
            return model, config

        model, config = build(np.int64)
        assert type(model.anchor_feature) is type(config.seed) is int
        assert type(model.neurons[1].wiring[0].layer) is int
        paths = [tmp_path / name for name in ("numpy.ecnn", "reloaded.ecnn", "int.ecnn")]
        save_model(paths[0], model, config)
        save_model(paths[1], *load_model(paths[0]))
        save_model(paths[2], *build(int))
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    @pytest.mark.parametrize("field, value", WRONGLY_TYPED_MODEL_FIELDS,
                             ids=repr)
    def test_a_wrongly_typed_field_is_refused(self, tmp_path, field, value):
        path = write_wrongly_typed_model(tmp_path / "m.ecnn", field, value)
        with pytest.raises(ModelFormatError, match="invalid model content"):
            load_model(path)
