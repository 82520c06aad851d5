"""Versioned model persistence with byte-exact round trips.

Models are stored as human-readable JSON: sorted keys, two-space indent,
one trailing newline.  Floats are written in shortest round-trip form, so
save -> load -> save reproduces the file byte for byte and a loaded model
evaluates bit-identically to the saved one.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .domain import (
    CascadeModel,
    Feature,
    FeatureStats,
    NeuronSpec,
    PrevNeuron,
    TrainConfig,
)
from .errors import ModelFormatError

__all__ = [
    "FORMAT_VERSION",
    "dump_canonical_json",
    "model_to_payload",
    "payload_to_model",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1

_CONFIG_FIELDS = tuple(field.name for field in fields(TrainConfig))


def dump_canonical_json(payload) -> str:
    """Serialize deterministically: sorted keys, indent 2, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _wiring_to_payload(wiring) -> list[dict]:
    out = []
    for src in wiring:
        if isinstance(src, PrevNeuron):
            out.append({"kind": "previous-neuron", "layer": src.layer})
        else:
            out.append({"kind": "feature", "column": src.column})
    return out


def model_to_payload(model: CascadeModel, config: TrainConfig) -> dict:
    """JSON-ready dictionary for a model plus the config that trained it."""
    stats = model.normalization_stats
    return {
        "format_version": FORMAT_VERSION,
        "config": {name: getattr(config, name) for name in _CONFIG_FIELDS},
        "anchor_feature": model.anchor_feature,
        "criterion_history": [float(c) for c in model.criterion_history],
        "neurons": [
            {
                "layer": neuron.layer,
                "wiring": _wiring_to_payload(neuron.wiring),
                "weights": [float(w) for w in neuron.weights],
            }
            for neuron in model.neurons
        ],
        "normalization": None
        if stats is None
        else {
            "mean": [float(v) for v in stats.mean],
            "std": [float(v) for v in stats.std],
        },
        "feature_names": None
        if model.feature_names is None
        else list(model.feature_names),
    }


def _wiring_from_payload(entries) -> tuple:
    wiring = []
    for entry in entries:
        kind = entry["kind"]
        if kind == "previous-neuron":
            wiring.append(PrevNeuron(entry["layer"]))
        elif kind == "feature":
            wiring.append(Feature(entry["column"]))
        else:
            raise ModelFormatError(f"unknown wiring source kind {kind!r}")
    return tuple(wiring)


def _numbers(payload, key) -> list:
    """``payload[key]``, a list that holds no JSON string or boolean, which
    a float conversion would read as a number."""
    values = payload[key]
    if not isinstance(values, list) or any(isinstance(v, (str, bool)) for v in values):
        raise ValueError(f"{key} must be a list of numbers")
    return values


def payload_to_model(payload) -> tuple[CascadeModel, TrainConfig]:
    """Rebuild a model and its training config from a parsed payload."""
    try:
        version = payload["format_version"]
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format version {version!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        config = TrainConfig(**{k: payload["config"][k] for k in _CONFIG_FIELDS})
        neurons = tuple(
            NeuronSpec(
                layer=entry["layer"],
                wiring=_wiring_from_payload(entry["wiring"]),
                weights=_numbers(entry, "weights"),
            )
            for entry in payload["neurons"]
        )
        stats_payload = payload["normalization"]
        stats = (
            None
            if stats_payload is None
            else FeatureStats(_numbers(stats_payload, "mean"), _numbers(stats_payload, "std"))
        )
        names = payload["feature_names"]
        model = CascadeModel(
            neurons=neurons,
            anchor_feature=payload["anchor_feature"],
            criterion_history=tuple(_numbers(payload, "criterion_history")),
            normalization_stats=stats,
            feature_names=None if names is None else tuple(names),
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid model content: {exc}") from exc
    return model, config


def save_model(path, model: CascadeModel, config: TrainConfig) -> None:
    """Write a model file; see module docstring for the format guarantees."""
    text = dump_canonical_json(model_to_payload(model, config))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def load_model(path) -> tuple[CascadeModel, TrainConfig]:
    """Read a model file, rejecting malformed content and version mismatches."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError("model file must hold a JSON object")
    return payload_to_model(payload)
