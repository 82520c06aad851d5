"""Forward evaluation of trained cascade models.

Neurons are evaluated in layer order; each one sees the outputs of all
earlier neurons plus its wired feature columns.  Evaluation is read-only,
so one model can serve many threads concurrently.
"""

from __future__ import annotations

import numpy as np

from .domain import CascadeModel, Dataset, Feature, FeatureStats
from .errors import DataError
from .fitting import design_matrix, sigmoid

__all__ = ["forward_batch", "classify_batch", "used_features", "error_rate"]


def forward_batch(
    model: CascadeModel, features, width=None
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every neuron on a batch of raw examples.

    Returns (outputs, final) where outputs has one row per neuron in layer
    order and final is the last row.  When the model carries normalization
    statistics they are applied to the raw features first; the features
    must then provide exactly the training-time column count.  Only the
    columns the model reads are copied and normalized.

    ``features`` holds whole rows, or, with ``width``, only the
    :func:`used_features` columns of rows ``width`` features wide, in that
    order, as ``load_csv(..., features=used_features(model))`` reads them.
    The column count is checked against ``width`` then.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise DataError(f"features must form a 2-dimensional matrix, got {X.shape}")
    columns = used_features(model)
    whole = width is None
    if whole:
        width = X.shape[1]
    stats = model.normalization_stats
    if stats is not None:
        stats.require_width(width)
    elif width < model.required_features:
        raise DataError(
            f"model reads {model.required_features} feature columns, "
            f"data has {width}"
        )
    if whole:
        X = X[:, columns]
    elif X.shape[1] != len(columns):
        raise DataError(
            f"features hold {X.shape[1]} columns, the model reads {len(columns)}"
        )
    if stats is not None:
        chosen = list(columns)
        X = FeatureStats(stats.mean[chosen], stats.std[chosen]).transform(X)
    # Feature column c of the model is column slot[c] of X.
    slot = {column: k for k, column in enumerate(columns)}
    n = X.shape[0]
    outputs = np.empty((model.size, n))
    for idx, neuron in enumerate(model.neurons):
        wiring = tuple(
            Feature(slot[src.column]) if isinstance(src, Feature) else src
            for src in neuron.wiring
        )
        # The bias is added apart from the product: folding it into
        # ``weights @ U`` as fitting does changes the last bits of scores.
        U = design_matrix(X, wiring, outputs[:idx])
        outputs[idx] = sigmoid(neuron.weights[0] + neuron.weights[1:] @ U[1:])
    return outputs, outputs[-1]


def classify_batch(model: CascadeModel, features, threshold: float = 0.5) -> np.ndarray:
    """Vector of 0/1 labels for a batch of whole-row examples, as
    :func:`forward_batch` takes them without ``width``: 1 where the final
    output is at or above ``threshold``."""
    _, final = forward_batch(model, features)
    return (final >= threshold).astype(float)


def used_features(model: CascadeModel) -> tuple[int, ...]:
    """Feature columns read by the model, in first-use order, without repeats."""
    seen: dict[int, None] = {}
    for neuron in model.neurons:
        for column in neuron.feature_columns():
            seen.setdefault(column, None)
    return tuple(seen)


def error_rate(model: CascadeModel, data: Dataset, threshold: float = 0.5) -> float:
    """Percentage of examples the model labels incorrectly."""
    if data.n == 0:
        raise DataError("cannot score an empty dataset")
    labels = classify_batch(model, data.features, threshold)
    wrong = int(np.count_nonzero(labels != data.targets))
    return 100.0 * wrong / data.n
