"""Forward evaluation of trained cascade models.

Neurons are evaluated in layer order; each one sees the outputs of all
earlier neurons plus its wired feature columns.  Evaluation is read-only,
so one model can serve many threads concurrently.
"""

from __future__ import annotations

import numpy as np

from .domain import CascadeModel, Dataset, require_finite_features
from .errors import DataError
from .fitting import design_matrix, sigmoid

__all__ = ["forward_batch", "classify_batch", "used_features", "error_rate"]


def forward_batch(model: CascadeModel, features) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every neuron on a batch of raw examples.

    Returns (outputs, final) where outputs has one row per neuron in layer
    order and final is the last row.  ``features`` holds whole rows as wide
    as :meth:`~ecnn.domain.CascadeModel.require_width` requires, every cell
    finite, even in a column the model does not read.  Only the
    :func:`used_features` columns are copied and, with the model's
    statistics, normalized: ``model.on_columns`` of them evaluates them.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise DataError(f"features must form a 2-dimensional matrix, got {X.shape}")
    require_finite_features(X)
    model.require_width(X.shape[1])
    columns = used_features(model)
    model, X = model.on_columns(columns), X[:, columns]
    if model.normalization_stats is not None:
        X = model.normalization_stats.transform(X)
    n = X.shape[0]
    outputs = np.empty((model.size, n))
    for idx, neuron in enumerate(model.neurons):
        # The bias is added apart from the product: folding it into
        # ``weights @ U`` as fitting does changes the last bits of scores.
        U = design_matrix(X, neuron.wiring, outputs[:idx])
        # A huge finite weight overflows to inf, which the clamp saturates.
        with np.errstate(over="ignore"):
            outputs[idx] = sigmoid(neuron.weights[0] + neuron.weights[1:] @ U[1:])
    return outputs, outputs[-1]


def classify_batch(model: CascadeModel, features, threshold: float = 0.5) -> np.ndarray:
    """Vector of 0/1 labels for a batch of whole-row examples, as
    :func:`forward_batch` takes and checks them: 1 where the final output
    is at or above ``threshold``."""
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
    _, final = forward_batch(model, data.features)
    wrong = int(np.count_nonzero((final >= threshold) != data.targets))
    return 100.0 * wrong / data.n
