"""Single-neuron weight fitting by iterative residual projection.

A candidate neuron is a sigmoid unit over a fixed input wiring.  Its
weights are updated full-batch on the fitting subset while a validation
error is tracked on the held-out subset; fitting stops as soon as one
iteration improves the validation error by less than ``delta``.  The
final validation error doubles as the neuron's selection criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .domain import Feature, PrevNeuron, SplitAB, TrainConfig, _frozen_array
from .errors import DataError

__all__ = ["fit_neuron"]

# Sigmoid outputs are kept this far away from 0 and 1 so that residual
# arithmetic stays finite even for saturated units.
SIGMOID_CLAMP = 1e-12


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of an array, clamped to [SIGMOID_CLAMP,
    1 - SIGMOID_CLAMP]; a scalar is passed as a 1-element array.  The
    result is written to ``out`` if given (``x`` itself is allowed)."""
    p = expit(x, out=out)
    return p.clip(SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP, out=p)


def design_matrix(features, wiring, prior_outputs) -> np.ndarray:
    """Stack the wired inputs of one neuron over the rows of ``features``.

    The one place a wiring is resolved, for fitting and serving alike.
    ``features`` is the (n, m) feature matrix and ``prior_outputs`` holds
    one row of n outputs per already-built neuron, indexed by layer (None
    or empty before the first).  Returns a (p + 1, n) matrix whose first
    row is the constant bias input 1; the remaining rows follow wiring
    order.
    """
    X = np.asarray(features, dtype=float)
    n, m = X.shape
    prior = _stacked(prior_outputs, n)
    rows = [np.ones(n)]
    for src in wiring:
        if isinstance(src, PrevNeuron):
            if src.layer > len(prior):
                raise DataError(
                    f"wiring references neuron {src.layer} but only "
                    f"{len(prior)} prior outputs are available"
                )
            rows.append(prior[src.layer - 1])
        elif isinstance(src, Feature):
            if src.column >= m:
                raise DataError(
                    f"wiring references feature column {src.column} but the "
                    f"data has {m} columns"
                )
            rows.append(X[:, src.column])
        else:
            raise DataError(f"unknown wiring source {src!r}")
    return np.vstack(rows)


def _stacked(prior_outputs, n: int) -> np.ndarray:
    """Prior outputs as a (layers, n) matrix; None or empty is no layers."""
    empty = prior_outputs is None or len(prior_outputs) == 0
    prior = np.zeros((0, n)) if empty else np.asarray(prior_outputs, dtype=float)
    if prior.ndim != 2 or prior.shape[1] != n:
        raise DataError(
            f"prior outputs must be stacked as (layers, {n}), got shape {prior.shape}"
        )
    return prior


def _side_designs(split: SplitAB, wiring, prior_outputs) -> tuple[np.ndarray, np.ndarray]:
    """(U_B, U_A), each side's design matrix from its own rows of ``split.rows``
    and ``prior_outputs``: one product over both sides has other bits."""
    X, n_b = split.rows.features, split.n_b
    prior = _stacked(prior_outputs, split.rows.n)
    return (design_matrix(X[:n_b], wiring, prior[:, :n_b]),
            design_matrix(X[n_b:], wiring, prior[:, n_b:]))


def _norm(r: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, exactly as np.linalg.norm
    computes it (the square root of the dot product)."""
    return math.sqrt(np.dot(r, r))


def _projection_scale(inputs_a: np.ndarray, chi: float) -> float:
    """chi / ||U||^2, the step size shared by every step of one fit.  The
    bias row of ones makes ||U||^2 at least the row count, so it is > 0."""
    return chi / float(np.sum(inputs_a * inputs_a))


def _project(weights, inputs_a, residuals_a, scale: float) -> np.ndarray:
    """The projection step for a precomputed ``scale``.  The grouping
    fixes the rounding, so it is part of the model's bytes."""
    return weights - scale * np.dot(inputs_a, residuals_a)


def init_weights(p_plus_bias: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Draw an initial weight vector from a centered Gaussian."""
    if p_plus_bias < 2:
        raise ValueError("a neuron has at least a bias and one input weight")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return rng.normal(0.0, sigma, p_plus_bias)


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one neuron: its weights and its validation trace.

    ``eb_trace`` records the validation error at every iterate visited;
    ``criterion`` is its last entry and ``steps_taken`` its length.  When
    fitting stops because the validation error went UP, ``weights`` are
    the better previous iterate while ``criterion`` keeps the last
    measured (worse) value; the criterion is what acceptance decisions
    consume, so it must never understate the error.
    """

    weights: np.ndarray
    eb_trace: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, ndim=1, name="weights")
        trace = _frozen_array(self.eb_trace, ndim=1, name="eb_trace")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "eb_trace", trace)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if len(trace) < 1:
            raise ValueError("eb_trace must hold at least one entry")
        if not np.all(np.isfinite(trace)) or np.any(trace < 0):
            raise ValueError("validation errors must be finite and >= 0")

    @property
    def criterion(self) -> float:
        """The last validation error measured."""
        return float(self.eb_trace[-1])

    @property
    def steps_taken(self) -> int:
        """Iterates visited, the initial weights included."""
        return len(self.eb_trace)


def fit_neuron_from_init(
    split: SplitAB, wiring, prior_outputs, init: np.ndarray, config: TrainConfig
) -> FitResult:
    """Fit a neuron starting from the given weight vector.

    Iterates the projection rule on the fitting subset while measuring the
    validation error after every iterate (the initial weights count as
    step 1).  Stops when one step improves the validation error by less
    than ``config.delta``, first checked at step 2, or at
    ``config.max_fit_steps``.

    ``prior_outputs`` stacks each built neuron's outputs on ``split.rows``
    (B then A) as (layers, n_b + n_a); other shapes raise DataError.  The
    residuals live in one ``[B | A]`` buffer and take one sigmoid pass per
    step; the last step's A half goes unused.
    """
    U_B, U_A = _side_designs(split, wiring, prior_outputs)
    w_cur = np.asarray(init, dtype=float)
    if w_cur.shape != (U_A.shape[0],):
        raise DataError(
            f"wiring of {U_A.shape[0] - 1} inputs needs {U_A.shape[0]} initial "
            f"weights, got {w_cur.shape}"
        )
    last = config.max_fit_steps
    scale = _projection_scale(U_A, config.chi)
    n_b, targets = split.n_b, split.rows.targets
    residuals = np.empty(len(targets))
    residuals_b, residuals_a = residuals[:n_b], residuals[n_b:]
    w_prev, prev_eb = w_cur, np.inf
    trace: list[float] = []
    for k in range(1, last + 1):
        np.dot(w_cur, U_B, out=residuals_b)
        np.dot(w_cur, U_A, out=residuals_a)
        np.subtract(sigmoid(residuals, out=residuals), targets, out=residuals)
        eb = _norm(residuals_b)
        trace.append(eb)
        if k >= 2 and prev_eb - eb < config.delta:
            final = w_prev if eb > prev_eb else w_cur
            return FitResult(final, trace)
        if k == last:
            break
        w_prev, prev_eb = w_cur, eb
        w_cur = _project(w_cur, U_A, residuals_a, scale)
    return FitResult(w_cur, trace)


def fit_neuron(
    split: SplitAB, wiring, prior_outputs, config: TrainConfig, rng: np.random.Generator
) -> FitResult:
    """Fit a neuron from a fresh Gaussian initialization drawn from rng."""
    init = init_weights(len(tuple(wiring)) + 1, config.init_sigma, rng)
    return fit_neuron_from_init(split, wiring, prior_outputs, init, config)
