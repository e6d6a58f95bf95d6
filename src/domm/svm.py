"""Linear binary classifier core shared by the ordinal classifier and the ranker.

Training minimizes the L2-regularized squared hinge loss

    0.5 * ||w||^2 + c * sum_i max(0, 1 - y_i * (w . x_i + b))^2

in the primal with a damped Newton method (Chapelle 2007: generalized Hessian
on the set of margin violators, backtracking line search). The bias is an
appended constant-1 input excluded from regularization. Everything is
deterministic: fixed start points, no randomness.

There is one Newton loop, ``_newton_loop``, and three evaluators feed it:
``objective_and_gradient`` on dense rows with +/-1 targets here, the
ranker's pair-index evaluator in ``ranksvm``, which scores frames instead of
pair differences, and ``fit_platt``'s cross-entropy evaluator for the
two-parameter sigmoid (Lin, Lin & Weng 2007). Each iterate is evaluated
once. The evaluation that accepts a step also returns the state that
iterate's Hessian is built from (here the violator rows), and the next
Newton step builds its Hessian from it instead of recomputing the scores.
The solver drops that state before its line search, so it holds at most one
copy of it next to the inputs.

Models train and score on features as given: the pipeline z-scores them first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from domm.core import DataError

__all__ = [
    "LinearModel",
    "PlattCalibration",
    "check_width",
    "decision_values",
    "fit_platt",
    "fit_standardization",
    "newton_squared_hinge",
    "objective_and_gradient",
    "platt_probability",
    "train_binary",
]

MAX_NEWTON_STEPS = 20
GRAD_TOL = 1e-6
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class LinearModel:
    """Affine scorer ``x @ weights + bias`` on frames standardized by the caller."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        if self.weights.ndim != 1:
            raise DataError("LinearModel weights must be a vector")
        if not (np.all(np.isfinite(self.weights)) and np.isfinite(self.bias)):
            raise DataError("LinearModel parameters must be finite")


@dataclass(frozen=True)
class PlattCalibration:
    """Sigmoid parameters (a, b) mapping a decision value y to P = 1/(1 + exp(a*y + b))."""

    a: float
    b: float


def _sigmoid(x):
    """1 / (1 + exp(-x)); where exp(-x) overflows to inf the result is exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def fit_standardization(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and std; zero-variance dimensions get std = 1."""
    x = np.asarray(features, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    return mean, std


def objective_and_gradient(params, inputs, targets, c, fit_bias=True):
    """Squared-hinge objective, its gradient and the violator rows at ``params``.

    ``params`` is the weight vector with the (unregularized) bias appended
    when ``fit_bias``. Inputs are taken as-is. The third value is
    ``inputs[active]``, the rows with a positive margin violation, which the
    gradient already copies and the Newton step reuses for its Hessian.
    """
    params = np.asarray(params, dtype=float)
    if fit_bias:
        w, b = params[:-1], params[-1]
    else:
        w, b = params, 0.0
    scores = inputs @ w + b
    margins = 1.0 - targets * scores
    active = margins > 0.0
    viol = margins[active]
    obj = 0.5 * (w @ w) + c * (viol @ viol)
    coef = -2.0 * c * targets[active] * viol
    rows = inputs[active]
    grad_w = w + rows.T @ coef
    if fit_bias:
        return obj, np.concatenate([grad_w, [coef.sum()]]), rows
    return obj, grad_w, rows


def newton_squared_hinge(inputs, targets, c, fit_bias=True):
    """Minimize the squared-hinge objective; returns (params, objective trace).

    The trace records the objective after each accepted step (first entry is
    the value at the zero initialization) and is strictly decreasing: every
    Newton step is guarded by a backtracking line search that halves the step
    until the Armijo condition holds, giving up after 30 halvings, and the
    solve stops at the first step that does not lower the objective.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    reg_diag = np.ones(inputs.shape[1] + (1 if fit_bias else 0))
    if fit_bias:
        reg_diag[-1] = 0.0

    def hessian(rows):
        if fit_bias:
            rows = np.hstack([rows, np.ones((rows.shape[0], 1))])
        return np.diag(reg_diag) + 2.0 * c * (rows.T @ rows)

    return _newton_loop(
        lambda params: objective_and_gradient(params, inputs, targets, c, fit_bias), hessian, np.zeros(reg_diag.size)
    )


def _newton_loop(evaluate, hessian, params):
    """The damped Newton solve behind every fit: the squared hinge, the ranker and Platt's sigmoid.

    ``evaluate(params)`` returns (objective, gradient, state), where
    ``state`` is whatever ``hessian`` builds the generalized Hessian from
    (violator rows, an active-pair mask, sigmoid probabilities);
    ``hessian(state)`` returns that Hessian as a new array. ``params`` is the
    start point. The solver drops ``state`` right after building the Hessian
    and after each rejected candidate, so it holds at most one iterate's
    state at a time. Returns (params, objective trace).
    """
    obj, grad, state = evaluate(params)
    trace = [obj]
    for _ in range(MAX_NEWTON_STEPS):
        if np.linalg.norm(grad) <= GRAD_TOL:
            break
        hess = hessian(state)
        state = None  # each line-search evaluation finds its own
        hess[np.diag_indices_from(hess)] += 1e-10  # solvable with no violators left, or on constant Platt scores
        direction = np.linalg.solve(hess, -grad)
        slope = grad @ direction
        step = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            candidate = params + step * direction
            new_obj, new_grad, state = evaluate(candidate)
            if new_obj <= obj + 1e-4 * step * slope:
                accepted = True
                break
            state = None  # freed before the next candidate finds its own
            step *= 0.5
        if not accepted or new_obj >= obj:
            break
        params, obj, grad = candidate, new_obj, new_grad
        trace.append(obj)
    return params, trace


def train_binary(features, labels, c=1e-4) -> LinearModel:
    """Train a linear binary classifier on +/-1 labels, on the features as given."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DataError("features must be N x D with one label per row")
    if x.shape[0] < 2:
        raise DataError("need at least two training rows")
    if not np.all(np.isfinite(x)):
        raise DataError("training features contain non-finite values")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be +1/-1")
    if np.all(y == y[0]):
        raise DataError("training data contains a single class")
    if not c > 0:
        raise DataError("regularization weight c must be positive")
    params, _ = newton_squared_hinge(x, y, c, fit_bias=True)
    return LinearModel(weights=params[:-1], bias=float(params[-1]))


def check_width(frames, width: int) -> None:
    """Raise DataError unless ``frames`` has ``width`` features per frame."""
    if frames.shape[1] != width:
        raise DataError(f"feature dimension {frames.shape[1]} does not match model dimension {width}")


def decision_values(model: LinearModel, features) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    check_width(x, model.weights.size)
    return x @ model.weights + model.bias


def fit_platt(scores, labels) -> PlattCalibration:
    """Fit sigmoid parameters (a, b) to decision scores with ``_newton_loop``.

    Targets are the smoothed values t+ = (N+ + 1)/(N+ + 2) and
    t- = 1/(N- + 2) rather than hard 0/1, which keeps the fit finite on
    separable data. The solve starts at a = 0, b = log((N- + 1)/(N+ + 1))
    and stops as every Newton solve does: at a gradient norm of at most
    ``GRAD_TOL``, at a step that does not lower the cross entropy, or after
    ``MAX_NEWTON_STEPS``. Callers are expected to supply cross-fitted scores.
    """
    y = np.asarray(scores, dtype=float)
    lab = np.asarray(labels, dtype=float)
    if y.size != lab.size or y.size < 2:
        raise DataError("need matching scores and labels, at least two points")
    n_pos = int(np.sum(lab > 0))
    n_neg = int(lab.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("Platt fit requires both classes")
    t = np.where(lab > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def cross_entropy(params):
        """Cross entropy of the targets under P = 1/(1 + exp(f)), f = a*y + b; its gradient; P."""
        f = params[0] * y + params[1]
        p = _sigmoid(-f)
        resid = t - p  # dCE/df
        # log(1 + exp(f)) evaluated stably
        obj = float(np.sum((t - 1.0) * f + np.maximum(f, 0.0) + np.log1p(np.exp(-np.abs(f)))))
        return obj, np.array([resid @ y, resid.sum()]), p

    def hessian(p):
        d = p * (1.0 - p)
        h_ab = d @ y
        return np.array([[d @ (y * y), h_ab], [h_ab, d.sum()]])

    (a, b), _ = _newton_loop(cross_entropy, hessian, np.array([0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))]))
    return PlattCalibration(a=float(a), b=float(b))


def platt_probability(cal: PlattCalibration, y):
    """Evaluate P = 1/(1 + exp(a*y + b)), clamped to [1e-12, 1 - 1e-12]."""
    p = _sigmoid(-(cal.a * np.asarray(y, dtype=float) + cal.b))
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(p) if p.ndim == 0 else p
