"""Linear binary classifier core shared by the ordinal classifier and the ranker.

Training minimizes the L2-regularized squared hinge loss

    0.5 * ||w||^2 + c * sum_i max(0, 1 - y_i * (w . x_i + b))^2

in the primal with a damped Newton method (generalized Hessian on the set of
margin violators, backtracking line search). The bias is an appended
constant-1 input excluded from regularization. Everything is deterministic:
zero initialization, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from domm.core import DataError, checked_from_dict

__all__ = [
    "LinearModel",
    "PlattCalibration",
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
    """Linear scorer with baked-in z-score standardization of inputs."""

    weights: np.ndarray
    bias: float
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if not (self.weights.ndim == 1 and self.mean.shape == self.std.shape == self.weights.shape):
            raise DataError("LinearModel weights, mean and std must be equal-length vectors")
        if not (
            np.all(np.isfinite(self.weights))
            and np.isfinite(self.bias)
            and np.all(np.isfinite(self.mean))
            and np.all(self.std > 0)
        ):
            raise DataError("LinearModel parameters must be finite with positive std")

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": float(self.bias),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
        }

    @checked_from_dict
    def from_dict(cls, d: dict) -> "LinearModel":
        return cls(
            weights=np.asarray(d["weights"], dtype=float),
            bias=float(d["bias"]),
            mean=np.asarray(d["mean"], dtype=float),
            std=np.asarray(d["std"], dtype=float),
        )


@dataclass(frozen=True)
class PlattCalibration:
    """Sigmoid parameters (a, b) mapping a decision value y to P = 1/(1 + exp(a*y + b))."""

    a: float
    b: float

    def to_dict(self) -> dict:
        return {"a": float(self.a), "b": float(self.b)}

    @checked_from_dict
    def from_dict(cls, d: dict) -> "PlattCalibration":
        return cls(a=float(d["a"]), b=float(d["b"]))


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
    """Squared-hinge objective and its gradient at ``params``.

    ``params`` is the weight vector with the (unregularized) bias appended
    when ``fit_bias``. Inputs are taken as-is; standardization is the
    trainer's job.
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
    grad_w = w + inputs[active].T @ coef
    if fit_bias:
        return obj, np.concatenate([grad_w, [coef.sum()]])
    return obj, grad_w


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
    n_params = inputs.shape[1] + (1 if fit_bias else 0)
    params = np.zeros(n_params)
    reg_diag = np.ones(n_params)
    if fit_bias:
        reg_diag[-1] = 0.0

    obj, grad = objective_and_gradient(params, inputs, targets, c, fit_bias)
    trace = [obj]
    for _ in range(MAX_NEWTON_STEPS):
        if np.linalg.norm(grad) <= GRAD_TOL:
            break
        scores = inputs @ (params[:-1] if fit_bias else params) + (params[-1] if fit_bias else 0.0)
        active = (1.0 - targets * scores) > 0.0
        x_active = inputs[active]
        if fit_bias:
            x_active = np.hstack([x_active, np.ones((x_active.shape[0], 1))])
        hess = np.diag(reg_diag) + 2.0 * c * (x_active.T @ x_active)
        hess[np.diag_indices_from(hess)] += 1e-10  # keeps the bias block solvable when no violators remain
        direction = np.linalg.solve(hess, -grad)
        slope = grad @ direction
        step = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            candidate = params + step * direction
            new_obj, new_grad = objective_and_gradient(candidate, inputs, targets, c, fit_bias)
            if new_obj <= obj + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted or new_obj >= obj:
            break
        params, obj, grad = candidate, new_obj, new_grad
        trace.append(obj)
    return params, trace


def train_binary(features, labels, c=1e-4, *, standardization=None) -> LinearModel:
    """Train a linear binary classifier on +/-1 labels.

    ``standardization`` may supply precomputed (mean, std) so several models
    can share one scaling; otherwise stats are fit on ``features``.
    """
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
    if standardization is None:
        mean, std = fit_standardization(x)
    else:
        mean, std = standardization
    params, _ = newton_squared_hinge((x - mean) / std, y, c, fit_bias=True)
    return LinearModel(weights=params[:-1], bias=float(params[-1]), mean=mean, std=std)


def decision_values(model: LinearModel, features) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if x.shape[1] != model.weights.size:
        raise DataError(
            f"feature dimension {x.shape[1]} does not match model dimension {model.weights.size}"
        )
    return ((x - model.mean) / model.std) @ model.weights + model.bias


def fit_platt(scores, labels) -> PlattCalibration:
    """Fit sigmoid parameters (a, b) to decision scores by Newton iteration.

    Targets are the smoothed values t+ = (N+ + 1)/(N+ + 2) and
    t- = 1/(N- + 2) rather than hard 0/1, which keeps the fit finite on
    separable data. Callers are expected to supply cross-fitted scores.
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

    def cross_entropy(a, b):
        f = a * y + b
        # log(1 + exp(f)) evaluated stably
        return float(np.sum((t - 1.0) * f + np.maximum(f, 0.0) + np.log1p(np.exp(-np.abs(f)))))

    a, b = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    obj = cross_entropy(a, b)
    for _ in range(100):
        p = _sigmoid(-(a * y + b))
        resid = t - p  # dCE/df
        g = np.array([resid @ y, resid.sum()])
        if np.max(np.abs(g)) < 1e-10:
            break
        d = p * (1.0 - p)
        h_aa = d @ (y * y)
        h_ab = d @ y
        h_bb = d.sum()
        hess = np.array([[h_aa, h_ab], [h_ab, h_bb]])
        hess[np.diag_indices_from(hess)] += 1e-12
        step_a, step_b = np.linalg.solve(hess, -g)
        scale = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            new_obj = cross_entropy(a + scale * step_a, b + scale * step_b)
            if new_obj <= obj:
                break
            scale *= 0.5
        if new_obj > obj:
            break
        a, b, obj = a + scale * step_a, b + scale * step_b, new_obj
    return PlattCalibration(a=float(a), b=float(b))


def platt_probability(cal: PlattCalibration, y):
    """Evaluate P = 1/(1 + exp(a*y + b)), clamped to [1e-12, 1 - 1e-12]."""
    p = _sigmoid(-(cal.a * np.asarray(y, dtype=float) + cal.b))
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(p) if p.ndim == 0 else p
