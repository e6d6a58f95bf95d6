import warnings

import numpy as np
import pytest
from scipy.special import expit

from domm.core import DataError
from domm.svm import (
    LinearModel,
    PlattCalibration,
    decision_values,
    fit_platt,
    fit_standardization,
    newton_squared_hinge,
    objective_and_gradient,
    platt_probability,
    train_binary,
)
from domm.svm import _sigmoid


def finite_difference_gradient(params, inputs, targets, c, fit_bias, h=1e-6):
    grad = np.zeros_like(params, dtype=float)
    for k in range(params.size):
        up = params.copy()
        down = params.copy()
        up[k] += h
        down[k] -= h
        f_up, _ = objective_and_gradient(up, inputs, targets, c, fit_bias)
        f_down, _ = objective_and_gradient(down, inputs, targets, c, fit_bias)
        grad[k] = (f_up - f_down) / (2 * h)
    return grad


@pytest.mark.parametrize("fit_bias", [True, False])
def test_gradient_matches_finite_differences(fit_bias):
    rng = np.random.default_rng(7)
    inputs = rng.normal(size=(40, 5))
    targets = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    c = 0.37
    for _ in range(10):
        params = rng.normal(size=5 + (1 if fit_bias else 0))
        _, grad = objective_and_gradient(params, inputs, targets, c, fit_bias)
        fd = finite_difference_gradient(params, inputs, targets, c, fit_bias)
        scale = max(np.linalg.norm(fd), 1.0)
        assert np.linalg.norm(grad - fd) / scale < 1e-5


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(11)
    inputs = rng.normal(size=(120, 8))
    w_true = rng.normal(size=8)
    targets = np.where(inputs @ w_true + 0.3 * rng.normal(size=120) > 0, 1.0, -1.0)
    _, trace = newton_squared_hinge(inputs, targets, c=0.5)
    assert len(trace) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_newton_stops_at_first_step_that_does_not_lower_the_objective():
    # this solve flattens after a few steps with the gradient norm above GRAD_TOL;
    # accepting the flat steps would run on to MAX_NEWTON_STEPS
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20000, 10))
    y = np.sign(x[:, 0] + rng.normal(size=20000))
    _, trace = newton_squared_hinge(x, y, c=1.0)
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_separable_1d_reaches_full_accuracy():
    features = np.array([[-1.0], [-1.2], [1.0], [1.3]])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    model = train_binary(features, labels, c=1e-4)
    preds = np.sign(decision_values(model, features))
    np.testing.assert_array_equal(preds, labels)


def test_symmetric_data_gives_near_zero_bias():
    rng = np.random.default_rng(3)
    pos = rng.normal(loc=1.0, size=(50, 2))
    neg = -pos  # exactly mirrored
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(50), -np.ones(50)])
    model = train_binary(features, labels, c=1.0)
    assert abs(model.bias) < 1e-8


def test_train_binary_guards():
    with pytest.raises(DataError, match="single class"):
        train_binary(np.ones((3, 1)), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DataError, match="non-finite"):
        train_binary(np.array([[np.nan], [1.0]]), np.array([1.0, -1.0]))


def test_training_is_deterministic():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(60, 4))
    labels = np.where(features[:, 0] > 0, 1.0, -1.0)
    m1 = train_binary(features, labels, c=0.01)
    m2 = train_binary(features, labels, c=0.01)
    assert m1.weights.tobytes() == m2.weights.tobytes()
    assert m1.bias == m2.bias


def test_decision_value_hand_computed():
    model = LinearModel(
        weights=np.array([2.0]), bias=1.0, mean=np.array([0.0]), std=np.array([1.0])
    )
    assert decision_values(model, [3.0])[0] == 7.0


def test_decision_value_zero_model_and_mean_input():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 3))
    mean, std = fit_standardization(x)
    zero = LinearModel(weights=np.zeros(3), bias=0.0, mean=mean, std=std)
    assert decision_values(zero, rng.normal(size=3))[0] == 0.0
    nonzero = LinearModel(weights=np.array([1.0, -2.0, 0.5]), bias=0.0, mean=mean, std=std)
    assert abs(decision_values(nonzero, mean)[0]) < 1e-15


def test_decision_value_dimension_mismatch():
    model = LinearModel(
        weights=np.array([1.0, 2.0]), bias=0.0, mean=np.zeros(2), std=np.ones(2)
    )
    with pytest.raises(DataError, match="dimension"):
        decision_values(model, [1.0, 2.0, 3.0])


def test_decision_value_is_affine_in_standardized_space():
    rng = np.random.default_rng(13)
    model = LinearModel(
        weights=rng.normal(size=4), bias=0.7, mean=rng.normal(size=4), std=np.ones(4) + rng.random(4)
    )
    for _ in range(20):
        x1, x2 = rng.normal(size=4), rng.normal(size=4)
        alpha = rng.random()
        mixed = decision_values(model, alpha * x1 + (1 - alpha) * x2)[0]
        combo = alpha * decision_values(model, x1)[0] + (1 - alpha) * decision_values(model, x2)[0]
        assert abs(mixed - combo) < 1e-9


def test_sigmoid_within_4_ulp_of_expit_without_warnings():
    x = np.concatenate([np.linspace(-800.0, 800.0, 400_001), [-745.2, -709.8, 0.0, 709.8, 745.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = _sigmoid(x)
    expected = expit(x)
    assert np.all(np.abs(ours - expected) <= 4 * np.spacing(expected))


def test_platt_probability_values():
    assert platt_probability(PlattCalibration(0.0, 0.0), 123.0) == 0.5
    assert platt_probability(PlattCalibration(-1.0, 0.0), 0.0) == 0.5
    assert platt_probability(PlattCalibration(-1.0, 0.0), 50.0) > 0.999
    # direct evaluation: 1 / (1 + exp(-2*1 + 1))
    np.testing.assert_allclose(
        platt_probability(PlattCalibration(-2.0, 1.0), 1.0), 1.0 / (1.0 + np.exp(-1.0)), atol=1e-12
    )


def test_platt_probability_monotone_and_clamped():
    cal = PlattCalibration(-0.8, 0.2)
    ys = np.linspace(-2000, 2000, 4001)
    ps = platt_probability(cal, ys)
    assert np.all(np.diff(ps) >= 0)
    assert ps.min() >= 1e-12 and ps.max() <= 1 - 1e-12


def test_fit_platt_separated_scores_have_negative_a():
    scores = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])
    labels = np.concatenate([-np.ones(20), np.ones(20)])
    cal = fit_platt(scores, labels)
    assert cal.a < 0


def test_fit_platt_antisymmetric_scores_have_near_zero_b():
    scores = np.concatenate([np.linspace(-2, 2, 51), -np.linspace(-2, 2, 51)])
    labels = np.concatenate([np.sign(np.linspace(-2, 2, 51) + 1e-9), -np.sign(np.linspace(-2, 2, 51) + 1e-9)])
    cal = fit_platt(scores, labels)
    assert abs(cal.b) < 1e-6


def test_fit_platt_recovers_generating_sigmoid():
    rng = np.random.default_rng(21)
    a_true, b_true = -1.7, 0.4
    scores = rng.normal(size=4000)
    p = 1.0 / (1.0 + np.exp(a_true * scores + b_true))
    labels = np.where(rng.random(4000) < p, 1.0, -1.0)
    cal = fit_platt(scores, labels)
    assert abs(cal.a - a_true) / abs(a_true) < 0.05
    assert abs(cal.b - b_true) / abs(b_true) < 0.05 or abs(cal.b - b_true) < 0.05


def test_fit_platt_single_class_errors():
    with pytest.raises(DataError, match="both classes"):
        fit_platt(np.array([0.1, 0.2]), np.array([1.0, 1.0]))
