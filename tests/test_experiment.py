import numpy as np

from domm.bundle import ModelBundle
from domm.experiment import _adjusted_posteriors
from domm.omsvm import OmsvmModel, state_posteriors
from domm.svm import LinearModel, PlattCalibration


def test_divide_by_prior_is_posterior_over_training_prior_renormalized():
    rng = np.random.default_rng(5)
    stages = tuple(
        (LinearModel(rng.normal(size=2), 0.1, np.zeros(2), np.ones(2)), PlattCalibration(-1.5, 0.2))
        for _ in range(2)
    )
    counts = np.array([70, 20, 10])
    bundle = ModelBundle(OmsvmModel(stages), None, None, counts, "hash", 0)
    frames = rng.normal(size=(50, 2))
    post = state_posteriors(bundle.omsvm, frames)

    np.testing.assert_array_equal(_adjusted_posteriors(bundle, frames, False), post)
    scaled = post / (counts / counts.sum())
    expected = scaled / scaled.sum(axis=1, keepdims=True)
    adjusted = _adjusted_posteriors(bundle, frames, True)
    np.testing.assert_allclose(adjusted, expected, rtol=1e-12)
    np.testing.assert_allclose(adjusted.sum(axis=1), 1.0, rtol=1e-12)
    # the rescaling moves frames away from the majority class
    assert np.sum(adjusted.argmax(axis=1) == 0) < np.sum(post.argmax(axis=1) == 0)
