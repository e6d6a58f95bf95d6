import numpy as np
import pytest

from domm.core import AolState, DataError
from domm.metrics import uar
from domm.omsvm import OmsvmModel, predict_aols, state_posteriors, train_omsvm

L, M, H = 0, 1, 2


def three_clusters(rng, n_per=40, spread=0.05, dims=1):
    centers = np.array([-1.0, 0.0, 1.0])
    features = []
    labels = []
    for code, center in enumerate(centers):
        block = np.full((n_per, dims), center) + rng.normal(scale=spread, size=(n_per, dims))
        features.append(block)
        labels.extend([code] * n_per)
    return np.vstack(features), np.array(labels)


class TestTrain:
    def test_separable_clusters_reach_full_training_uar(self):
        rng = np.random.default_rng(0)
        features, labels = three_clusters(rng)
        model = train_omsvm(features, labels, c=1e-2)
        assert uar(labels, predict_aols(model, features)) == 100.0

    def test_missing_class_errors(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(20, 2))
        labels = np.array([L] * 10 + [M] * 10)
        with pytest.raises(DataError, match="three states"):
            train_omsvm(features, labels)

    def test_backward_on_mirrored_data_flips_stage_weights(self):
        rng = np.random.default_rng(2)
        features, labels = three_clusters(rng, dims=3)
        fwd = train_omsvm(features, labels, c=1e-2, direction="forward")
        bwd = train_omsvm(-features, 2 - labels, c=1e-2, direction="backward")
        for (mf, _), (mb, _) in zip(fwd.stage_models, bwd.stage_models):
            np.testing.assert_allclose(mb.weights, -mf.weights, atol=1e-8)
            np.testing.assert_allclose(mb.bias, mf.bias, atol=1e-8)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(3)
        features, labels = three_clusters(rng, spread=0.4)
        a = train_omsvm(features, labels)
        b = train_omsvm(features, labels)
        for (ma, pa), (mb, pb) in zip(a.stage_models, b.stage_models):
            assert ma.weights.tobytes() == mb.weights.tobytes()
            assert (pa.a, pa.b) == (pb.a, pb.b)


class TestPredict:
    def test_far_clusters_predicted_correctly(self):
        rng = np.random.default_rng(4)
        features, labels = three_clusters(rng)
        model = train_omsvm(features, labels, c=1e-2)
        assert predict_aols(model, [[-1.0]])[0] == AolState.LOW
        assert predict_aols(model, [[0.0]])[0] == AolState.MEDIUM
        assert predict_aols(model, [[1.0]])[0] == AolState.HIGH

    def test_zero_stage_score_defers_to_next_stage(self):
        from domm.svm import LinearModel, PlattCalibration

        zero_stage = LinearModel(np.zeros(1), 0.0, np.zeros(1), np.ones(1))
        medium_stage = LinearModel(np.ones(1), 0.5, np.zeros(1), np.ones(1))
        cal = PlattCalibration(-1.0, 0.0)
        model = OmsvmModel(((zero_stage, cal), (medium_stage, cal)), "forward")
        # stage 1 scores exactly 0 -> not LOW; stage 2 score 0.5 > 0 -> MEDIUM
        assert predict_aols(model, [[0.0]])[0] == AolState.MEDIUM


class TestPosteriors:
    def test_chain_arithmetic(self):
        from domm.svm import LinearModel, PlattCalibration

        # engineered so p1 and p2 are exactly the sigmoid of fixed scores
        m1 = LinearModel(np.zeros(1), 0.0, np.zeros(1), np.ones(1))
        m2 = LinearModel(np.zeros(1), 0.0, np.zeros(1), np.ones(1))
        # a=0, b=+-log: p = 1/(1+exp(b))
        p1, p2 = 0.6, 0.5
        cal1 = PlattCalibration(0.0, float(np.log(1 / p1 - 1)))
        cal2 = PlattCalibration(0.0, float(np.log(1 / p2 - 1)))
        model = OmsvmModel(((m1, cal1), (m2, cal2)), "forward")
        post = state_posteriors(model, np.zeros((1, 1)))
        np.testing.assert_allclose(post[0], [0.6, 0.2, 0.2], atol=1e-12)

    def test_degenerate_stage_probability(self):
        from domm.svm import LinearModel, PlattCalibration

        m = LinearModel(np.ones(1), 0.0, np.zeros(1), np.ones(1))
        cal1 = PlattCalibration(-1000.0, 0.0)  # saturates to the clamp
        cal2 = PlattCalibration(0.0, 0.0)
        model = OmsvmModel(((m, cal1), (m, cal2)), "forward")
        post = state_posteriors(model, np.array([[5.0]]))
        assert post[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert post[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(5)
        features, labels = three_clusters(rng, spread=0.5, dims=4)
        model = train_omsvm(features, labels)
        post = state_posteriors(model, rng.normal(size=(200, 4)))
        assert np.all(post >= 0) and np.all(post <= 1)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_consistent_with_sequential_prediction(self):
        rng = np.random.default_rng(6)
        features, labels = three_clusters(rng, spread=0.05)
        model = train_omsvm(features, labels, c=1e-2)
        held_out, _ = three_clusters(np.random.default_rng(7), n_per=100, spread=0.05)
        agree = np.mean(
            np.argmax(state_posteriors(model, held_out), axis=1)
            == predict_aols(model, held_out)
        )
        assert agree >= 0.99

    def test_posterior_monotone_in_stage1_score(self):
        rng = np.random.default_rng(8)
        features, labels = three_clusters(rng, spread=0.3)
        model = train_omsvm(features, labels)
        grid = np.linspace(-3, 3, 101)[:, None]
        post = state_posteriors(model, grid)
        s1 = (grid[:, 0] - model.stage_models[0][0].mean[0]) / model.stage_models[0][0].std[0]
        s1 = s1 * model.stage_models[0][0].weights[0] + model.stage_models[0][0].bias
        order = np.argsort(s1)
        assert np.all(np.diff(post[order, 0]) >= -1e-12)

    def test_backward_direction_posterior_orientation(self):
        rng = np.random.default_rng(9)
        features, labels = three_clusters(rng, spread=0.05)
        model = train_omsvm(features, labels, direction="backward", c=1e-2)
        post = state_posteriors(model, np.array([[-1.0], [0.0], [1.0]]))
        np.testing.assert_array_equal(np.argmax(post, axis=1), [L, M, H])
        np.testing.assert_array_equal(predict_aols(model, np.array([[-1.0], [0.0], [1.0]])), [L, M, H])

    def test_round_trip_serialization(self):
        rng = np.random.default_rng(10)
        features, labels = three_clusters(rng)
        model = train_omsvm(features, labels)
        back = OmsvmModel.from_dict(model.to_dict())
        probe = rng.normal(size=(10, 1))
        np.testing.assert_array_equal(
            state_posteriors(back, probe), state_posteriors(model, probe)
        )
