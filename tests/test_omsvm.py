import numpy as np
import pytest

from domm import omsvm
from domm.core import AolState, DataError, load_manifest
from domm.experiment import ExperimentConfig, convert_labels, fit_bundle, load_features
from domm.metrics import uar
from domm.omsvm import OmsvmModel, state_posteriors, train_omsvm
from domm.synth import SynthConfig, generate_corpus, write_corpus
from oracles import own_loop_platt

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
        assert uar(labels, state_posteriors(model, features).argmax(1)) == 100.0

    def test_missing_class_errors(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(20, 2))
        labels = np.array([L] * 10 + [M] * 10)
        with pytest.raises(DataError, match="three states"):
            train_omsvm(features, labels)

    def test_missing_class_message_lists_plain_integers(self):
        features = np.random.default_rng(1).normal(size=(20, 2))
        labels = np.array([M] * 10 + [H] * 10)
        with pytest.raises(DataError) as info:
            train_omsvm(features, labels)
        assert str(info.value) == "training data must contain all three states, found [1, 2]"

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

    def test_stage_calibrations_on_a_synth_corpus_match_the_own_loop_oracle(self, tmp_path, monkeypatch):
        cfg = SynthConfig(n_utterances=6, frames_per_utterance=300, seed=4)
        manifest = load_manifest(write_corpus(generate_corpus(cfg), tmp_path))
        fit_platt, fits = omsvm.fit_platt, []

        def recorded(scores, labels):
            fits.append((fit_platt(scores, labels), own_loop_platt(scores, labels)))
            return fits[-1][0]

        monkeypatch.setattr(omsvm, "fit_platt", recorded)
        fit_bundle(load_features(manifest.utterances), convert_labels(manifest), ExperimentConfig(variant="omsvm-only"))
        assert len(fits) == 2
        for got, want in fits:
            np.testing.assert_allclose([got.a, got.b], [want.a, want.b], rtol=1e-6, atol=0)


class TestPredict:
    def test_far_clusters_predicted_correctly(self):
        rng = np.random.default_rng(4)
        features, labels = three_clusters(rng)
        model = train_omsvm(features, labels, c=1e-2)
        assert state_posteriors(model, [[-1.0]]).argmax(1)[0] == AolState.LOW
        assert state_posteriors(model, [[0.0]]).argmax(1)[0] == AolState.MEDIUM
        assert state_posteriors(model, [[1.0]]).argmax(1)[0] == AolState.HIGH


class TestPosteriors:
    def test_chain_arithmetic(self):
        from domm.svm import LinearModel, PlattCalibration

        # engineered so p1 and p2 are exactly the sigmoid of fixed scores
        m1 = LinearModel(np.zeros(1), 0.0)
        m2 = LinearModel(np.zeros(1), 0.0)
        # a=0, b=+-log: p = 1/(1+exp(b))
        p1, p2 = 0.6, 0.5
        cal1 = PlattCalibration(0.0, float(np.log(1 / p1 - 1)))
        cal2 = PlattCalibration(0.0, float(np.log(1 / p2 - 1)))
        model = OmsvmModel(((m1, cal1), (m2, cal2)), "forward")
        post = state_posteriors(model, np.zeros((1, 1)))
        np.testing.assert_allclose(post[0], [0.6, 0.2, 0.2], atol=1e-12)

    def test_degenerate_stage_probability(self):
        from domm.svm import LinearModel, PlattCalibration

        m = LinearModel(np.ones(1), 0.0)
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

    def test_posterior_monotone_in_stage1_score(self):
        rng = np.random.default_rng(8)
        features, labels = three_clusters(rng, spread=0.3)
        model = train_omsvm(features, labels)
        grid = np.linspace(-3, 3, 101)[:, None]
        post = state_posteriors(model, grid)
        s1 = grid[:, 0] * model.stage_models[0][0].weights[0] + model.stage_models[0][0].bias
        order = np.argsort(s1)
        assert np.all(np.diff(post[order, 0]) >= -1e-12)

    def test_backward_direction_posterior_orientation(self):
        rng = np.random.default_rng(9)
        features, labels = three_clusters(rng, spread=0.05)
        model = train_omsvm(features, labels, direction="backward", c=1e-2)
        post = state_posteriors(model, np.array([[-1.0], [0.0], [1.0]]))
        np.testing.assert_array_equal(np.argmax(post, axis=1), [L, M, H])

    def test_round_trip_serialization(self, through_bundle):
        rng = np.random.default_rng(10)
        features, labels = three_clusters(rng)
        model = train_omsvm(features, labels)
        back = through_bundle(omsvm=model).omsvm
        probe = rng.normal(size=(10, 1))
        np.testing.assert_array_equal(
            state_posteriors(back, probe), state_posteriors(model, probe)
        )
