import numpy as np
import pytest

from domm.core import DataError, RolSequence
from domm.metrics import kendall_tau
from domm.ranksvm import build_pairs, ranks_from_scores, train_ranksvm
from domm.svm import LinearModel, decision_values, newton_squared_hinge


def rol(ranks, uid="u"):
    return RolSequence.from_ranks(uid, ranks)


class TestBuildPairs:
    def test_full_enumeration(self):
        pairs = build_pairs([rol([1.0, 2.0, 3.0])])
        assert pairs.shape == (3, 2)
        as_set = {tuple(p) for p in pairs}
        assert as_set == {(1, 0), (2, 0), (2, 1)}

    def test_all_tied_gives_no_pairs(self):
        pairs = build_pairs([rol([1.5, 1.5])])
        assert pairs.shape == (0, 2)

    def test_pairs_never_cross_utterances(self):
        pairs = build_pairs([rol([1.0, 2.0]), rol([1.0, 2.0])])
        for preferred, other in pairs:
            assert (preferred < 2) == (other < 2)

    def test_capped_sampling_is_deterministic(self):
        rng = np.random.default_rng(0)
        rols = [rol(np.argsort(rng.random(50)) + 1.0, uid=f"u{k}") for k in range(2)]
        a = build_pairs(rols, cap=100, seed=7)
        b = build_pairs(rols, cap=100, seed=7)
        assert a.shape == (100, 2)
        np.testing.assert_array_equal(a, b)
        c = build_pairs(rols, cap=100, seed=8)
        assert not np.array_equal(a, c)


class TestTrainRankSVM:
    def test_rank_valued_1d_feature_is_perfectly_ranked(self):
        ranks = np.arange(1.0, 21.0)
        features = ranks[:, None]
        pairs = build_pairs([rol(ranks)])
        model = train_ranksvm(features, pairs, c=1.0)
        assert model.weights[0] > 0
        scores = decision_values(model, features)
        # every preference pair satisfied in score order
        assert np.all(scores[pairs[:, 0]] > scores[pairs[:, 1]])

    def test_null_signal_gives_near_zero_tau(self):
        rng = np.random.default_rng(1)
        train_ranks = rng.permutation(np.arange(1.0, 101.0))
        features = rng.normal(size=(100, 5))  # independent of ranks
        pairs = build_pairs([rol(train_ranks)])
        model = train_ranksvm(features, pairs, c=1e-4)
        held_features = rng.normal(size=(100, 5))
        held_ranks = rng.permutation(np.arange(1.0, 101.0))
        tau = kendall_tau(held_ranks, decision_values(model, held_features))
        assert abs(tau) < 0.2

    def test_noiseless_linear_latent_ranks_held_out(self):
        rng = np.random.default_rng(2)
        mix = rng.normal(size=(6, 6))
        latent_train = rng.normal(size=120)
        latent_test = rng.normal(size=120)

        def featurize(latent):
            inputs = np.column_stack([latent, rng.normal(size=(latent.size, 5))])
            return inputs @ mix.T

        x_train = featurize(latent_train)
        x_test = featurize(latent_test)
        from scipy.stats import rankdata

        train_rol = rol(rankdata(latent_train))
        pairs = build_pairs([train_rol])
        # c trades the regularizer against the pair losses; at desk scale the
        # data term needs this much weight to pin the unmixing direction
        model = train_ranksvm(x_train, pairs, c=1.0)
        tau = kendall_tau(rankdata(latent_test), decision_values(model, x_test))
        assert tau >= 0.95

    def test_empty_pairs_error(self):
        with pytest.raises(DataError, match="empty pair"):
            train_ranksvm(np.zeros((4, 2)), np.empty((0, 2)))

    def test_objective_trace_non_increasing_on_pair_differences(self):
        rng = np.random.default_rng(3)
        diffs = rng.normal(size=(300, 8))
        _, trace = newton_squared_hinge(diffs, np.ones(300), c=0.05, fit_bias=False)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


class TestScoresAndRanks:
    def test_zero_model_scores_zero(self):
        model = LinearModel(np.zeros(3), 0.0, np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(decision_values(model, np.ones((5, 3))), np.zeros(5))

    def test_constant_shift_moves_scores_equally(self):
        rng = np.random.default_rng(4)
        model = LinearModel(rng.normal(size=3), 0.0, np.zeros(3), np.ones(3))
        frames = rng.normal(size=(10, 3))
        shift = np.array([0.5, -1.0, 2.0])
        base = decision_values(model, frames)
        moved = decision_values(model, frames + shift)
        np.testing.assert_allclose(moved - base, model.weights @ shift, atol=1e-12)

    def test_monotone_input_monotone_scores(self):
        model = LinearModel(np.array([2.0]), 0.0, np.zeros(1), np.ones(1))
        series = np.linspace(-1, 1, 30)[:, None]
        assert np.all(np.diff(decision_values(model, series)) > 0)

    def test_ranks_from_scores_cases(self):
        np.testing.assert_array_equal(ranks_from_scores([0.1, 0.9, 0.5]).ranks, [1, 3, 2])
        np.testing.assert_array_equal(ranks_from_scores([0.5, 0.5, 0.1]).ranks, [2.5, 2.5, 1])
        singleton = ranks_from_scores([42.0])
        np.testing.assert_array_equal(singleton.ranks, [1.0])
        np.testing.assert_array_equal(singleton.normalized, [0.5])

    def test_ranks_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        base = ranks_from_scores(scores).ranks
        np.testing.assert_array_equal(ranks_from_scores(np.tanh(scores)).ranks, base)
        np.testing.assert_array_equal(ranks_from_scores(5 * scores + 3).ranks, base)
