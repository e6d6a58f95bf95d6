import numpy as np
import pytest
from dataclasses import replace

from domm.core import AolSequence, DataError, RolSequence
from domm.decoder import StateLattice, framewise_argmax, viterbi_decode
from domm.transitions import fit_kde, fit_transition_model, transition_matrices
from oracles import brute_force_decode

L, M, H = 0, 1, 2


def fitted_model(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    aols, rols = [], []
    for idx in range(3):
        values = np.cumsum(rng.normal(size=30))
        labels = np.digitize(values, np.percentile(values, [33, 66]))
        from scipy.stats import rankdata

        uid = f"u{idx}"
        aols.append(AolSequence(uid, labels))
        rols.append(RolSequence.from_ranks(uid, rankdata(values)))
    return fit_transition_model(aols, rols, **kwargs)


def uniform_model(base):
    """Force uninformative dynamics: identical densities, uniform prior."""
    shared = fit_kde(np.linspace(-1, 1, 20))
    return replace(
        base,
        prior=np.full((3, 3), 1.0 / 3.0),
        conditional_kdes=tuple(tuple(shared for _ in range(3)) for _ in range(3)),
        marginal_kdes=(shared, shared, shared),
    )


def random_lattice(rng, t, quantize=False):
    post = rng.random((t, 3))
    if quantize:
        post = np.ceil(post * 4) / 4.0  # coarse grid forces score ties
    post /= post.sum(axis=1, keepdims=True)
    deltas = rng.uniform(-1, 1, t - 1)
    return StateLattice("u", post, deltas)


class TestViterbi:
    def test_single_frame_is_posterior_argmax(self):
        model = fitted_model()
        lattice = StateLattice("u", np.array([[0.2, 0.5, 0.3]]), np.empty(0))
        np.testing.assert_array_equal(viterbi_decode(lattice, model).labels, [M])

    def test_uniform_transitions_reduce_to_framewise_argmax(self):
        model = uniform_model(fitted_model())
        rng = np.random.default_rng(1)
        for _ in range(20):
            lattice = random_lattice(rng, int(rng.integers(2, 15)))
            decoded = viterbi_decode(lattice, model)
            np.testing.assert_array_equal(
                decoded.labels, framewise_argmax(lattice.posteriors).labels
            )

    def test_matches_brute_force_on_random_lattices(self):
        model = fitted_model()
        rng = np.random.default_rng(2)
        for trial in range(60):
            lattice = random_lattice(rng, int(rng.integers(1, 9)), quantize=trial % 2 == 1)
            np.testing.assert_array_equal(
                viterbi_decode(lattice, model).labels,
                brute_force_decode(lattice, model).labels,
                err_msg=f"trial {trial}",
            )

    def test_forced_state_pins_path(self):
        model = fitted_model()
        post = np.array([[0.3, 0.4, 0.3], [1.0, 0.0, 0.0], [0.3, 0.4, 0.3]])
        lattice = StateLattice("u", post, np.zeros(2))
        assert viterbi_decode(lattice, model).labels[1] == L

    def test_objective_at_least_framewise_path(self):
        model = fitted_model()
        rng = np.random.default_rng(3)

        def score_path(lattice, path):
            log_post = np.log(np.maximum(lattice.posteriors, 1e-300))
            log_trans = np.log(np.maximum(transition_matrices(model, lattice.deltas), 1e-300))
            total = log_post[0, path[0]]
            for t in range(1, len(path)):
                total += log_trans[t - 1][path[t - 1], path[t]] + log_post[t, path[t]]
            return total

        for _ in range(20):
            lattice = random_lattice(rng, 10)
            decoded = viterbi_decode(lattice, model).labels
            greedy = framewise_argmax(lattice.posteriors).labels
            assert score_path(lattice, decoded) >= score_path(lattice, greedy) - 1e-12

    def test_scale_invariance_of_path_objective(self):
        # multiplying a frame's posterior row by a positive constant shifts every
        # path score by the same log-constant, so the argmax path cannot change
        model = fitted_model()
        rng = np.random.default_rng(4)
        lattice = random_lattice(rng, 8)
        log_trans = np.log(np.maximum(transition_matrices(model, lattice.deltas), 1e-300))
        scales = rng.uniform(0.5, 2.0, lattice.n_frames)

        def score(posteriors, path):
            log_post = np.log(np.maximum(posteriors, 1e-300))
            total = log_post[0, path[0]]
            for t in range(1, len(path)):
                total += log_trans[t - 1][path[t - 1], path[t]] + log_post[t, path[t]]
            return total

        shift = np.log(scales).sum()
        for _ in range(30):
            path = rng.integers(0, 3, lattice.n_frames)
            base = score(lattice.posteriors, path)
            scaled = score(lattice.posteriors * scales[:, None], path)
            assert scaled - base == pytest.approx(shift, abs=1e-9)

    def test_empty_lattice_rejected(self):
        with pytest.raises(DataError):
            StateLattice("u", np.empty((0, 3)), np.empty(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rank_difference_rejected(self, bad):
        post = np.full((3, 3), 1.0 / 3.0)
        with pytest.raises(DataError, match="finite"):
            StateLattice("u", post, np.array([0.1, bad]))


class TestBruteForce:
    def test_limit_guard(self):
        model = fitted_model()
        rng = np.random.default_rng(5)
        lattice = random_lattice(rng, 13)
        with pytest.raises(DataError, match="3\\^T"):
            brute_force_decode(lattice, model)

    def test_two_frame_enumeration_by_hand(self):
        model = uniform_model(fitted_model())
        post = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
        lattice = StateLattice("u", post, np.zeros(1))
        # uniform dynamics: best path is framewise argmax (L, H)
        np.testing.assert_array_equal(brute_force_decode(lattice, model).labels, [L, H])
