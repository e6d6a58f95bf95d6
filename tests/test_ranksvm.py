import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from domm.core import DataError, RolSequence, average_ranks
from domm.labels import BLOCK_ROWS
from domm.metrics import kendall_tau
from domm import ranksvm, svm
from domm.ranksvm import build_pairs, ranks_from_scores, train_ranksvm
from domm.svm import LinearModel, decision_values
from oracles import enumerated_pairs, explicit_difference_ranksvm, rebuilt_hessian_ranksvm


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


def ranked(values, uid):
    return rol(average_ranks(np.asarray(values, dtype=float)), uid)


def untied(rng, n, uid):
    return ranked(rng.random(n), uid)


def tied(rng, n, levels, uid):
    return ranked(rng.integers(0, levels, n), uid)


EDGE_ROWS = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1)


def two_blocks_and_a_row_then_all_tied(g):
    return [untied(g, 2 * BLOCK_ROWS + 1, "a"), tied(g, BLOCK_ROWS + 1, 1, "b")]


# (name, utterances drawn from a generator, cap)
PAIR_CASES = [
    ("cap_at_least_total", lambda g: [untied(g, 40, "a"), tied(g, 30, 3, "b")], 10**6),
    ("total_at_most_10000", lambda g: [untied(g, 100, "a"), untied(g, 60, "b")], 500),
    ("cap_near_a_twentieth_of_total", lambda g: [untied(g, 150, "a"), untied(g, 150, "b")], 1000),
    ("cap_far_below_total", lambda g: [untied(g, 150, "a"), untied(g, 150, "b")], 100),
    ("total_under_twice_cap", lambda g: [untied(g, 150, "a"), untied(g, 150, "b")], 15_000),
    ("heavy_ties_across_blocks", lambda g: [tied(g, BLOCK_ROWS * 2 + 37, 4, "a")], 3000),
    ("block_edges_cap_above_total", lambda g: [untied(g, n, f"e{n}") for n in EDGE_ROWS], 10**6),
    ("block_edges_cap_below_total", lambda g: [untied(g, n, f"e{n}") for n in EDGE_ROWS], 2000),
    ("two_blocks_and_a_row_then_all_tied_cap_above_total", two_blocks_and_a_row_then_all_tied, 10**6),
    ("two_blocks_and_a_row_then_all_tied_cap_below_total", two_blocks_and_a_row_then_all_tied, 3000),
    (
        "all_tied_one_frame_and_offsets",
        lambda g: [tied(g, 50, 1, "a"), untied(g, 1, "b"), tied(g, 80, 5, "c"), untied(g, 90, "d")],
        700,
    ),
]


class TestBlockedPairsEqualEnumeration:
    @pytest.mark.parametrize("seed", [0, 7, 101])
    @pytest.mark.parametrize("name,make,cap", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
    def test_same_pairs_same_order_same_dtype(self, name, make, cap, seed):
        rols = make(np.random.default_rng(seed))
        got = build_pairs(rols, cap=cap, seed=seed)
        want = enumerated_pairs(rols, cap, seed)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_cases_reach_both_subset_branches(self):
        """``_sorted_subset`` calls ``Generator.choice`` below 2 * cap pairs and keeps distinct draws from there on."""
        ratios = [
            enumerated_pairs(make(np.random.default_rng(0)), 10**12, 0).shape[0] / cap for _, make, cap in PAIR_CASES
        ]
        assert any(1 < r < 2 for r in ratios) and any(r >= 2 for r in ratios)

    def test_no_utterances_give_no_pairs(self):
        got = build_pairs([], cap=5, seed=0)
        want = enumerated_pairs([], 5, 0)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_peak_memory_under_25mb_at_3x3000_frames(self):
        """Enumerating all 13.5M pairs before sampling took 500-700 MB."""
        rng = np.random.default_rng(11)
        rols = [untied(rng, 3000, f"u{k}") for k in range(3)]
        tracemalloc.start()
        try:
            pairs = build_pairs(rols, cap=200_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs.shape == (200_000, 2)
        assert peak < 25e6

    def test_peak_memory_under_two_and_a_half_kept_pairs_at_9x615_frames(self):
        """Drawing from an ``arange`` over all 1.7M pair indices took 11.5 MB here, 3.6 x the kept pairs."""
        rng = np.random.default_rng(12)
        rols = [untied(rng, 615, f"u{k}") for k in range(9)]
        tracemalloc.start()
        try:
            pairs = build_pairs(rols, cap=200_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs.shape == (200_000, 2)
        assert peak < 2.5 * pairs.nbytes


SUBSET_BRANCHES = [(201, 200), (300, 200), (400, 200), (1000, 100), (123_457, 5000)]


class TestSortedSubset:
    @pytest.mark.parametrize("seed", [0, 3, 101])
    @pytest.mark.parametrize("total,cap", SUBSET_BRANCHES)
    def test_cap_sorted_distinct_values_in_range(self, total, cap, seed):
        got = ranksvm._sorted_subset(total, cap, seed)
        assert got.shape == (cap,)
        assert np.all(np.diff(got) > 0) and got[0] >= 0 and got[-1] < total

    @pytest.mark.parametrize("total,cap", [(300, 200), (400, 200), (1000, 100)])
    def test_inclusion_counts_over_seeds_are_uniform(self, total, cap):
        """Over S seeds each value's count has mean S.p and variance S.p(1 - p), p = cap / total."""
        seeds = 2000
        counts = np.zeros(total)
        for seed in range(seeds):
            counts[ranksvm._sorted_subset(total, cap, seed)] += 1
        p = cap / total
        chi2 = np.sum((counts - seeds * p) ** 2) / (seeds * p)
        assert abs(chi2 - total * (1 - p)) < 5 * (1 - p) * np.sqrt(2 * total)

    def test_too_few_distinct_draws_are_drawn_again(self, monkeypatch):
        real = np.random.default_rng
        sizes = []

        class FirstDrawAllZero:
            def __init__(self, seed):
                self.rng = real(seed)

            def integers(self, low, high, size):
                sizes.append(size)
                draws = self.rng.integers(low, high, size=size)
                return np.zeros_like(draws) if len(sizes) == 1 else draws

            def choice(self, *args, **kwargs):
                return self.rng.choice(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", FirstDrawAllZero)
        got = ranksvm._sorted_subset(1000, 100, 0)
        assert len(sizes) == 2 and sizes[0] == sizes[1]
        assert got.shape == (100,) and np.all(np.diff(got) > 0)

    def test_never_holds_the_population(self):
        """An ``arange(total)`` alone would take 21.6 MB here; the draws keep a few cap-length arrays."""
        total, cap = 2_700_000, 200_000
        tracemalloc.start()
        try:
            got = ranksvm._sorted_subset(total, cap, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (cap,) and np.all(np.diff(got) > 0) and got[-1] < total
        assert peak < 10 * 8 * cap < 8 * total


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

    def test_peak_memory_under_half_the_pair_difference_matrix(self):
        """The P x D differences alone would take P.D.8 bytes; with a violator copy the fit peaked at 2.19 x that."""
        rng = np.random.default_rng(4)
        n_pairs, dim, n_frames = 200_000, 32, 2000
        features = rng.normal(size=(n_frames, dim))
        preferred = rng.integers(0, n_frames, size=n_pairs)
        pairs = np.column_stack([preferred, (preferred + rng.integers(1, n_frames, size=n_pairs)) % n_frames])
        tracemalloc.start()
        try:
            train_ranksvm(features, pairs, c=1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n_pairs * dim * 8

    def test_objective_trace_non_increasing_on_pair_differences(self, monkeypatch):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(300, 8))
        pairs = rng.integers(0, 300, size=(600, 2))
        _, trace, _ = pair_index_fit(monkeypatch, features, pairs[pairs[:, 0] != pairs[:, 1]], 0.05)
        assert len(trace) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def ordered_pairs(seed, n_frames, dim):
    """Random frames and every strict pair of them, preferred by a random projection."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_frames, dim))
    z = x @ rng.normal(size=dim)
    i, j = np.triu_indices(n_frames, k=1)
    swap = z[i] < z[j]
    return x, np.column_stack([np.where(swap, j, i), np.where(swap, i, j)])


def repeated_pairs():
    x, pairs = ordered_pairs(1, 30, 4)
    counts = np.random.default_rng(1).integers(1, 4, size=pairs.shape[0])
    return x, np.repeat(pairs, counts, axis=0), 0.1


def hub_frame():
    # frame 0 is preferred over every other frame; the rest form a few random pairs
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 5))
    others = np.arange(1, 60)
    extra = rng.integers(1, 60, size=(40, 2))
    return x, np.vstack([np.column_stack([np.zeros_like(others), others]), extra[extra[:, 0] != extra[:, 1]]]), 1.0


def sampled_corpus_pairs():
    rng = np.random.default_rng(3)
    rols = [untied(rng, 150, "a"), tied(rng, 120, 6, "b")]
    x = rng.normal(size=(270, 10))
    x[:150, 0] += 0.01 * rols[0].ranks
    return x, build_pairs(rols, cap=5000, seed=3), 1e-4


def one_pair_overshot():
    # at c = 1e16 the first step lands on w = 1.0 exactly, where the only margin is 0
    return np.array([[1.0], [0.0]]), np.array([[0, 1]]), 1e16


PAIR_FIT_CASES = {
    "repeated-pairs": repeated_pairs(),
    "hub-frame": hub_frame(),
    "sampled-corpus": sampled_corpus_pairs(),
    "backtracks": (*ordered_pairs(6, 8, 3), 100.0),
    "no-violators": one_pair_overshot(),
}


def pair_index_fit(monkeypatch, features, pairs, c):
    """``train_ranksvm``'s weights, objective trace and the active-pair count of each evaluation."""
    solves, active_counts = [], []

    def recorded(evaluate, hessian, params):
        def counted(w):
            result = evaluate(w)
            active_counts.append(np.count_nonzero(result[2]))
            return result

        solves.append(svm._newton_loop(counted, hessian, params))
        return solves[-1]

    monkeypatch.setattr(ranksvm, "_newton_loop", recorded)
    model = train_ranksvm(features, pairs, c)
    ((weights, trace),) = solves
    assert model.weights.tobytes() == weights.tobytes()
    return weights, trace, active_counts


@pytest.mark.parametrize("case", sorted(PAIR_FIT_CASES))
def test_pair_index_fit_equals_the_explicit_difference_fit(monkeypatch, case):
    features, pairs, c = PAIR_FIT_CASES[case]
    weights, trace, active_counts = pair_index_fit(monkeypatch, features, pairs, c)
    want_weights, want_trace = explicit_difference_ranksvm(features, pairs, c)

    assert np.max(np.abs(weights - want_weights)) <= 1e-10 * np.max(np.abs(want_weights))
    assert len(trace) == len(want_trace)
    np.testing.assert_allclose(trace, want_trace, rtol=1e-12, atol=0)
    if case == "backtracks":
        assert len(active_counts) > len(trace)
    if case == "no-violators":
        assert 0 in active_counts


def noisy_pairs():
    # pairs ordered by a noisy projection, so the active set keeps changing between steps
    rng = np.random.default_rng(6)
    x = rng.normal(size=(400, 8))
    z = x @ rng.normal(size=8) + rng.normal(scale=2.0, size=400)
    i, j = rng.integers(0, 400, size=(2, 20_000))
    keep = z[i] != z[j]
    return x, np.where((z[i] > z[j])[:, None], np.column_stack([i, j]), np.column_stack([j, i]))[keep], 1e-2


HESSIAN_CASES = {**PAIR_FIT_CASES, "noisy-pairs": noisy_pairs()}


@pytest.mark.parametrize("case", sorted(HESSIAN_CASES))
def test_updated_hessian_fit_equals_the_rebuilt_hessian_fit(monkeypatch, case):
    features, pairs, c = HESSIAN_CASES[case]
    gram, gram_sizes = ranksvm._pair_gram, []

    def recorded(x, a0, a1):
        gram_sizes.append(a0.size)
        return gram(x, a0, a1)

    monkeypatch.setattr(ranksvm, "_pair_gram", recorded)
    weights, trace, active_counts = pair_index_fit(monkeypatch, features, pairs, c)
    monkeypatch.setattr(ranksvm, "_pair_gram", gram)
    want_weights, want_trace = rebuilt_hessian_ranksvm(features, pairs, c)

    assert len(trace) == len(want_trace)
    assert np.max(np.abs(weights - want_weights)) <= 1e-12 * np.max(np.abs(want_weights))
    # each step sums the active pairs once, or the entered and the left pairs
    assert len(trace) - 1 <= len(gram_sizes) <= 2 * (len(trace) - 1) + 1
    if case == "noisy-pairs":
        assert len(gram_sizes) > len(trace)  # some step took the update
    if case == "no-violators":
        assert 0 in active_counts


# 20 x 3000 untied frames, D = 10: OpenBLAS splits an N-length reduction across threads above about 50 000 rows
RANKER_HASHES = """
import hashlib
import numpy as np
from domm.core import RolSequence, average_ranks
from domm.ranksvm import build_pairs, train_ranksvm

rng = np.random.default_rng(5)
rols = [RolSequence.from_ranks(f"u{k}", average_ranks(rng.random(3000))) for k in range(20)]
x = rng.normal(size=(60_000, 10))
x[:, 0] += 1e-3 * np.concatenate([r.ranks for r in rols])
weights = train_ranksvm(x, build_pairs(rols, seed=0)).weights
v = rng.normal(size=60_000)
print(hashlib.sha256(weights.tobytes()).hexdigest(), hashlib.sha256((x.T @ v).tobytes()).hexdigest())
"""


def test_ranker_weights_do_not_depend_on_the_blas_thread_count():
    src = Path(__file__).resolve().parent.parent / "src"
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", RANKER_HASHES], env=env, capture_output=True, text=True, check=True)
        hashes.append(out.stdout.split())
    (weights_1, product_1), (weights_2, product_2) = hashes
    if product_1 == product_2:
        warnings.warn("x.T @ v kept its bits at 2 BLAS threads: OpenBLAS did not split it, so this shows nothing")
    assert weights_1 == weights_2


class TestScoresAndRanks:
    def test_zero_model_scores_zero(self):
        model = LinearModel(np.zeros(3), 0.0)
        np.testing.assert_array_equal(decision_values(model, np.ones((5, 3))), np.zeros(5))

    def test_constant_shift_moves_scores_equally(self):
        rng = np.random.default_rng(4)
        model = LinearModel(rng.normal(size=3), 0.0)
        frames = rng.normal(size=(10, 3))
        shift = np.array([0.5, -1.0, 2.0])
        base = decision_values(model, frames)
        moved = decision_values(model, frames + shift)
        np.testing.assert_allclose(moved - base, model.weights @ shift, atol=1e-12)

    def test_monotone_input_monotone_scores(self):
        model = LinearModel(np.array([2.0]), 0.0)
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
