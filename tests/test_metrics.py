import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domm.core import DataError
from domm.metrics import (
    DegenerateMarginalsError,
    KAPPA_WEIGHTS,
    confusion_matrix,
    kendall_tau,
    precision_at_k,
    uar,
    weighted_kappa,
)
from oracles import tau_oracle

L, M, H = 0, 1, 2


def kappa_oracle(truth, pred):
    """Direct evaluation of the weighted-kappa definition from raw label pairs."""
    n = len(truth)
    p = np.zeros((3, 3))
    for a, b in zip(truth, pred):
        p[a, b] += 1.0 / n
    pi = [sum(1 for a in truth if a == i) / n for i in range(3)]
    qj = [sum(1 for b in pred if b == j) / n for j in range(3)]
    observed = sum(KAPPA_WEIGHTS[i, j] * p[i, j] for i in range(3) for j in range(3))
    chance = sum(KAPPA_WEIGHTS[i, j] * pi[i] * qj[j] for i in range(3) for j in range(3))
    return (observed - chance) / (1.0 - chance)


class TestUar:
    def test_perfect_prediction(self):
        seq = [L, M, H, H, M, L]
        assert uar(seq, seq) == 100.0

    def test_hand_example(self):
        value = uar([L, L, M, M, H, H], [L, M, M, M, H, L])
        assert value == pytest.approx(100 * (0.5 + 1.0 + 0.5) / 3)

    def test_constant_prediction_on_balanced_truth(self):
        value = uar([L, L, M, M, H, H], [M, M, M, M, M, M])
        assert value == pytest.approx(100 / 3)

    def test_missing_truth_class_errors(self):
        with pytest.raises(DataError, match="class"):
            uar([L, L, M], [L, L, M])

    def test_depends_only_on_recalls(self):
        # swapping prediction identities off the diagonal within a truth class is neutral
        a = uar([L, L, L, M, H], [L, M, M, M, H])
        b = uar([L, L, L, M, H], [L, H, H, M, H])
        assert a == b


class TestWeightedKappa:
    def test_perfect_agreement(self):
        assert weighted_kappa([L, M, H, L], [L, M, H, L]) == pytest.approx(1.0)

    def test_hand_example(self):
        assert weighted_kappa([L, M, H, L], [L, M, M, L]) == pytest.approx(2.0 / 3.0)

    def test_degenerate_marginals(self):
        with pytest.raises(DegenerateMarginalsError):
            weighted_kappa([L, L, L], [L, L, L])

    def test_degenerate_marginals_is_a_data_error(self):
        # the CLI turns every DataError into exit 2, and xval skips the fold
        assert issubclass(DegenerateMarginalsError, DataError)
        with pytest.raises(DataError, match="degenerate marginals"):
            weighted_kappa([H, H], [H, H])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            n = int(rng.integers(10, 200))
            truth = rng.integers(0, 3, n)
            pred = rng.integers(0, 3, n)
            try:
                value = weighted_kappa(truth, pred)
            except DegenerateMarginalsError:
                continue
            assert value == pytest.approx(kappa_oracle(truth.tolist(), pred.tolist()), abs=1e-12)
            checked += 1


class TestKendallTau:
    def test_identity_and_reversal(self):
        ranks = np.arange(1.0, 11.0)
        assert kendall_tau(ranks, ranks) == 1.0
        assert kendall_tau(ranks, ranks[::-1]) == -1.0

    def test_hand_example(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2.0 / 3.0)

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            # integer draws produce ties
            ra = rng.integers(0, 10, n).astype(float)
            rb = rng.integers(0, 10, n).astype(float)
            assert kendall_tau(ra, rb) == pytest.approx(tau_oracle(ra, rb), abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(29)
        ra = rng.normal(size=30)
        rb = rng.normal(size=30)
        base = kendall_tau(ra, rb)
        assert kendall_tau(np.exp(ra), rb) == pytest.approx(base)
        assert kendall_tau(ra, 3 * rb + 7) == pytest.approx(base)

    def test_too_short_errors(self):
        with pytest.raises(DataError):
            kendall_tau([1.0], [1.0])

    def test_non_finite_ranks_error(self):
        with pytest.raises(DataError, match="finite"):
            kendall_tau([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 150),
        levels_a=st.sampled_from([1, 2, 3, 5, 20, 1000]),
        levels_b=st.sampled_from([1, 2, 3, 5, 20, 1000]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_pair_enumeration_under_heavy_ties(self, n, levels_a, levels_b, seed):
        rng = np.random.default_rng(seed)
        ra = rng.integers(0, levels_a, n) / 2.0
        rb = rng.integers(0, levels_b, n) / 2.0
        assert kendall_tau(ra, rb) == tau_oracle(ra, rb)

    def test_peak_memory_under_5mb_at_3000_items(self):
        """Two float64 sign matrices at T=3000 would take 144 MB."""
        rng = np.random.default_rng(37)
        ra = rng.integers(0, 300, 3000).astype(float)
        rb = rng.normal(size=3000)
        tracemalloc.start()
        try:
            kendall_tau(ra, rb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestPrecisionAtK:
    def test_perfect_prediction_all_k(self):
        rng = np.random.default_rng(31)
        ranks = rng.permutation(np.arange(1.0, 21.0))
        for k in (10, 20, 30, 40, 50):
            assert precision_at_k(ranks, ranks, k) == 1.0

    def test_reversed_prediction_is_zero_for_small_k(self):
        ranks = np.arange(1.0, 21.0)
        assert precision_at_k(ranks, ranks[::-1], 10) == 0.0

    def test_hand_constructed_half_credit(self):
        truth = np.arange(1.0, 11.0)  # high group: ranks 6..10
        # top-2 predicted: frames with truth ranks 10 (high) and 5 (low) -> 1/2
        # bottom-2 predicted: frames with truth ranks 1 (low) and 6 (high) -> 1/2
        pred = np.array([1.0, 3.0, 4.0, 5.0, 9.0, 2.0, 6.0, 7.0, 8.0, 10.0])
        assert precision_at_k(truth, pred, 20) == 0.5

    def test_k_out_of_range(self):
        ranks = np.arange(1.0, 11.0)
        for bad in (0, -5, 51, 100):
            with pytest.raises(DataError):
                precision_at_k(ranks, ranks, bad)

    def test_invariant_under_increasing_transform_of_predictions(self):
        rng = np.random.default_rng(37)
        truth = rng.permutation(np.arange(1.0, 31.0))
        pred = rng.normal(size=30)
        for k in (10, 30, 50):
            assert precision_at_k(truth, pred, k) == precision_at_k(truth, 10 * pred + 3, k)


def test_confusion_matrix_layout():
    counts = confusion_matrix([L, L, M, H], [M, L, M, L])
    assert counts[L, M] == 1 and counts[L, L] == 1 and counts[M, M] == 1 and counts[H, L] == 1
    assert counts.sum() == 4


def test_metrics_invariant_under_shared_permutation():
    rng = np.random.default_rng(41)
    truth = rng.integers(0, 3, 60)
    pred = rng.integers(0, 3, 60)
    while len(set(truth)) < 3:
        truth = rng.integers(0, 3, 60)
    perm = rng.permutation(60)
    assert uar(truth, pred) == uar(truth[perm], pred[perm])
    assert weighted_kappa(truth, pred) == pytest.approx(weighted_kappa(truth[perm], pred[perm]))
