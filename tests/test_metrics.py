import numpy as np
import pytest

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


def tau_oracle(ra, rb):
    """O(n^2) pair enumeration of (C - D) / (n(n-1)/2)."""
    n = len(ra)
    c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            prod = (ra[i] - ra[j]) * (rb[i] - rb[j])
            if prod > 0:
                c += 1
            elif prod < 0:
                d += 1
    return (c - d) / (n * (n - 1) / 2)


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
