"""Evaluation metrics for ordinal label sequences and rank sequences.

UAR and weighted Cohen's kappa score predicted ordinal label sequences
against ground truth; Kendall's tau and precision-at-k score predicted rank
sequences. Kappa uses the tridiagonal partial-credit weight matrix that
gives half credit to one-level misses. Kendall's tau counts its tied and
discordant pairs exactly, in integers, without a pairwise matrix: the
discordant ones are the later-and-lower items that ``core.later_lower_counts``
counts, the same counter that sizes the ranker's pair blocks.
"""

from __future__ import annotations

import numpy as np

from domm.core import DataError, MissingClassError, later_lower_counts

__all__ = [
    "DegenerateMarginalsError",
    "KAPPA_WEIGHTS",
    "confusion_matrix",
    "kendall_tau",
    "precision_at_k",
    "uar",
    "weighted_kappa",
]

KAPPA_WEIGHTS = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])


class DegenerateMarginalsError(DataError):
    """Kappa denominator is zero: the chance-agreement term equals 1."""


def _label_arrays(truth, pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(getattr(truth, "labels", truth))
    p = np.asarray(getattr(pred, "labels", pred))
    if t.shape != p.shape or t.ndim != 1 or t.size < 1:
        raise DataError("truth and prediction must be equal-length non-empty sequences")
    return t, p


def confusion_matrix(truth, pred) -> np.ndarray:
    """3x3 counts with rows = ground truth, columns = prediction."""
    t, p = _label_arrays(truth, pred)
    counts = np.zeros((3, 3), dtype=int)
    np.add.at(counts, (t, p), 1)
    return counts


def uar(truth, pred) -> float:
    """Unweighted average recall as a percentage: mean over classes of per-class recall."""
    counts = confusion_matrix(truth, pred)
    per_class_total = counts.sum(axis=1)
    if np.any(per_class_total == 0):
        missing = [s for s in range(3) if per_class_total[s] == 0]
        raise MissingClassError(f"recall undefined: truth contains no frames of class {missing}")
    recalls = np.diag(counts) / per_class_total
    return float(recalls.mean() * 100.0)


def weighted_kappa(truth, pred) -> float:
    """Weighted Cohen's kappa between two ordinal label sequences.

    k_w = (sum_ij w_ij p_ij - sum_ij w_ij p_i q_j) / (1 - sum_ij w_ij p_i q_j)
    with p_ij the joint label proportions, p_i / q_j the marginals, and w the
    partial-credit weights. Equals 1 iff agreement is perfect.
    """
    counts = confusion_matrix(truth, pred)
    n = counts.sum()
    joint = counts / n
    expected = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    observed_term = float((KAPPA_WEIGHTS * joint).sum())
    chance_term = float((KAPPA_WEIGHTS * expected).sum())
    denom = 1.0 - chance_term
    if abs(denom) < 1e-12:
        raise DegenerateMarginalsError(
            "weighted kappa undefined: chance-agreement term is 1 (degenerate marginals)"
        )
    return (observed_term - chance_term) / denom


def _rank_arrays(a, b) -> tuple[np.ndarray, np.ndarray]:
    ra = np.asarray(getattr(a, "ranks", a), dtype=float)
    rb = np.asarray(getattr(b, "ranks", b), dtype=float)
    if ra.shape != rb.shape or ra.ndim != 1:
        raise DataError("rank sequences must be equal-length 1-D")
    if not (np.all(np.isfinite(ra)) and np.all(np.isfinite(rb))):
        raise DataError("rank sequences must be finite")
    return ra, rb


def _tied_pairs(sorted_keys: np.ndarray) -> int:
    """Pairs within runs of equal rows of ``sorted_keys`` (n x k, equal rows adjacent)."""
    change = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    runs = np.diff(np.flatnonzero(np.concatenate(([True], change, [True]))))
    return int(np.sum(runs * (runs - 1) // 2))


def kendall_tau(ranks_a, ranks_b) -> float:
    """Kendall's tau-a, (C - D) / T with the fixed denominator T = n(n-1)/2.

    Pairs tied in either sequence count toward neither C nor D. Knight's
    (1966) count: sort by (a, b), so that D is the number of strict
    inversions of b, and C - D = T - ties_a - ties_b + ties_ab - 2D. D sums
    ``core.later_lower_counts`` of b, in exact integers.
    """
    ra, rb = _rank_arrays(ranks_a, ranks_b)
    n = ra.size
    if n < 2:
        raise DataError("Kendall's tau needs at least two items")
    order = np.lexsort((rb, ra))
    a, b = ra[order], rb[order]
    pairs = n * (n - 1) // 2
    ties_a = _tied_pairs(a[:, None])
    ties_ab = _tied_pairs(np.column_stack((a, b)))
    ties_b = _tied_pairs(np.sort(b)[:, None])
    c_minus_d = pairs - ties_a - ties_b + ties_ab - 2 * int(later_lower_counts(b).sum())
    return c_minus_d / pairs


def precision_at_k(truth, predicted, k: float) -> float:
    """Precision of retrieving the top and bottom k% of frames.

    Ground-truth frames with rank strictly above the median form the high
    group, the rest the low group. With m = max(1, floor(k * T / 100)), the
    score averages the fraction of the m highest-predicted frames that land
    in the high group and the fraction of the m lowest-predicted frames that
    land in the low group.
    """
    rt, rp = _rank_arrays(truth, predicted)
    if not 0 < k <= 50:
        raise DataError(f"k must be in (0, 50], got {k}")
    n = rt.size
    if n < 2:
        raise DataError("precision-at-k needs at least two frames")
    high = rt > np.median(rt)
    m = max(1, int(np.floor(k * n / 100.0)))
    order = np.lexsort((np.arange(n), rp))  # ascending predicted rank, index-stable
    top = order[-m:]
    bottom = order[:m]
    return 0.5 * (float(np.mean(high[top])) + float(np.mean(~high[bottom])))
