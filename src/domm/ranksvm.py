"""Preference-pair construction and linear rank learning.

Pairs are built strictly within each utterance (ranks are only defined
relative to the frames of one utterance); ties contribute no pair. Training
minimizes the squared hinge over feature differences

    0.5 * ||w||^2 + c * sum_p max(0, 1 - w . (x_pref - x_other))^2

with no bias term, since differencing cancels it. Frame scores are the
projections w . x; ranks follow score order with the tied-average
convention.

The fit runs ``svm``'s one Newton loop with a pair-index evaluator: each
evaluation scores the N frames once, takes the P pair margins as score
differences and scatters the violations back onto frames with
``np.bincount``, and the Hessian sums the active pair differences
``HESSIAN_BLOCK`` at a time. The P x D difference matrix is never built, so
working memory is O(N*D + P + HESSIAN_BLOCK*D).
"""

from __future__ import annotations

import numpy as np

from domm.core import DataError, RolSequence, average_ranks
from domm.labels import BLOCK_ROWS
from domm.svm import LinearModel, _newton_loop

__all__ = [
    "PAIR_CAP",
    "build_pairs",
    "ranks_from_scores",
    "train_ranksvm",
]

PAIR_CAP = 200_000
HESSIAN_BLOCK = 8192


def _ordered_blocks(rols: list[RolSequence]):
    """Yield (offset, swap, lo, mask) for each row block of each strict pair kind.

    Per utterance the pairs with ``r_i > r_j`` come first, then those with
    ``r_i < r_j``; within a kind, ``np.flatnonzero`` of the blocks' masks
    walks the upper triangle row-major. ``swap`` marks the kind whose
    preferred frame is the column.
    """
    offset = 0
    for rol in rols:
        ranks = rol.ranks
        cols = np.arange(ranks.size)
        for prefer, swap in ((np.greater, False), (np.less, True)):
            for lo in range(0, ranks.size, BLOCK_ROWS):
                rows = cols[lo : lo + BLOCK_ROWS]
                yield offset, swap, lo, (cols > rows[:, None]) & prefer(ranks[rows, None], ranks)
        offset += ranks.size


def build_pairs(rols: list[RolSequence], cap: int = PAIR_CAP, seed: int = 0) -> np.ndarray:
    """All strict (preferred, other) frame-index pairs, subsampled to ``cap``.

    Indices address the rows of the feature matrix formed by stacking the
    utterances in the given order. When the pair count exceeds ``cap`` a
    uniform subsample of pair indices is drawn from the count alone with the
    seeded generator, so the result is deterministic for a fixed seed. The
    pairs are counted, then only the kept ones enumerated, ``BLOCK_ROWS``
    rows of one utterance at a time: working memory is O(BLOCK_ROWS * T)
    plus the kept pairs. The pipeline keeps ``PAIR_CAP``; tests pass smaller caps.
    """
    counts = [np.count_nonzero(mask) for *_, mask in _ordered_blocks(rols)]
    starts = np.concatenate([[0], np.cumsum(counts, dtype=int)])
    total = int(starts[-1])
    if total > cap:
        keep = np.sort(np.random.default_rng(seed).choice(total, size=cap, replace=False))
    else:
        keep = np.arange(total)
    bounds = np.searchsorted(keep, starts)
    pairs = np.empty((keep.size, 2), dtype=int)
    for (offset, swap, lo, mask), start, a, b in zip(_ordered_blocks(rols), starts, bounds, bounds[1:]):
        if a == b:
            continue
        row, col = np.divmod(np.flatnonzero(mask)[keep[a:b] - start], mask.shape[1])
        row += lo
        pairs[a:b] = np.column_stack([col, row] if swap else [row, col]) + offset
    return pairs


def _pair_objective(w, x, p0, p1, c):
    """Squared-hinge pair objective, gradient and active pairs at ``w``, from frame scores.

    Every pair-length reduction runs in numpy's own loops (``einsum``,
    ``bincount``), never in BLAS, so the result does not depend on the BLAS
    thread count.
    """
    scores = x @ w
    margins = 1.0 - (scores[p0] - scores[p1])
    active = margins > 0.0
    viol = margins[active]
    obj = 0.5 * (w @ w) + c * np.einsum("i,i->", viol, viol)
    a0, a1 = p0[active], p1[active]
    coef = -2.0 * c * viol
    frame_coef = np.bincount(a0, coef, x.shape[0]) - np.bincount(a1, coef, x.shape[0])
    return obj, w + x.T @ frame_coef, (a0, a1)


def _pair_gram(x, active):
    """Sum of d.T @ d over the active pair differences d, ``HESSIAN_BLOCK`` pairs at a time."""
    a0, a1 = active
    gram = np.zeros((x.shape[1], x.shape[1]))
    for lo in range(0, a0.size, HESSIAN_BLOCK):
        blk = x[a0[lo : lo + HESSIAN_BLOCK]]
        blk -= x[a1[lo : lo + HESSIAN_BLOCK]]
        gram += blk.T @ blk
    return gram


def train_ranksvm(features, pairs: np.ndarray, c: float = 1e-4) -> LinearModel:
    """Fit the ranking hyperplane on preference pairs (bias fixed at 0), from pair indices."""
    x = np.asarray(features, dtype=float)
    pairs = np.asarray(pairs, dtype=int)
    if pairs.size == 0:
        raise DataError("cannot train a ranker on an empty pair set")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DataError("pairs must be a P x 2 index array")
    if not np.all(np.isfinite(x)):
        raise DataError("training features contain non-finite values")
    p0, p1 = pairs.T
    params, _ = _newton_loop(
        lambda w: _pair_objective(w, x, p0, p1, c),
        lambda active: _pair_gram(x, active),
        c,
        np.ones(x.shape[1]),
    )
    return LinearModel(weights=params, bias=0.0)


def ranks_from_scores(scores, utterance_id: str = "") -> RolSequence:
    """Ascending scores become ascending ranks; exact ties get averaged ranks."""
    s = np.asarray(scores, dtype=float)
    if s.size < 1:
        raise DataError("cannot rank an empty score sequence")
    if not np.all(np.isfinite(s)):
        raise DataError(f"{utterance_id}: cannot rank non-finite scores")
    return RolSequence.from_ranks(utterance_id, average_ranks(s))
