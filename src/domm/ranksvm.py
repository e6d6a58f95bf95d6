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
``np.bincount``. The Hessian is updated from the active-set change
(Keerthi & DeCoste 2005): each Newton step adds the outer products of the
pair differences that entered the active set since the last step and
subtracts those of the pairs that left, ``HESSIAN_BLOCK`` at a time. The
first step, and any step where more pairs changed than are active, sums
the active pairs directly. The P x D difference matrix is never built;
working memory is O(N*D + P + HESSIAN_BLOCK*D), the solver keeping one
extra P-length bool, the previous step's active mask.
"""

from __future__ import annotations

import numpy as np

from domm.core import DataError, RolSequence, average_ranks, later_lower_counts
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


def _sorted_choice(total: int, cap: int, seed: int) -> np.ndarray:
    """``np.sort(default_rng(seed).choice(total, cap, replace=False))`` in O(cap) memory.

    Where ``choice`` would tail-shuffle (``total > 10000`` and
    ``cap > total // 50``) it fills an ``arange(total)`` (21.5 MB at the
    xval-wide shape) and swaps each position ``i`` from ``total - 1`` down to
    ``total - cap`` with a drawn ``j <= i``, keeping the last ``cap``
    positions. The same draws are taken here with ``integers`` and the swaps
    resolved without the array: step ``k`` keeps what the latest earlier
    step with the same ``j`` wrote there, or ``j`` itself, and writes what
    its own position held, which chains back through earlier steps that
    targeted that position. Below that regime ``choice`` itself (Floyd's
    algorithm) is already O(cap).
    """
    rng = np.random.default_rng(seed)
    if total <= 10000 or cap <= total // 50:
        return np.sort(rng.choice(total, size=cap, replace=False))
    k = np.arange(cap)  # step k swaps position total - 1 - k
    targets = rng.integers(0, total - 1 - k, endpoint=True)
    order = np.argsort(targets * cap + k)
    sorted_targets = targets[order]
    same = sorted_targets[1:] == sorted_targets[:-1]
    prev = np.full(cap, -1)  # the latest earlier step with the same target
    prev[order[1:][same]] = order[:-1][same]
    ends = np.flatnonzero(np.append(~same, True))
    ends = ends[sorted_targets[ends] >= total - cap]
    # the latest step before k that wrote k's own position, or k if none did
    root = k.copy()
    root[total - 1 - sorted_targets[ends]] = order[ends]
    del order, sorted_targets
    self_swap = (targets == total - 1 - k) & (prev >= 0)
    root[self_swap] = prev[self_swap]
    while not np.array_equal(hop := root[root], root):
        root = hop
    kept = prev >= 0
    targets[kept] = total - 1 - root[prev[kept]]
    targets.sort()
    return targets


def build_pairs(rols: list[RolSequence], cap: int = PAIR_CAP, seed: int = 0) -> np.ndarray:
    """All strict (preferred, other) frame-index pairs, subsampled to ``cap``.

    Indices address the rows of the feature matrix formed by stacking the
    utterances in the given order. Per utterance the pairs with
    ``r_i > r_j`` come first, then those with ``r_i < r_j``; within a kind,
    the upper triangle row-major, ``BLOCK_ROWS`` rows at a time. Both kinds
    pair each frame with the later frames whose key is lower, the keys
    being the ranks (the first kind) or the negated ranks (the second), so
    a block's pair count is the sum over its rows of
    ``core.later_lower_counts`` of the keys. When the total exceeds ``cap``
    a uniform subsample of pair indices is drawn from the counts alone with
    the seeded generator (``_sorted_choice``: the indices
    ``Generator.choice`` would keep, without its ``arange(total)``), so the
    result is deterministic for a fixed seed. Only the blocks that hold
    kept pairs build their T-wide mask: working memory is
    O(BLOCK_ROWS * T) plus the kept pairs. The pipeline keeps ``PAIR_CAP``;
    tests pass smaller caps.
    """
    blocks = []  # (offset, keys, swap, lo) per row block, in pair order
    counts = [[0]]
    offset = 0
    for rol in rols:
        los = np.arange(0, rol.ranks.size, BLOCK_ROWS)
        # a pair is a later-and-lower key; ``swap`` marks the kind whose preferred frame is the column
        for keys, swap in ((rol.ranks, False), (-rol.ranks, True)):
            counts.append(np.add.reduceat(later_lower_counts(keys), los))
            blocks += [(offset, keys, swap, lo) for lo in los]
        offset += rol.ranks.size
    starts = np.cumsum(np.concatenate(counts))
    total = int(starts[-1])
    if total > cap:
        keep = _sorted_choice(total, cap, seed)
    else:
        keep = np.arange(total)
    bounds = np.searchsorted(keep, starts)
    pairs = np.empty((keep.size, 2), dtype=int)
    for (offset, keys, swap, lo), start, a, b in zip(blocks, starts, bounds, bounds[1:]):
        if a == b:
            continue
        cols = np.arange(keys.size)
        rows = cols[lo : lo + BLOCK_ROWS]
        mask = (cols > rows[:, None]) & (keys[rows, None] > keys)
        row, col = np.divmod(np.flatnonzero(mask)[keep[a:b] - start], keys.size)
        row += lo
        pairs[a:b] = np.column_stack([col, row] if swap else [row, col]) + offset
    return pairs


def _pair_objective(w, x, p0, p1, c):
    """Squared-hinge pair objective, gradient and the boolean active-pair mask at ``w``, from frame scores.

    Every pair-length reduction runs in numpy's own loops (``einsum``,
    ``bincount``), never in BLAS, so the result does not depend on the BLAS
    thread count.
    """
    scores = x @ w
    margins = 1.0 - (scores[p0] - scores[p1])
    active = margins > 0.0
    viol = margins[active]
    obj = 0.5 * (w @ w) + c * np.einsum("i,i->", viol, viol)
    coef = -2.0 * c * viol
    frame_coef = np.bincount(p0[active], coef, x.shape[0]) - np.bincount(p1[active], coef, x.shape[0])
    return obj, w + x.T @ frame_coef, active


def _pair_gram(x, a0, a1):
    """Sum of d.T @ d over the pair differences d = x[a0] - x[a1], ``HESSIAN_BLOCK`` pairs at a time."""
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
    last = {}  # the previous step's active mask and Hessian sum

    def hessian(active):
        if last:
            entered = np.flatnonzero(active > last["active"])
            left = np.flatnonzero(active < last["active"])
        if not last or entered.size + left.size >= np.count_nonzero(active):
            total = _pair_gram(x, p0[active], p1[active])
        else:
            total = last["gram"] + _pair_gram(x, p0[entered], p1[entered])
            total -= _pair_gram(x, p0[left], p1[left])
        last.update(active=active, gram=total)
        return np.eye(x.shape[1]) + 2.0 * c * total

    params, _ = _newton_loop(lambda w: _pair_objective(w, x, p0, p1, c), hessian, np.zeros(x.shape[1]))
    return LinearModel(weights=params, bias=0.0)


def ranks_from_scores(scores, utterance_id: str = "") -> RolSequence:
    """Ascending scores become ascending ranks; exact ties get averaged ranks."""
    s = np.asarray(scores, dtype=float)
    if s.size < 1:
        raise DataError("cannot rank an empty score sequence")
    if not np.all(np.isfinite(s)):
        raise DataError(f"{utterance_id}: cannot rank non-finite scores")
    return RolSequence.from_ranks(utterance_id, average_ranks(s))
