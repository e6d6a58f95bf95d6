"""Rank-difference-conditioned state transition model.

Estimates the smoothed transition prior P(state_t | state_{t-1}) from label
counts and Gaussian-kernel densities of the normalized rank difference for
every (previous state, current state) cell, then fuses them by Bayes'
theorem into a transition distribution that varies with the observed rank
difference:

    P(j | i, d) ~ P(d | i, j) * P(j | i) / P(d | i)

The denominator P(d | i) does not depend on j, so renormalizing each row
cancels it exactly; it is never evaluated. The per-row marginal densities
are still fit, as the fallback for sparse (previous, current) cells. The
model keeps only the prior and the densities: the transition counts that
built the prior are not stored.

The training differences of tied-average ranks repeat, so the densities
evaluate each Gaussian kernel once per distinct sample value and skip the
kernels that underflow to zero; the result is the same bytes as the plain
sum over every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from domm.core import AolSequence, DataError, RolSequence

__all__ = [
    "KdeModel",
    "TransitionModel",
    "fit_kde",
    "fit_transition_model",
    "kde_density",
    "silverman_bandwidth",
    "transition_matrices",
]

BANDWIDTH_FLOOR = 1e-3
DENSITY_FLOOR = 1e-9
SQRT_2PI = np.sqrt(2.0 * np.pi)
# query x sample cells per kde_density block
KDE_BLOCK_CELLS = 65_536
# exp(x) is exactly +0.0 for every x <= EXP_UNDERFLOW: -746 lies below ln(2**-1075) ~ -745.13
EXP_UNDERFLOW = -746.0


@dataclass(frozen=True)
class KdeModel:
    """Gaussian-kernel density carried as its training samples plus bandwidth."""

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self):
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise DataError("KDE needs a flat list of at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("KDE samples contain non-finite values")
        if not self.bandwidth > 0:
            raise DataError("KDE bandwidth must be positive")


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), floored for degenerate spreads."""
    n = samples.size
    if n < 2:
        return BANDWIDTH_FLOOR
    std = samples.std(ddof=1)
    q75, q25 = np.percentile(samples, [75, 25])
    spread = min(std, (q75 - q25) / 1.34)
    return max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def fit_kde(samples, bandwidth="silverman") -> KdeModel:
    """Fit a Gaussian KDE; ``bandwidth`` is "silverman" or an explicit positive value."""
    s = np.asarray(samples, dtype=float)
    h = silverman_bandwidth(s) if bandwidth == "silverman" else float(bandwidth)
    return KdeModel(samples=s, bandwidth=h)


def kde_density(model: KdeModel, delta):
    """Density (1/(n h)) * sum_k phi((delta - s_k)/h), floored at DENSITY_FLOOR.

    Accepts a scalar or an array of finite query points; a non-finite query
    raises DataError. The queries are evaluated in blocks of at most
    KDE_BLOCK_CELLS query x sample cells (one query per block when n
    exceeds it), so memory stays bounded for any number of queries. Within
    a block the kernel is computed once per distinct sample value, and exp
    only where its argument is above EXP_UNDERFLOW (below it exp is exactly
    +0.0); the kernels are then gathered back into sample order, so each
    query's kernel sum is the same contiguous row sum, and the same bytes,
    as summing exp over every sample, whatever the block size.
    """
    d = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(d)):
        raise DataError("KDE query points contain non-finite values")
    queries = d.reshape(-1)
    values, where = np.unique(model.samples, return_inverse=True)
    sums = np.empty(queries.size)
    step = max(1, KDE_BLOCK_CELLS // model.samples.size)
    for lo in range(0, queries.size, step):
        # u = (q - s) / h and a = -0.5 * u * u, the same operations in place
        u = queries[lo : lo + step, None] - values
        u /= model.bandwidth
        a = u * -0.5
        a *= u
        kernel = np.exp(a, where=a > EXP_UNDERFLOW, out=np.zeros_like(a))
        # take keeps each query's row contiguous, so it sums in the dense order;
        # kernel[:, where] is F-ordered and its row sums differ in the last bits
        sums[lo : lo + step] = kernel.take(where, axis=1).sum(axis=-1)
    dens = sums.reshape(d.shape) / (model.samples.size * model.bandwidth * SQRT_2PI)
    out = np.maximum(dens, DENSITY_FLOOR)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TransitionModel:
    """Smoothed transition prior plus conditional/marginal rank-difference densities."""

    prior: np.ndarray
    conditional_kdes: tuple
    marginal_kdes: tuple
    # which rank representation the densities were fit on; queries must match
    use_normalized_ranks: bool = True

    def __post_init__(self):
        if ([len(row) for row in self.conditional_kdes], len(self.marginal_kdes)) != ([3, 3, 3], 3):
            raise DataError("transition model needs 3x3 conditional KDEs and 3 marginals")
        if not isinstance(self.use_normalized_ranks, bool):
            raise DataError("use_normalized_ranks must be true or false")
        if self.prior.shape != (3, 3) or np.any(self.prior <= 0):
            raise DataError("prior must be a strictly positive 3x3 matrix")
        if np.max(np.abs(self.prior.sum(axis=1) - 1.0)) > 1e-12:
            raise DataError("prior rows must sum to 1")


def fit_transition_model(
    aols: list[AolSequence],
    rols: list[RolSequence],
    bandwidth="silverman",
    min_cell_samples: int = 10,
    use_normalized_ranks: bool = True,
) -> TransitionModel:
    """Fit prior and rank-difference densities from aligned label/rank sequences.

    Consecutive-frame pairs are partitioned into the nine (previous, current)
    state cells for the conditional densities and into three previous-state
    rows for the marginals. The prior uses add-one smoothing
    (N_ij + 1) / (N_i + 3) where N_i counts frames that have a successor.
    Cells with fewer than ``min_cell_samples`` rank differences fall back to
    their row's marginal density; an empty row falls back to the pooled
    density over all transitions. A cell keeps its differences in
    utterance-then-frame order, a row pools its cells in column order and the
    pooled density all cells in (row, column) order.
    """
    if len(aols) != len(rols):
        raise DataError("need one rank sequence per label sequence")
    prev, cur, deltas = [], [], []
    for aol, rol in zip(aols, rols):
        if aol.utterance_id != rol.utterance_id or len(aol) != len(rol):
            raise DataError(
                f"misaligned label/rank sequences for {aol.utterance_id!r}/{rol.utterance_id!r}"
            )
        prev.append(aol.labels[:-1])
        cur.append(aol.labels[1:])
        deltas.append(rol.deltas(use_normalized_ranks))
    if sum(d.size for d in deltas) == 0:
        raise DataError("no consecutive frame pairs in the training sequences")
    prev, cur, deltas = (np.concatenate(steps) for steps in (prev, cur, deltas))

    cells = [[deltas[(prev == i) & (cur == j)] for j in range(3)] for i in range(3)]
    counts = np.array([[cell.size for cell in row] for row in cells])
    prior = (counts + 1.0) / (counts.sum(axis=1) + 3.0)[:, None]

    pooled_kde = fit_kde(np.concatenate([cell for row in cells for cell in row]), bandwidth)
    marginal_kdes = []
    for row in cells:
        samples = np.concatenate(row)
        marginal_kdes.append(fit_kde(samples, bandwidth) if samples.size else pooled_kde)
    conditional_kdes = tuple(
        tuple(fit_kde(cell, bandwidth) if cell.size >= min_cell_samples else marginal for cell in row)
        for row, marginal in zip(cells, marginal_kdes)
    )
    return TransitionModel(
        prior=prior,
        conditional_kdes=conditional_kdes,
        marginal_kdes=tuple(marginal_kdes),
        use_normalized_ranks=use_normalized_ranks,
    )


def transition_matrices(model: TransitionModel, deltas) -> np.ndarray:
    """Transition distributions for a batch of rank differences.

    Returns an array of shape (len(deltas), 3, 3) whose [t, i, :] row is the
    Bayes-fused distribution over current states given previous state i and
    rank difference deltas[t]: prior times conditional density, each row scaled
    to sum to one.
    """
    d = np.asarray(deltas, dtype=float)
    q = np.empty((d.size, 3, 3))
    for i in range(3):
        for j in range(3):
            q[:, i, j] = kde_density(model.conditional_kdes[i][j], d) * model.prior[i, j]
    return q / q.sum(axis=2, keepdims=True)
