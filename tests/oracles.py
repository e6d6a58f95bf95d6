"""Reference implementations that the tests compare the pipeline against.

Each one spells out its definition directly (exhaustive search, pair
enumeration, whole matrices, per-frame loops), so it is slow but easy to
check by reading. None of them runs in the pipeline.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from domm import ranksvm
from domm.core import AolSequence, DataError, average_ranks
from domm.decoder import PROB_FLOOR, StateLattice
from domm.labels import DECREASE, INCREASE, TIE, UNDECIDED
from domm.svm import MAX_BACKTRACKS, PlattCalibration, _newton_loop, _sigmoid
from domm.transitions import DENSITY_FLOOR, SQRT_2PI, KdeModel, TransitionModel, transition_matrices

BRUTE_FORCE_LIMIT = 12


def brute_force_decode(lattice: StateLattice, model: TransitionModel) -> AolSequence:
    """Exhaustive argmax over all 3^T sequences; the oracle for ``viterbi_decode``.

    The log scores are floored as in the decoder, and they accumulate in the
    same order as the Viterbi recursion, so float results are bit-identical.
    The same tie rule applies: among equal scores the sequence whose reversal
    is lexicographically smallest wins.
    """
    t_max = lattice.n_frames
    if t_max > BRUTE_FORCE_LIMIT:
        raise DataError(f"brute force refuses T > {BRUTE_FORCE_LIMIT} (3^T sequences)")
    log_post = np.log(np.maximum(lattice.posteriors, PROB_FLOOR))
    log_trans = np.log(np.maximum(transition_matrices(model, lattice.deltas), PROB_FLOOR))
    best_score = -np.inf
    best_key = None
    best_path = None
    for path in itertools.product(range(3), repeat=t_max):
        score = log_post[0, path[0]]
        for t in range(1, t_max):
            score = score + log_trans[t - 1][path[t - 1], path[t]]
            score = score + log_post[t, path[t]]
        key = path[::-1]
        if score > best_score or (score == best_score and key < best_key):
            best_score, best_key, best_path = score, key, path
    return AolSequence(lattice.utterance_id, np.array(best_path))


def transition_distribution(model: TransitionModel, prev: int, delta: float) -> np.ndarray:
    """Distribution over current states given the previous state and one rank difference."""
    return transition_matrices(model, np.atleast_1d(float(delta)))[0, int(prev)]


def dense_consensus_ranks(values, eps_tie=0.0):
    """Copeland ranks of the whole-matrix consensus: int64 vote counts, argmax, majority test."""
    values = np.asarray(values, dtype=float)
    stack = []
    for v in values:
        diff = v[None, :] - v[:, None]
        m = np.zeros(diff.shape, dtype=np.int8)
        m[diff > eps_tie] = INCREASE
        m[diff < -eps_tie] = DECREASE
        stack.append(m)
    stack = np.stack(stack)
    codes = np.array([INCREASE, DECREASE, TIE])
    counts = np.stack([(stack == c).sum(axis=0, dtype=np.int64) for c in codes])
    consensus = np.where(counts.max(axis=0) > len(values) / 2.0, codes[counts.argmax(axis=0)], UNDECIDED)
    scores = (consensus == INCREASE).sum(axis=0) - (consensus == DECREASE).sum(axis=0)
    return average_ranks(scores)


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


def later_lower_loop(values) -> np.ndarray:
    """Per item i, the count of j > i with values[j] < values[i]; the oracle for ``later_lower_counts``."""
    values = list(values)
    return np.array([sum(later < v for later in values[i + 1 :]) for i, v in enumerate(values)], dtype=int)


def consensus_vote_loop(stack) -> np.ndarray:
    """Per-frame majority vote over an (R, T) stack of state codes, one frame at a time.

    Tied vote counts go to the tied code closest to the frame's mean code;
    a tie in that distance goes to Medium.
    """
    stack = np.asarray(stack)
    counts = np.stack([(stack == s).sum(axis=0) for s in range(3)], axis=1)
    mean_code = stack.mean(axis=0)
    out = np.empty(stack.shape[1], dtype=int)
    for t in range(stack.shape[1]):
        tied = np.flatnonzero(counts[t] == counts[t].max())
        if tied.size == 1:
            out[t] = tied[0]
            continue
        dist = np.abs(tied - mean_code[t])
        closest = tied[dist == dist.min()]
        out[t] = closest[0] if closest.size == 1 else 1
    return out


def enumerated_pairs(rols, cap, seed):
    """Every strict pair of every utterance from ``triu_indices``, then the seeded subsample.

    The oracle for ``build_pairs``: per utterance the ``r_i > r_j`` pairs as
    (i, j), then the ``r_i < r_j`` pairs as (j, i), all offset into the
    stacked frames; above ``cap`` the pairs at ``ranksvm._sorted_subset``'s
    seeded sorted indices are kept.
    """
    chunks = []
    offset = 0
    for rol in rols:
        ranks = rol.ranks
        i, j = np.triu_indices(ranks.size, k=1)
        greater = ranks[i] > ranks[j]
        less = ranks[i] < ranks[j]
        preferred = np.concatenate([i[greater], j[less]]) + offset
        other = np.concatenate([j[greater], i[less]]) + offset
        chunks.append(np.column_stack([preferred, other]))
        offset += ranks.size
    pairs = np.vstack(chunks) if chunks else np.empty((0, 2), dtype=int)
    if pairs.shape[0] > cap:
        pairs = pairs[ranksvm._sorted_subset(pairs.shape[0], cap, seed)]
    return pairs


def dense_kde_density(model: KdeModel, delta):
    """The KDE from one whole query x sample matrix; the oracle for ``kde_density``."""
    d = np.asarray(delta, dtype=float)
    u = (d[..., None] - model.samples) / model.bandwidth
    dens = np.exp(-0.5 * u * u).sum(axis=-1) / (model.samples.size * model.bandwidth * SQRT_2PI)
    out = np.maximum(dens, DENSITY_FLOOR)
    return float(out) if out.ndim == 0 else out


def two_pass_newton(inputs, targets, c):
    """The squared-hinge Newton solve that scores each accepted iterate twice; the oracle for ``newton_squared_hinge``.

    The line search evaluates the objective and gradient at each candidate.
    The next step then recomputes the accepted iterate's scores and copies
    its violators again to build the Hessian, while the line search copies
    its own. Returns (params, objective trace, number of objective
    evaluations).
    """
    from domm.svm import GRAD_TOL, MAX_BACKTRACKS, MAX_NEWTON_STEPS

    def objective_and_gradient(params):
        w, b = params[:-1], params[-1]
        scores = inputs @ w + b
        margins = 1.0 - targets * scores
        active = margins > 0.0
        viol = margins[active]
        obj = 0.5 * (w @ w) + c * (viol @ viol)
        coef = -2.0 * c * targets[active] * viol
        return obj, np.concatenate([w + inputs[active].T @ coef, [coef.sum()]])

    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    params = np.zeros(inputs.shape[1] + 1)
    reg_diag = np.append(np.ones(inputs.shape[1]), 0.0)

    obj, grad = objective_and_gradient(params)
    evaluations = 1
    trace = [obj]
    for _ in range(MAX_NEWTON_STEPS):
        if np.linalg.norm(grad) <= GRAD_TOL:
            break
        scores = inputs @ params[:-1] + params[-1]
        active = (1.0 - targets * scores) > 0.0
        x_active = np.hstack([inputs[active], np.ones((np.count_nonzero(active), 1))])
        hess = np.diag(reg_diag) + 2.0 * c * (x_active.T @ x_active)
        hess[np.diag_indices_from(hess)] += 1e-10
        direction = np.linalg.solve(hess, -grad)
        slope = grad @ direction
        step = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            candidate = params + step * direction
            new_obj, new_grad = objective_and_gradient(candidate)
            evaluations += 1
            if new_obj <= obj + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted or new_obj >= obj:
            break
        params, obj, grad = candidate, new_obj, new_grad
        trace.append(obj)
    return params, trace, evaluations


def explicit_difference_ranksvm(features, pairs, c):
    """The ranker solved on the gathered P x D pair differences; the oracle for ``train_ranksvm``.

    Returns (weights, objective trace) of the dense squared-hinge solve on
    the rows ``d = x[preferred] - x[other]`` with unit targets and no bias.
    """
    x = np.asarray(features, dtype=float)
    pairs = np.asarray(pairs, dtype=int)
    diffs = x[pairs[:, 0]] - x[pairs[:, 1]]

    def objective_and_gradient(w):
        margins = 1.0 - diffs @ w
        active = margins > 0.0
        viol = margins[active]
        rows = diffs[active]
        return 0.5 * (w @ w) + c * (viol @ viol), w + rows.T @ (-2.0 * c * viol), rows

    return _newton_loop(
        objective_and_gradient, lambda rows: np.eye(x.shape[1]) + 2.0 * c * (rows.T @ rows), np.zeros(x.shape[1])
    )


def rebuilt_hessian_ranksvm(features, pairs, c):
    """The pair-index ranker fit whose Hessian sums every active pair at every step; the oracle for ``train_ranksvm``.

    Returns (weights, objective trace).
    """
    x = np.asarray(features, dtype=float)
    p0, p1 = np.asarray(pairs, dtype=int).T
    return _newton_loop(
        lambda w: ranksvm._pair_objective(w, x, p0, p1, c),
        lambda active: np.eye(x.shape[1]) + 2.0 * c * ranksvm._pair_gram(x, p0[active], p1[active]),
        np.zeros(x.shape[1]),
    )


def own_loop_platt(scores, labels) -> PlattCalibration:
    """Platt's sigmoid fit with a Newton loop of its own; the oracle for ``fit_platt``.

    Up to 100 steps from a = 0, b = log((N- + 1)/(N+ + 1)) on the
    smoothed targets, a 1e-12 ridge, a line search that asks only for no
    increase, and a stop at max|g| < 1e-10 or on a step that raises the
    cross entropy.
    """
    y = np.asarray(scores, dtype=float)
    lab = np.asarray(labels, dtype=float)
    if y.size != lab.size or y.size < 2:
        raise DataError("need matching scores and labels, at least two points")
    n_pos = int(np.sum(lab > 0))
    n_neg = int(lab.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("Platt fit requires both classes")
    t = np.where(lab > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def cross_entropy(a, b):
        f = a * y + b
        # log(1 + exp(f)) evaluated stably
        return float(np.sum((t - 1.0) * f + np.maximum(f, 0.0) + np.log1p(np.exp(-np.abs(f)))))

    a, b = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    obj = cross_entropy(a, b)
    for _ in range(100):
        p = _sigmoid(-(a * y + b))
        resid = t - p  # dCE/df
        g = np.array([resid @ y, resid.sum()])
        if np.max(np.abs(g)) < 1e-10:
            break
        d = p * (1.0 - p)
        h_aa = d @ (y * y)
        h_ab = d @ y
        h_bb = d.sum()
        hess = np.array([[h_aa, h_ab], [h_ab, h_bb]])
        hess[np.diag_indices_from(hess)] += 1e-12
        step_a, step_b = np.linalg.solve(hess, -g)
        scale = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            new_obj = cross_entropy(a + scale * step_a, b + scale * step_b)
            if new_obj <= obj:
                break
            scale *= 0.5
        if new_obj > obj:
            break
        a, b, obj = a + scale * step_a, b + scale * step_b, new_obj
    return PlattCalibration(a=float(a), b=float(b))


def per_cell_csv_matrix(path) -> np.ndarray:
    """A numeric CSV file's data rows, one ``float`` call per stripped cell; the oracle for ``core``'s bulk parse.

    Comment lines and blank lines are skipped, the first other line is the
    header, and the errors carry the pipeline's messages.
    """
    rows = []
    header = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = cells
        else:
            rows.append(cells)
    if header is None:
        raise DataError(f"{path}: empty file")
    if not rows:
        raise DataError(f"{path}: no data rows")
    for r, cells in enumerate(rows):
        if len(cells) != len(header):
            raise DataError(f"{path}: row {r + 1} has {len(cells)} cells, expected {len(header)}")
    out = np.empty((len(rows), len(header)))
    for r, cells in enumerate(rows):
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise DataError(f"{path}: non-numeric value {cell!r} at row {r + 1}, column {header[c]!r}")
            out[r, c] = value
    return out


def window_means_loop(series, window, hop) -> np.ndarray:
    """Means of each row of ``series`` over windows of ``window`` samples every ``hop``, one window at a time."""
    starts = range(0, series.shape[1] - window + 1, hop)
    return np.stack([series[:, s : s + window].mean(axis=1) for s in starts], axis=1)
