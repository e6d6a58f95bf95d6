"""Log-domain Viterbi decoding over the dynamic state lattice.

The lattice couples per-frame state posteriors with transition
distributions that depend on the frame's rank difference. The decoded path
maximizes

    log P(s_1 | x_1) + sum_t [ log P(s_t | s_{t-1}, d_t) + log P(s_t | x_t) ]

Ties in every per-step maximum break toward the lower state code, which
makes decoding deterministic: among equally scored sequences the decoder
returns the one that is lexicographically smallest read from the last frame
backwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from domm.core import AolSequence, DataError
from domm.transitions import TransitionModel, transition_matrices

__all__ = [
    "StateLattice",
    "framewise_argmax",
    "viterbi_decode",
]

PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class StateLattice:
    """Per-frame state posteriors (T x 3) plus the T-1 rank differences between frames."""

    utterance_id: str
    posteriors: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        t = self.posteriors.shape[0]
        if self.posteriors.ndim != 2 or self.posteriors.shape[1] != 3 or t < 1:
            raise DataError(f"{self.utterance_id}: posteriors must be T x 3 with T >= 1")
        if self.deltas.shape != (t - 1,):
            raise DataError(f"{self.utterance_id}: need exactly T-1 rank differences")
        if not np.all(np.isfinite(self.deltas)):
            raise DataError(f"{self.utterance_id}: rank differences must be finite")
        rows = self.posteriors.sum(axis=1)
        if np.any(self.posteriors < 0) or np.max(np.abs(rows - 1.0)) > 1e-6:
            raise DataError(f"{self.utterance_id}: posterior rows must be distributions")

    @property
    def n_frames(self) -> int:
        return self.posteriors.shape[0]


def framewise_argmax(posteriors: np.ndarray, utterance_id: str = "") -> AolSequence:
    """Per-frame most probable state, ties toward the lower state code."""
    return AolSequence(utterance_id, np.argmax(posteriors, axis=1))


def viterbi_decode(lattice: StateLattice, model: TransitionModel) -> AolSequence:
    """Most probable state sequence through the dynamic lattice."""
    t_max = lattice.n_frames
    if t_max == 1:
        return framewise_argmax(lattice.posteriors, lattice.utterance_id)
    log_post = np.log(np.maximum(lattice.posteriors, PROB_FLOOR))
    log_trans = np.log(np.maximum(transition_matrices(model, lattice.deltas), PROB_FLOOR))
    states = np.arange(3)
    back = np.zeros((t_max, 3), dtype=int)
    score = log_post[0]
    for trans, post, best in zip(log_trans, log_post[1:], back[1:]):
        # candidates[i, j]: the best score ending in state i, then the step i -> j
        candidates = score[:, None] + trans
        candidates.argmax(axis=0, out=best)  # first max = lowest state code
        score = candidates[best, states] + post
    state = int(np.argmax(score))
    path = np.empty(t_max, dtype=int)
    path[-1] = state
    for t in range(t_max - 1, 0, -1):
        state = back[t, state]
        path[t - 1] = state
    return AolSequence(lattice.utterance_id, path)
