"""Preference-pair construction and linear rank learning.

Pairs are built strictly within each utterance (ranks are only defined
relative to the frames of one utterance); ties contribute no pair. Training
minimizes the squared hinge over standardized feature differences

    0.5 * ||w||^2 + c * sum_p max(0, 1 - w . (x_pref - x_other))^2

with no bias term, since differencing cancels it. Frame scores are the
projections w . x; ranks follow score order with the tied-average
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from domm.core import DataError, RolSequence, average_ranks
from domm.svm import LinearModel, decision_values, fit_standardization, newton_squared_hinge

__all__ = [
    "DEFAULT_PAIR_CAP",
    "RankModel",
    "build_pairs",
    "ranks_from_scores",
    "score_frames",
    "train_ranksvm",
]

DEFAULT_PAIR_CAP = 200_000


@dataclass(frozen=True)
class RankModel:
    """Linear scorer whose projections order frames; bias-free by construction."""

    base: LinearModel

    def to_dict(self) -> dict:
        return self.base.to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "RankModel":
        return cls(base=LinearModel.from_dict(d))


def build_pairs(rols: list[RolSequence], cap: int = DEFAULT_PAIR_CAP, seed: int = 0) -> np.ndarray:
    """All strict (preferred, other) frame-index pairs, subsampled to ``cap``.

    Indices address the rows of the feature matrix formed by stacking the
    utterances in the given order. When the full enumeration exceeds ``cap``
    a uniform subsample is drawn with the seeded generator, so the result is
    deterministic for a fixed seed.
    """
    if cap < 1:
        raise DataError("pair cap must be at least 1")
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
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(pairs.shape[0], size=cap, replace=False))
        pairs = pairs[keep]
    return pairs


def train_ranksvm(features, pairs: np.ndarray, c: float = 1e-4, *, standardization=None) -> RankModel:
    """Fit the ranking hyperplane on preference-pair feature differences."""
    x = np.asarray(features, dtype=float)
    pairs = np.asarray(pairs, dtype=int)
    if pairs.size == 0:
        raise DataError("cannot train a ranker on an empty pair set")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DataError("pairs must be a P x 2 index array")
    if not np.all(np.isfinite(x)):
        raise DataError("training features contain non-finite values")
    if standardization is None:
        standardization = fit_standardization(x)
    mean, std = standardization
    scaled = (x - mean) / std
    diffs = scaled[pairs[:, 0]] - scaled[pairs[:, 1]]
    params, _ = newton_squared_hinge(diffs, np.ones(diffs.shape[0]), c, fit_bias=False)
    return RankModel(base=LinearModel(weights=params, bias=0.0, mean=mean, std=std))


def score_frames(model: RankModel, features) -> np.ndarray:
    """Per-frame projection onto the ranking direction."""
    return decision_values(model.base, features)


def ranks_from_scores(scores, utterance_id: str = "") -> RolSequence:
    """Ascending scores become ascending ranks; exact ties get averaged ranks."""
    s = np.asarray(scores, dtype=float)
    if s.size < 1:
        raise DataError("cannot rank an empty score sequence")
    if not np.all(np.isfinite(s)):
        raise DataError(f"{utterance_id}: cannot rank non-finite scores")
    return RolSequence.from_ranks(utterance_id, average_ranks(s))
