"""Ordinal three-class SVM via ordinal pairwise partitioning.

Two binary stages are consulted sequentially along the ordinal scale. In the
forward direction stage 1 separates {Low} from {Medium, High} on all data
and stage 2 separates {Medium} from {High} on the remaining subset; the
backward direction mirrors this from the High end. Each stage carries a
sigmoid calibration fit on 3-fold cross-fitted decision values, and the
calibrated stage probabilities chain into a full state posterior:

    P(first) = p1,  P(middle) = (1 - p1) * p2,  P(last) = (1 - p1) * (1 - p2)

which sums to one by construction (no renormalization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from domm.core import AolState, DataError, MissingClassError
from domm.svm import (
    LinearModel,
    PlattCalibration,
    decision_values,
    fit_platt,
    platt_probability,
    train_binary,
)

__all__ = [
    "OmsvmModel",
    "state_posteriors",
    "train_omsvm",
]

DIRECTIONS = ("forward", "backward")


@dataclass(frozen=True)
class OmsvmModel:
    """Ordered (stage model, calibration) pairs plus traversal direction."""

    stage_models: tuple[tuple[LinearModel, PlattCalibration], ...]
    direction: str = "forward"

    def __post_init__(self):
        if len(self.stage_models) != 2:
            raise DataError("three ordinal states need exactly two stages")
        if self.direction not in DIRECTIONS:
            raise DataError(f"unknown direction {self.direction!r}")


def _cross_fit_scores(features, targets, c, final_model):
    """Out-of-fold decision values via a stratified 3-fold split.

    Falls back to in-sample scores when a class is too small to survive the
    split; the calibration then just loses its overfit guard.
    """
    n = targets.size
    fold = np.empty(n, dtype=int)
    for sign in (1.0, -1.0):
        idx = np.flatnonzero(targets == sign)
        fold[idx] = np.arange(idx.size) % 3
    if min(np.sum(targets == 1.0), np.sum(targets == -1.0)) < 2:
        return decision_values(final_model, features)
    scores = np.empty(n)
    for k in range(3):
        held = fold == k
        if not np.any(held):
            continue
        sub = train_binary(features[~held], targets[~held], c)
        scores[held] = decision_values(sub, features[held])
    return scores


def train_omsvm(
    features,
    labels,
    c: float = 1e-4,
    *,
    direction: str = "forward",
) -> OmsvmModel:
    """Train both ordinal stages with calibration; needs all three classes present."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if direction not in DIRECTIONS:
        raise DataError(f"unknown direction {direction!r}")
    present = np.unique(y).tolist()
    if present != [0, 1, 2]:
        raise MissingClassError(f"training data must contain all three states, found {present}")

    first = AolState.LOW if direction == "forward" else AolState.HIGH
    stage_defs = [
        (np.ones(y.size, dtype=bool), y == first),
        (y != first, y == AolState.MEDIUM),
    ]
    stages = []
    for mask, positive in stage_defs:
        stage_x = x[mask]
        stage_y = np.where(positive[mask], 1.0, -1.0)
        model = train_binary(stage_x, stage_y, c)
        scores = _cross_fit_scores(stage_x, stage_y, c, model)
        stages.append((model, fit_platt(scores, stage_y)))
    return OmsvmModel(stage_models=tuple(stages), direction=direction)


def state_posteriors(model: OmsvmModel, features) -> np.ndarray:
    """Calibrated per-frame distribution over the three states (rows sum to 1)."""
    (m1, cal1), (m2, cal2) = model.stage_models
    p1 = platt_probability(cal1, decision_values(m1, features))
    p2 = platt_probability(cal2, decision_values(m2, features))
    if model.direction == "forward":
        columns = [p1, (1.0 - p1) * p2, (1.0 - p1) * (1.0 - p2)]
    else:
        columns = [(1.0 - p1) * (1.0 - p2), (1.0 - p1) * p2, p1]
    return np.column_stack(columns)
