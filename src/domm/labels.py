"""Interval-annotation conversion to consensus ordinal labels and ranks.

Covers delay compensation and window smoothing of annotator traces,
thresholding to three-level ordinal labels (two boundary conventions),
majority-vote consensus, label balance / inter-rater agreement analysis,
and the qualitative-agreement path from pairwise comparison matrices to a
consensus rank sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from domm.core import (
    AnnotationSet,
    AolSequence,
    DataError,
    RolSequence,
    average_ranks,
    checked_from_dict,
)

__all__ = [
    "DECREASE",
    "INCREASE",
    "SweepRow",
    "ThresholdConfig",
    "TIE",
    "UNDECIDED",
    "comparison_matrix",
    "consensus_aol",
    "convert_annotation_set",
    "inter_rater_agreement",
    "interval_to_aol",
    "label_balance",
    "preprocess_annotations",
    "qa_consensus",
    "ranks_from_consensus",
    "sweep_thresholds",
]

# Pairwise comparison cell values. entry(i, j) describes window j relative to
# window i, so INCREASE at (i, j) means value_j > value_i.
INCREASE = 1
DECREASE = -1
TIE = 0
UNDECIDED = 2

BOUNDARY_MODES = ("text-rule", "table-half-open")


@dataclass(frozen=True)
class ThresholdConfig:
    """Two thresholds splitting the value range into Low / Medium / High.

    ``text-rule``:       Low on (-inf, theta1], Medium on (theta1, theta2], High above.
    ``table-half-open``: Low on [min, theta1), Medium on [theta1, theta2), High on [theta2, max].
    """

    theta1: float
    theta2: float
    boundary_mode: str = "text-rule"

    def __post_init__(self):
        if not self.theta1 < self.theta2:
            raise DataError(f"thresholds must satisfy theta1 < theta2, got {self.theta1}, {self.theta2}")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise DataError(f"unknown boundary_mode {self.boundary_mode!r}")

    @checked_from_dict
    def from_mapping(cls, m) -> "ThresholdConfig":
        return cls(
            theta1=float(m["theta1"]),
            theta2=float(m["theta2"]),
            boundary_mode=str(m.get("boundary_mode", "text-rule")),
        )


@dataclass(frozen=True)
class SweepRow:
    theta2: float
    gamma_mean: float
    agreement: float


def preprocess_annotations(
    ann: AnnotationSet, delay_s: float, window_s: float, overlap: float
) -> AnnotationSet:
    """Delay-compensate and window-average every annotator series.

    Each series is shifted earlier by round(delay_s / period) samples (the
    shifted-out leading values disappear), then averaged within windows of
    round(window_s / period) samples advanced by
    round((1 - overlap) * window_s / period) samples; a trailing partial
    window is discarded. The result's sampling period is one hop.
    """
    if delay_s < 0 or window_s <= 0 or not (0 <= overlap < 1):
        raise DataError("need delay_s >= 0, window_s > 0, 0 <= overlap < 1")
    period = ann.period_s
    delay = int(np.rint(delay_s / period))
    window = int(np.rint(window_s / period))
    hop = int(np.rint((1.0 - overlap) * window_s / period))
    if window < 1 or hop < 1:
        raise DataError("window and hop must round to at least one sample")
    shifted = ann.values[:, delay:]
    n = shifted.shape[1]
    if window > n:
        raise DataError(
            f"{ann.utterance_id}: window of {window} samples exceeds series of {n} samples after delay"
        )
    n_windows = (n - window) // hop + 1
    starts = np.arange(n_windows) * hop
    windows = np.stack([shifted[:, s : s + window].mean(axis=1) for s in starts], axis=1)
    # window means of in-range values stay in range up to rounding; clip the dust
    lo, hi = ann.value_range
    windows = np.clip(windows, lo, hi)
    return AnnotationSet(
        utterance_id=ann.utterance_id,
        values=windows,
        period_s=hop * period,
        value_range=ann.value_range,
    )


def interval_to_aol(values, cfg: ThresholdConfig, utterance_id: str = "") -> AolSequence:
    """Threshold one smoothed series into ordinal labels under the configured boundaries."""
    v = np.asarray(values, dtype=float)
    if cfg.boundary_mode == "text-rule":
        labels = np.where(v <= cfg.theta1, 0, np.where(v <= cfg.theta2, 1, 2))
    else:
        labels = np.where(v < cfg.theta1, 0, np.where(v < cfg.theta2, 1, 2))
    return AolSequence(utterance_id, labels)


def _vote_counts(stack: np.ndarray) -> np.ndarray:
    """Per-frame vote counts over the three states; stack is (R, T)."""
    return np.stack([(stack == s).sum(axis=0) for s in range(3)], axis=1)


def consensus_aol(per_annotator: list[AolSequence]) -> AolSequence:
    """Majority vote per frame across annotators.

    Ties go to the tied candidate closest to the mean state code of all
    annotators at that frame; residual ties fall back to Medium.
    """
    if not per_annotator:
        raise DataError("no annotator sequences")
    lengths = {len(s) for s in per_annotator}
    if len(lengths) != 1:
        raise DataError(f"annotator sequences have mismatched lengths {sorted(lengths)}")
    stack = np.stack([s.labels for s in per_annotator])
    counts = _vote_counts(stack)
    mean_code = stack.mean(axis=0)
    out = np.empty(stack.shape[1], dtype=int)
    for t in range(stack.shape[1]):
        top = counts[t].max()
        tied = np.flatnonzero(counts[t] == top)
        if tied.size == 1:
            out[t] = tied[0]
            continue
        dist = np.abs(tied - mean_code[t])
        closest = tied[dist == dist.min()]
        out[t] = closest[0] if closest.size == 1 else 1
    return AolSequence(per_annotator[0].utterance_id, out)


def label_balance(sequences) -> float:
    """Difference in relative frequency between the most and least frequent labels."""
    seqs = [sequences] if isinstance(sequences, AolSequence) else list(sequences)
    if not seqs:
        raise DataError("no label sequences")
    counts = np.bincount(np.concatenate([s.labels for s in seqs]), minlength=3)
    return float(abs(int(counts.max()) - int(counts.min())) / counts.sum())


def inter_rater_agreement(per_annotator: list[AolSequence]) -> float:
    """Fraction of frames where strictly more than half of the annotators agree."""
    if len(per_annotator) < 2:
        raise DataError("agreement needs at least two annotators")
    lengths = {len(s) for s in per_annotator}
    if len(lengths) != 1:
        raise DataError(f"annotator sequences have mismatched lengths {sorted(lengths)}")
    stack = np.stack([s.labels for s in per_annotator])
    counts = _vote_counts(stack)
    return float(np.mean(counts.max(axis=1) > stack.shape[0] / 2.0))


def sweep_thresholds(
    annotations: list[AnnotationSet],
    grid: list[ThresholdConfig],
    preprocessing=None,
) -> list[SweepRow]:
    """Label balance (mean over annotators) and agreement for each threshold config.

    ``preprocessing`` is an optional (delay_s, window_s, overlap) tuple applied
    to every annotation set before conversion.
    """
    if not grid:
        raise DataError("empty threshold grid")
    if not annotations:
        raise DataError("no annotation sets")
    if preprocessing is not None:
        annotations = [preprocess_annotations(a, *preprocessing) for a in annotations]
    n_annotators = annotations[0].n_annotators
    rows = []
    for cfg in grid:
        pooled = [
            AolSequence(
                "pooled",
                np.concatenate(
                    [interval_to_aol(ann.values[r], cfg).labels for ann in annotations]
                ),
            )
            for r in range(n_annotators)
        ]
        agreement = inter_rater_agreement(pooled) if n_annotators > 1 else 1.0
        rows.append(
            SweepRow(
                theta2=cfg.theta2,
                gamma_mean=float(np.mean([label_balance(s) for s in pooled])),
                agreement=float(agreement),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Qualitative agreement: comparison matrices -> consensus -> ranks
# ---------------------------------------------------------------------------


def comparison_matrix(values, eps_tie: float = 0.0) -> np.ndarray:
    """T x T pairwise comparisons of one smoothed series.

    entry(i, j) is INCREASE when value_j > value_i + eps_tie, DECREASE when
    value_j < value_i - eps_tie, else TIE. Antisymmetric by construction.
    """
    v = np.asarray(values, dtype=float)
    diff = v[None, :] - v[:, None]
    out = np.zeros((v.size, v.size), dtype=np.int8)
    out[diff > eps_tie] = INCREASE
    out[diff < -eps_tie] = DECREASE
    return out


def qa_consensus(matrices: list[np.ndarray]) -> np.ndarray:
    """Cell-wise strict-majority vote over annotator comparison matrices.

    A cell with no strict majority among {INCREASE, DECREASE, TIE} becomes
    UNDECIDED. Ties are votable like any other judgment.
    """
    if not matrices:
        raise DataError("no comparison matrices")
    shapes = {m.shape for m in matrices}
    if len(shapes) != 1:
        raise DataError(f"comparison matrices have mismatched sizes {sorted(shapes)}")
    stack = np.stack(matrices)
    n = stack.shape[0]
    counts = np.stack([(stack == v).sum(axis=0) for v in (INCREASE, DECREASE, TIE)])
    winner = counts.argmax(axis=0)
    decided = counts.max(axis=0) > n / 2.0
    values = np.array([INCREASE, DECREASE, TIE], dtype=np.int8)
    out = np.where(decided, values[winner], np.int8(UNDECIDED))
    return out.astype(np.int8)


def ranks_from_consensus(matrix: np.ndarray, utterance_id: str = "") -> RolSequence:
    """Rank windows from a consensus matrix by Copeland score.

    Score of window i = (#INCREASE in column i) - (#DECREASE in column i),
    counting only decided cells; ranks are assigned by ascending score with
    the tied-average convention. Handles intransitive and undecided cells.
    """
    m = np.asarray(matrix)
    wins = (m == INCREASE).sum(axis=0)
    losses = (m == DECREASE).sum(axis=0)
    scores = wins - losses
    return RolSequence.from_ranks(utterance_id, average_ranks(scores))


def convert_annotation_set(
    ann: AnnotationSet,
    cfg: ThresholdConfig,
    delay_s: float,
    window_s: float,
    overlap: float,
    eps_tie: float = 0.0,
) -> tuple[AolSequence, RolSequence, list[AolSequence]]:
    """Full conversion for one utterance: consensus labels, consensus ranks, per-annotator labels."""
    smoothed = preprocess_annotations(ann, delay_s, window_s, overlap)
    per_annotator = [
        interval_to_aol(smoothed.values[r], cfg, ann.utterance_id)
        for r in range(smoothed.n_annotators)
    ]
    consensus = consensus_aol(per_annotator)
    matrices = [comparison_matrix(smoothed.values[r], eps_tie) for r in range(smoothed.n_annotators)]
    ranks = ranks_from_consensus(qa_consensus(matrices), ann.utterance_id)
    return consensus, ranks, per_annotator
