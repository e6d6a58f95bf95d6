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
    Preprocessing,
    RolSequence,
    ThresholdConfig,
    average_ranks,
)

__all__ = [
    "DECREASE",
    "INCREASE",
    "SweepRow",
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

# convert builds the consensus this many rows at a time, so its memory is
# O(R * BLOCK_ROWS * T) rather than O(R * T^2)
BLOCK_ROWS = 256


@dataclass(frozen=True)
class SweepRow:
    theta2: float
    gamma_mean: float
    agreement: float


def preprocess_annotations(ann: AnnotationSet, pre: Preprocessing) -> AnnotationSet:
    """Delay-compensate and window-average every annotator series.

    Each series is shifted earlier by round(pre.delay_s / period) samples
    (the shifted-out leading values disappear), then averaged within windows
    of round(pre.window_s / period) samples advanced by
    round((1 - pre.overlap) * pre.window_s / period) samples; a trailing
    partial window is discarded. The result's sampling period is one hop.
    """
    period = ann.period_s
    n_samples = ann.values.shape[1]

    def samples(seconds, name):
        count = np.rint(seconds / period)
        if not count <= n_samples:  # also rejects inf and nan before int() can raise
            raise DataError(
                f"{ann.utterance_id}: {name} of {seconds} s spans more than the series of {n_samples} samples"
            )
        return int(count)

    delay = samples(pre.delay_s, "delay")
    window = samples(pre.window_s, "window")
    hop = samples((1.0 - pre.overlap) * pre.window_s, "hop")
    if window < 1 or hop < 1:
        raise DataError("window and hop must round to at least one sample")
    shifted = ann.values[:, delay:]
    n = shifted.shape[1]
    if window > n:
        raise DataError(
            f"{ann.utterance_id}: window of {window} samples exceeds series of {n} samples after delay"
        )
    windows = np.lib.stride_tricks.sliding_window_view(shifted, window, axis=1)[:, ::hop].mean(axis=-1)
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


def _votes(per_annotator: list[AolSequence]) -> tuple[np.ndarray, np.ndarray]:
    """The (R, T) label stack of equal-length sequences and its per-frame counts of each state."""
    lengths = {len(s) for s in per_annotator}
    if len(lengths) != 1:
        raise DataError(f"annotator sequences have mismatched lengths {sorted(lengths)}")
    stack = np.stack([s.labels for s in per_annotator])
    return stack, np.stack([(stack == s).sum(axis=0) for s in range(3)], axis=1)


def consensus_aol(per_annotator: list[AolSequence]) -> AolSequence:
    """Majority vote per frame across annotators.

    Ties go to the tied candidate closest to the mean state code of all
    annotators at that frame; residual ties fall back to Medium.
    """
    if not per_annotator:
        raise DataError("no annotator sequences")
    stack, counts = _votes(per_annotator)
    tied = counts == counts.max(axis=1, keepdims=True)
    # distance of each state code to the frame's mean code, among the tied codes only
    dist = np.where(tied, np.abs(np.arange(3) - stack.mean(axis=0)[:, None]), np.inf)
    closest = dist == dist.min(axis=1, keepdims=True)
    out = np.where(closest.sum(axis=1) == 1, closest.argmax(axis=1), 1)
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
    stack, counts = _votes(per_annotator)
    return float(np.mean(counts.max(axis=1) > stack.shape[0] / 2.0))


def sweep_thresholds(
    annotations: list[AnnotationSet],
    grid: list[ThresholdConfig],
    preprocessing: Preprocessing | None = None,
) -> list[SweepRow]:
    """Label balance (mean over annotators) and agreement for each threshold config.

    ``preprocessing``, when given, is applied to every annotation set before
    conversion.
    """
    if not grid:
        raise DataError("empty threshold grid")
    if not annotations:
        raise DataError("no annotation sets")
    if preprocessing is not None:
        annotations = [preprocess_annotations(a, preprocessing) for a in annotations]
    counts = sorted({a.n_annotators for a in annotations})
    if len(counts) != 1:
        raise DataError(f"annotation sets have different annotator counts {counts}")
    n_annotators = counts[0]
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


def comparison_matrix(values, eps_tie: float = 0.0, rows: slice = slice(None)) -> np.ndarray:
    """Rows ``rows`` of the T x T pairwise comparisons of one smoothed series.

    entry(i, j) is INCREASE when value_j > value_i + eps_tie, DECREASE when
    value_j < value_i - eps_tie, else TIE. Antisymmetric by construction.
    The default ``rows`` gives the whole matrix.
    """
    if not eps_tie >= 0:
        raise DataError(f"eps_tie must be >= 0, got {eps_tie}")
    v = np.asarray(values, dtype=float)
    diff = v[None, :] - v[rows, None]
    out = (diff > eps_tie).view(np.int8)
    out -= diff < -eps_tie
    return out


def qa_consensus(matrices: list[np.ndarray]) -> np.ndarray:
    """Cell-wise strict-majority vote over annotator comparison matrices.

    A cell with no strict majority among {INCREASE, DECREASE, TIE} becomes
    UNDECIDED. Ties are votable like any other judgment. The matrices may be
    any common block of rows.
    """
    if not matrices:
        raise DataError("no comparison matrices")
    shapes = {m.shape for m in matrices}
    if len(shapes) != 1:
        raise DataError(f"comparison matrices have mismatched sizes {sorted(shapes)}")
    n = len(matrices)
    count_dtype = np.min_scalar_type(n)
    out = np.full(matrices[0].shape, UNDECIDED, dtype=np.int8)
    for value in (INCREASE, DECREASE, TIE):
        count = np.zeros(out.shape, dtype=count_dtype)
        for m in matrices:
            count += m == value
        # a strict majority (count > n/2) is unique, so no cell is assigned twice
        out[count > n // 2] = value
    return out


def ranks_from_consensus(blocks, utterance_id: str = "") -> RolSequence:
    """Rank windows from a consensus matrix by Copeland score.

    Score of window i = (#INCREASE in column i) - (#DECREASE in column i),
    counting only decided cells; ranks are assigned by ascending score with
    the tied-average convention. Handles intransitive and undecided cells.
    ``blocks`` is the whole matrix or an iterable of its row blocks, whose
    column scores are summed.
    """
    if isinstance(blocks, np.ndarray):
        blocks = [blocks]
    scores = sum(
        (m == INCREASE).sum(axis=0) - (m == DECREASE).sum(axis=0) for m in map(np.atleast_2d, blocks)
    )
    return RolSequence.from_ranks(utterance_id, average_ranks(scores))


def convert_annotation_set(
    ann: AnnotationSet, cfg: ThresholdConfig, pre: Preprocessing
) -> tuple[AolSequence, RolSequence, list[AolSequence]]:
    """Full conversion for one utterance: consensus labels, consensus ranks, per-annotator labels.

    The series are smoothed by ``pre``, labelled under ``cfg``, and the
    consensus ranks are built BLOCK_ROWS comparison-matrix rows at a time,
    with ``pre.eps_tie`` as the comparisons' tie tolerance.
    """
    smoothed = preprocess_annotations(ann, pre)
    per_annotator = [
        interval_to_aol(smoothed.values[r], cfg, ann.utterance_id)
        for r in range(smoothed.n_annotators)
    ]
    consensus = consensus_aol(per_annotator)
    rows = [slice(i, i + BLOCK_ROWS) for i in range(0, smoothed.n_samples, BLOCK_ROWS)]
    blocks = (qa_consensus([comparison_matrix(v, pre.eps_tie, r) for v in smoothed.values]) for r in rows)
    ranks = ranks_from_consensus(blocks, ann.utterance_id)
    return consensus, ranks, per_annotator
