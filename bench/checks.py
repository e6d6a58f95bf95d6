"""Output checks for the benchmark: label files, metric recomputation, hashes.

The metric code here is written independently of ``domm.metrics``, so a
report that disagrees with the label files it was computed from is caught.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

KAPPA_WEIGHTS = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
REL_TOL = 1e-9
TAU_BLOCK_ROWS = 512


def data_rows(path) -> list[list[str]]:
    """Cells of every data row of a domm CSV: ``#`` metadata and the header are skipped."""
    lines = [
        line
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    return [line.split(",") for line in lines[1:]]


def read_labels(path) -> np.ndarray:
    return np.array([int(cells[0]) for cells in data_rows(path)], dtype=np.int64)


def read_ranks(path) -> np.ndarray:
    return np.array([float(cells[0]) for cells in data_rows(path)])


def uar(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mean per-class recall, in percent."""
    return 100.0 * float(np.mean([np.mean(pred[truth == s] == s) for s in range(3)]))


def weighted_kappa(truth: np.ndarray, pred: np.ndarray) -> float:
    joint = np.bincount(3 * truth + pred, minlength=9).reshape(3, 3) / truth.size
    chance = float((KAPPA_WEIGHTS * np.outer(joint.sum(axis=1), joint.sum(axis=0))).sum())
    observed = float((KAPPA_WEIGHTS * joint).sum())
    return (observed - chance) / (1.0 - chance)


def kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    """Tau-a over all ordered pairs, in row blocks so memory stays O(block * n)."""
    n = a.size
    total = 0
    for lo in range(0, n, TAU_BLOCK_ROWS):
        sa = np.sign(a[lo : lo + TAU_BLOCK_ROWS, None] - a[None, :]).astype(np.int8)
        sb = np.sign(b[lo : lo + TAU_BLOCK_ROWS, None] - b[None, :]).astype(np.int8)
        total += int(np.sum(sa * sb, dtype=np.int64))
    # every unordered pair was counted twice, once from each side
    return total / (n * (n - 1.0))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def hash_tree(root: Path, subdirs) -> dict[str, str]:
    """sha256 of every file under the given subdirectories, keyed by relative path."""
    out = {}
    for sub in subdirs:
        for path in sorted((root / sub).rglob("*")):
            if path.is_file():
                out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def fold_quality(truth_aols, pred_aols, truth_ranks, pred_ranks) -> tuple[float, float, float]:
    """Pooled UAR and kappa plus the mean per-utterance tau, as domm reports them."""
    truth = np.concatenate(truth_aols)
    pred = np.concatenate(pred_aols)
    taus = [kendall_tau(t, p) for t, p in zip(truth_ranks, pred_ranks)]
    return uar(truth, pred), weighted_kappa(truth, pred), float(np.mean(taus))


def compare(problems: list[str], where: str, ours, reported) -> None:
    for name, mine, theirs in zip(("uar", "kappa", "tau"), ours, reported):
        if theirs is None or not close(mine, theirs):
            problems.append(f"{where}: {name} recomputed as {mine!r} but reported as {theirs!r}")


def check_roundtrip(corpus: Path, test_ids, frames: dict[str, int], problems: list[str]):
    """Check decode and eval outputs of one round trip; returns (uar, kappa, tau) or None."""
    pred_files = {p.name for p in (corpus / "pred").glob("*.aol.csv")}
    expected = {f"{uid}.aol.csv" for uid in test_ids}
    if pred_files != expected:
        problems.append(f"decode wrote {sorted(pred_files)}, expected {sorted(expected)}")
        return None
    truth_aols, pred_aols, truth_ranks, pred_ranks = [], [], [], []
    for uid in test_ids:
        pred = read_labels(corpus / "pred" / f"{uid}.aol.csv")
        if pred.size != frames[uid]:
            problems.append(f"{uid}: {pred.size} decoded labels for {frames[uid]} feature frames")
            return None
        pred_aols.append(pred)
        truth_aols.append(read_labels(corpus / "labels" / f"{uid}.aol.csv"))
        pred_ranks.append(read_ranks(corpus / "pred" / f"{uid}.rol.csv"))
        truth_ranks.append(read_ranks(corpus / "labels" / f"{uid}.rol.csv"))
    ours = fold_quality(truth_aols, pred_aols, truth_ranks, pred_ranks)
    fold = json.loads((corpus / "report" / "report.json").read_text())["folds"][0]
    compare(problems, "eval report", ours, (fold["uar"], fold["kappa"], fold["tau_mean"]))
    return ours


def check_xval(corpus: Path, n_folds: int, problems: list[str]):
    """Check an xval report against the fold bundles it saved; returns (uar, kappa, tau) or None.

    xval writes no label files, so each saved fold bundle decodes its fold's
    utterances in-process and the metrics are recomputed from those labels.
    """
    from domm.bundle import load_model_bundle
    from domm.core import load_manifest
    from domm.experiment import ExperimentConfig, convert_labels, decode_entries

    report = json.loads((corpus / "xval" / "report.json").read_text())
    agg = report["aggregate"]
    if agg["n_folds"] != n_folds or agg["n_skipped"] != 0:
        problems.append(f"xval ran {agg['n_folds']} folds, skipped {agg['n_skipped']}; expected {n_folds}")
        return None
    manifest = load_manifest(corpus / "manifest.json")
    truth = convert_labels(manifest, "all")
    per_fold = []
    for fold in report["folds"]:
        tag = fold["fold"]
        bundle = load_model_bundle(corpus / "xval" / f"fold_{tag}" / "model.json")
        entries = manifest.split_entries(tag)
        pred_aols, pred_rols = decode_entries(bundle, entries, ExperimentConfig(), truth)
        uids = sorted(pred_aols)
        ours = fold_quality(
            [truth[u][0].labels for u in uids],
            [pred_aols[u].labels for u in uids],
            [truth[u][1].ranks for u in uids],
            [pred_rols[u].ranks for u in uids],
        )
        compare(problems, f"xval fold {tag}", ours, (fold["uar"], fold["kappa"], fold["tau_mean"]))
        per_fold.append(ours)
    means = tuple(float(np.mean(column)) for column in zip(*per_fold))
    compare(
        problems,
        "xval aggregate",
        means,
        (agg["uar"]["mean"], agg["kappa"]["mean"], agg["tau_mean"]["mean"]),
    )
    return means
