"""Experiment orchestration: label conversion, training, decoding, evaluation.

Three system variants share one pipeline:

* ``omsvm-only``  trains just the ordinal classifier; decoding is the
  framewise argmax of the state posteriors.
* ``domm-rs``     adds the ranker and the transition model; decoding runs
  Viterbi with rank differences predicted by the ranker.
* ``domm-gt``     trains the transition model but swaps in rank differences
  computed from the ground-truth rank files at decode time, bounding what
  the rank-informed decoder could achieve.

File I/O stays at the edges: ``load_features`` is the pipeline's one reader
of feature CSVs, and ``fit_bundle`` and ``decode_features`` take its
utterance-id -> frames mapping and read no files. ``run_xval`` loads and
checks every utterance once, before the first fold. ``decode_features``
builds every utterance's lattice before it evaluates the transition model,
once for all of them.

All randomness derives from the experiment seed (per-fold seeds are split
deterministically from it), so reports and bundles are reproducible byte
for byte and independent of fold execution order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from domm import __version__
from domm.bundle import ModelBundle, save_model_bundle
from domm.core import (
    AolSequence,
    Config,
    DataError,
    DatasetManifest,
    MissingClassError,
    RolSequence,
    format_float,
    is_positive,
    output_dir,
    parse_annotations,
    parse_features,
    read_aol_csv,
    read_rol_csv,
    write_csv,
    write_json,
)
from domm.decoder import StateLattice, framewise_argmax, viterbi_decode
from domm.labels import convert_annotation_set
from domm.metrics import DegenerateMarginalsError, kendall_tau, precision_at_k, uar, weighted_kappa
from domm.omsvm import DIRECTIONS, state_posteriors, train_omsvm
from domm.ranksvm import build_pairs, ranks_from_scores, train_ranksvm
from domm.svm import decision_values, fit_standardization
from domm.transitions import fit_transition_model, transition_matrices

__all__ = [
    "EVAL_KS",
    "VARIANTS",
    "ExperimentConfig",
    "convert_labels",
    "decode_entries",
    "decode_features",
    "evaluate_fold",
    "fit_bundle",
    "fold_seed",
    "load_features",
    "make_report",
    "run_xval",
    "write_report",
]

VARIANTS = ("omsvm-only", "domm-rs", "domm-gt")
EVAL_KS = (10, 20, 30, 40, 50)


@dataclass(frozen=True)
class ExperimentConfig(Config):
    variant: str = "domm-rs"
    svm_c: float = 1e-4
    rank_c: float = 1e-4
    direction: str = "forward"
    bandwidth: object = "silverman"
    min_cell_samples: int = 10
    divide_by_prior: bool = False
    use_normalized_ranks: bool = True
    seed: int = 0

    def __post_init__(self):
        self._check(
            ("variant", self.variant in VARIANTS, f"one of {VARIANTS}"),
            ("svm_c", is_positive(self.svm_c), "a positive number"),
            ("rank_c", is_positive(self.rank_c), "a positive number"),
            ("direction", self.direction in DIRECTIONS, f"one of {DIRECTIONS}"),
            ("bandwidth", self.bandwidth == "silverman" or is_positive(self.bandwidth),
             '"silverman" or a positive number'),
            ("min_cell_samples", is_positive(self.min_cell_samples, integral=True), "a positive integer"),
            ("divide_by_prior", isinstance(self.divide_by_prior, bool), "true or false"),
            ("use_normalized_ranks", isinstance(self.use_normalized_ranks, bool), "true or false"),
            ("seed", is_positive(self.seed, integral=True, or_zero=True), "an integer >= 0"),
        )


def fold_seed(root_seed: int, fold: str) -> int:
    """Deterministic per-fold seed, independent of fold execution order."""
    digest = hashlib.sha256(f"{root_seed}:{fold}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------


def convert_labels(
    manifest: DatasetManifest, split: str = "all"
) -> dict[str, tuple[AolSequence, RolSequence]]:
    """Consensus labels and ranks for every utterance of the split, under its manifest id."""
    out = {}
    for entry in manifest.split_entries(split):
        ann = parse_annotations(entry.annotations_path, manifest.value_range)
        ann = replace(ann, utterance_id=entry.utterance_id)
        consensus, ranks, _ = convert_annotation_set(ann, manifest.thresholds, manifest.preprocessing)
        out[entry.utterance_id] = (consensus, ranks)
    return out


def load_labels_dir(labels_dir, entries) -> dict[str, tuple[AolSequence, RolSequence]]:
    labels_dir = Path(labels_dir)
    out = {}
    for entry in entries:
        uid = entry.utterance_id
        aol_path = labels_dir / f"{uid}.aol.csv"
        rol_path = labels_dir / f"{uid}.rol.csv"
        if not aol_path.exists() or not rol_path.exists():
            raise DataError(f"missing converted labels for {uid!r} under {labels_dir}")
        out[uid] = (read_aol_csv(aol_path), read_rol_csv(rol_path))
    return out


def load_features(entries) -> dict[str, np.ndarray]:
    """Each entry's T x D feature frames keyed by utterance id, in entry order.

    Every utterance must have as many features per frame as the first.
    """
    features: dict[str, np.ndarray] = {}
    for entry in entries:
        frames = parse_features(entry.features_path).frames
        if not features:
            first, width = entry.utterance_id, frames.shape[1]
        elif frames.shape[1] != width:
            raise DataError(
                f"{entry.utterance_id!r} has {frames.shape[1]} features per frame but "
                f"{first!r} has {width}"
            )
        features[entry.utterance_id] = frames
    return features


def _check_frame_counts(features, labels) -> None:
    """Every utterance needs one label and one rank per feature frame."""
    for uid, frames in features.items():
        if uid not in labels:
            raise DataError(f"no converted labels for utterance {uid!r}")
        aol, rol = labels[uid]
        if not len(frames) == len(aol) == len(rol):
            raise DataError(
                f"{uid!r}: {len(frames)} feature frames but {len(aol)} labels / {len(rol)} ranks"
            )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def fit_bundle(features, labels, config: ExperimentConfig) -> ModelBundle:
    """Train the variant's components on the given utterances' frames and labels, z-scored once.

    The utterances are stacked in sorted-id order, so the order of ``features``
    (the manifest's) does not change a byte of the bundle.
    """
    if not features:
        raise DataError("empty training split")
    _check_frame_counts(features, labels)
    uids = sorted(features)
    x = np.vstack([features[uid] for uid in uids], dtype=float)  # a copy, so z-scored in place
    mean, std = fit_standardization(x)
    x -= mean
    x /= std
    aols = [labels[uid][0] for uid in uids]
    rols = [labels[uid][1] for uid in uids]
    label_vec = np.concatenate([a.labels for a in aols])
    omsvm = train_omsvm(x, label_vec, config.svm_c, direction=config.direction)
    ranker = None
    if config.variant == "domm-rs":
        pairs = build_pairs(rols, seed=config.seed)
        ranker = train_ranksvm(x, pairs, config.rank_c)
    transitions = None
    if config.variant != "omsvm-only":
        transitions = fit_transition_model(
            aols,
            rols,
            bandwidth=config.bandwidth,
            min_cell_samples=config.min_cell_samples,
            use_normalized_ranks=config.use_normalized_ranks,
        )
    return ModelBundle(
        omsvm=omsvm,
        ranker=ranker,
        transitions=transitions,
        class_counts=np.bincount(label_vec, minlength=3),
        config_hash=config.config_hash(),
        mean=mean,
        std=std,
    )


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _adjusted_posteriors(bundle: ModelBundle, frames, divide_by_prior: bool) -> np.ndarray:
    post = state_posteriors(bundle.omsvm, frames)
    if divide_by_prior:
        prior = np.maximum(bundle.class_counts / bundle.class_counts.sum(), 1e-12)
        post = post / prior
        post = post / post.sum(axis=1, keepdims=True)
    return post


def decode_features(
    bundle: ModelBundle,
    features,
    config: ExperimentConfig,
    truth_labels=None,
) -> tuple[dict[str, AolSequence], dict[str, RolSequence]]:
    """Decode each utterance's frames; the bundle's components select the variant.

    The bundle z-scores each utterance's frames once, for the classifier and
    the ranker. Without a transition model decoding is the framewise
    posterior argmax. With one, rank differences come from the ranker when
    present, otherwise from ``truth_labels`` (the upper-bound variant). Every
    utterance's lattice is built first, so the transition model is evaluated
    once, on all their rank differences, and each Viterbi run takes its slice.
    """
    if not features:
        raise DataError("empty decode split")
    pred_aols: dict[str, AolSequence] = {}
    pred_rols: dict[str, RolSequence] = {}
    lattices: list[StateLattice] = []
    for uid, frames in features.items():
        z = bundle.standardize(frames)
        post = _adjusted_posteriors(bundle, z, config.divide_by_prior)
        rol = None
        if bundle.ranker is not None:
            rol = ranks_from_scores(decision_values(bundle.ranker, z), uid)
            pred_rols[uid] = rol
        if bundle.transitions is None:
            pred_aols[uid] = framewise_argmax(post, uid)
            continue
        if rol is None:
            if truth_labels is None or uid not in truth_labels:
                raise DataError(
                    f"decoding {uid!r} needs ground-truth ranks but none were supplied"
                )
            rol = truth_labels[uid][1]
            if len(rol) != len(frames):
                raise DataError(f"{uid!r}: {len(frames)} feature frames but {len(rol)} truth ranks")
        lattices.append(StateLattice(uid, post, rol.deltas(bundle.transitions.use_normalized_ranks)))
    if lattices:
        steps = transition_matrices(bundle.transitions, np.concatenate([lat.deltas for lat in lattices]))
        ends = np.cumsum([lat.deltas.size for lat in lattices])
        for lattice, trans in zip(lattices, np.split(steps, ends[:-1])):
            pred_aols[lattice.utterance_id] = viterbi_decode(lattice, trans)
    return pred_aols, pred_rols


def decode_entries(bundle: ModelBundle, entries, config: ExperimentConfig, truth_labels=None):
    """``decode_features`` on the manifest entries' feature files."""
    return decode_features(bundle, load_features(entries), config, truth_labels)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_fold(
    fold: str,
    pred_aols: dict[str, AolSequence],
    pred_rols: dict[str, RolSequence],
    truth: dict[str, tuple[AolSequence, RolSequence]],
) -> dict:
    """Pooled label metrics plus per-utterance rank metrics for one fold."""
    if not pred_aols:
        raise DataError(f"fold {fold!r}: no predictions to evaluate")
    truth_vec, pred_vec = [], []
    per_utterance = []
    taus, p_at_k_lists = [], {k: [] for k in EVAL_KS}
    for uid in sorted(pred_aols):
        if uid not in truth:
            raise DataError(f"fold {fold!r}: no ground truth for {uid!r}")
        truth_aol, truth_rol = truth[uid]
        pred = pred_aols[uid]
        if len(pred) != len(truth_aol):
            raise DataError(
                f"{uid!r}: prediction length {len(pred)} != truth length {len(truth_aol)}"
            )
        truth_vec.append(truth_aol.labels)
        pred_vec.append(pred.labels)
        row = {"utterance_id": uid}
        # rank metrics need at least two frames
        if uid in pred_rols and len(pred) > 1:
            rol = pred_rols[uid]
            row["tau"] = kendall_tau(truth_rol, rol)
            row["p_at_k"] = {str(k): precision_at_k(truth_rol, rol, k) for k in EVAL_KS}
            taus.append(row["tau"])
            for k in EVAL_KS:
                p_at_k_lists[k].append(row["p_at_k"][str(k)])
        per_utterance.append(row)
    truth_all = np.concatenate(truth_vec)
    pred_all = np.concatenate(pred_vec)
    return {
        "fold": fold,
        "skipped": False,
        "n_utterances": len(per_utterance),
        "uar": uar(truth_all, pred_all),
        "kappa": weighted_kappa(truth_all, pred_all),
        "tau_mean": float(np.mean(taus)) if taus else None,
        "p_at_k": (
            {str(k): float(np.mean(p_at_k_lists[k])) for k in EVAL_KS} if taus else None
        ),
        "per_utterance": per_utterance,
    }


def _aggregate(folds: list[dict]) -> dict:
    live = [f for f in folds if not f["skipped"]]
    out = {"n_folds": len(live), "n_skipped": len(folds) - len(live)}

    def stats(values):
        arr = np.asarray(values, dtype=float)
        return {"mean": float(arr.mean()), "std": float(arr.std())}

    for key in ("uar", "kappa", "tau_mean"):
        values = [f[key] for f in live if f.get(key) is not None]
        out[key] = stats(values) if values else None
    p_folds = [f["p_at_k"] for f in live if f.get("p_at_k")]
    out["p_at_k"] = (
        {str(k): stats([p[str(k)] for p in p_folds]) for k in EVAL_KS} if p_folds else None
    )
    return out


def make_report(folds: list[dict]) -> dict:
    """The folds and their aggregate; the command's ``run.json`` records the config."""
    return {
        "tool_version": __version__,
        "folds": folds,
        "aggregate": _aggregate(folds),
    }


def write_report(report: dict, out_dir) -> None:
    """Write ``report.json`` and ``report.csv``, a per-fold table with a mean/std footer."""
    out_dir = Path(out_dir)
    write_json(out_dir / "report.json", report)
    header = ["fold", "n_utterances", "uar", "kappa", "tau_mean"]
    header += [f"p_at_{k}" for k in EVAL_KS]

    def fmt(value):
        return "" if value is None else format_float(value)

    rows = []
    for fold in report["folds"]:
        if fold["skipped"]:
            reason = fold["reason"].replace(",", ";")
            rows.append([fold["fold"], f"skipped: {reason}"] + [""] * (len(header) - 2))
            continue
        cells = [fold["fold"], fold["n_utterances"]]
        cells += [fmt(fold[key]) for key in ("uar", "kappa", "tau_mean")]
        p = fold.get("p_at_k") or {}
        cells += [fmt(p.get(str(k))) for k in EVAL_KS]
        rows.append(cells)
    agg = report["aggregate"]
    for stat in ("mean", "std"):
        cells = [stat, agg["n_folds"]]
        for key in ("uar", "kappa", "tau_mean"):
            cells.append(fmt(agg[key][stat]) if agg.get(key) else "")
        p = agg.get("p_at_k") or {}
        cells += [fmt(p[str(k)][stat]) if str(k) in p else "" for k in EVAL_KS]
        rows.append(cells)
    write_csv(out_dir / "report.csv", header, rows)


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def run_xval(
    manifest: DatasetManifest,
    config: ExperimentConfig,
    out_dir=None,
) -> dict:
    """Leave-one-fold-out over the manifest's split tags.

    Conversion is per-utterance (no cross-utterance fitting), so labels are
    converted and features loaded once, and a bad feature file, mixed widths
    or a frame-count mismatch raises before the first fold; every model
    parameter is fit on the training folds only.
    A fold whose training or test labels miss a class, or whose kappa
    marginals are degenerate, is reported as skipped.
    """
    folds = manifest.split_tags()
    if len(folds) < 2:
        raise DataError("cross-validation needs at least two fold tags")
    labels = convert_labels(manifest, "all")
    features = load_features(manifest.utterances)
    _check_frame_counts(features, labels)
    results = []
    for fold in folds:
        train = {u.utterance_id: features[u.utterance_id] for u in manifest.utterances if u.split != fold}
        test = {u.utterance_id: features[u.utterance_id] for u in manifest.utterances if u.split == fold}
        cfg = replace(config, seed=fold_seed(config.seed, fold))
        try:
            bundle = fit_bundle(train, labels, cfg)
            pred_aols, pred_rols = decode_features(bundle, test, cfg, labels)
            result = evaluate_fold(fold, pred_aols, pred_rols, labels)
        except (MissingClassError, DegenerateMarginalsError) as exc:
            results.append({"fold": fold, "skipped": True, "reason": str(exc)})
            continue
        if out_dir is not None:
            save_model_bundle(bundle, output_dir(Path(out_dir) / f"fold_{fold}") / "model.json")
        results.append(result)
    return make_report(results)
