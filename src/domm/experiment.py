"""Experiment orchestration: label conversion, training, decoding, evaluation.

Three system variants share one pipeline:

* ``omsvm-only``  trains just the ordinal classifier; decoding is the
  framewise argmax of the state posteriors.
* ``domm-rs``     adds the ranker and the transition model; decoding runs
  Viterbi with rank differences predicted by the ranker.
* ``domm-gt``     trains the transition model but swaps in rank differences
  computed from the ground-truth rank files at decode time, bounding what
  the rank-informed decoder could achieve.

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
    RolSequence,
    canonical_json,
    format_float,
    is_positive,
    parse_annotations,
    parse_features,
    read_aol_csv,
    read_rol_csv,
    write_csv,
    write_json,
)
from domm.decoder import StateLattice, framewise_argmax, viterbi_decode
from domm.labels import ThresholdConfig, convert_annotation_set
from domm.metrics import DegenerateMarginalsError, kendall_tau, precision_at_k, uar, weighted_kappa
from domm.omsvm import DIRECTIONS, state_posteriors, train_omsvm
from domm.ranksvm import DEFAULT_PAIR_CAP, build_pairs, ranks_from_scores, train_ranksvm
from domm.svm import decision_values, fit_standardization
from domm.transitions import fit_transition_model

__all__ = [
    "EVAL_KS",
    "VARIANTS",
    "ExperimentConfig",
    "convert_labels",
    "decode_entries",
    "evaluate_fold",
    "fit_bundle",
    "fold_seed",
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
    pair_cap: int = DEFAULT_PAIR_CAP
    direction: str = "forward"
    bandwidth: object = "silverman"
    min_cell_samples: int = 10
    divide_by_prior: bool = False
    use_normalized_ranks: bool = True
    eps_tie: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self._check(
            ("variant", self.variant in VARIANTS, f"one of {VARIANTS}"),
            ("svm_c", is_positive(self.svm_c), "a positive number"),
            ("rank_c", is_positive(self.rank_c), "a positive number"),
            ("pair_cap", is_positive(self.pair_cap, integral=True), "a positive integer"),
            ("direction", self.direction in DIRECTIONS, f"one of {DIRECTIONS}"),
            ("bandwidth", self.bandwidth == "silverman" or is_positive(self.bandwidth),
             '"silverman" or a positive number'),
            ("min_cell_samples", is_positive(self.min_cell_samples, integral=True), "a positive integer"),
            ("divide_by_prior", isinstance(self.divide_by_prior, bool), "true or false"),
            ("use_normalized_ranks", isinstance(self.use_normalized_ranks, bool), "true or false"),
            ("eps_tie", is_positive(self.eps_tie, or_zero=True), "a number >= 0"),
            ("seed", is_positive(self.seed, integral=True, or_zero=True), "an integer >= 0"),
        )

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode("ascii")).hexdigest()[:16]


def fold_seed(root_seed: int, fold: str) -> int:
    """Deterministic per-fold seed, independent of fold execution order."""
    digest = hashlib.sha256(f"{root_seed}:{fold}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------


def convert_labels(
    manifest: DatasetManifest, split: str = "all", eps_tie: float = 0.0
) -> dict[str, tuple[AolSequence, RolSequence]]:
    """Consensus labels and ranks for every utterance of the split."""
    if not is_positive(eps_tie, or_zero=True):
        raise DataError(f"eps_tie must be a number >= 0, got {eps_tie!r}")
    entries = manifest.split_entries(split)
    thresholds = ThresholdConfig.from_mapping(manifest.thresholds)
    pre = manifest.preprocessing
    out = {}
    for entry in entries:
        ann = parse_annotations(entry.annotations_path, manifest.value_range)
        consensus, ranks, _ = convert_annotation_set(
            ann, thresholds, pre.delay_s, pre.window_s, pre.overlap, eps_tie
        )
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


def _gather_training_data(entries, labels):
    frames, aols, rols = [], [], []
    for entry in entries:
        uid = entry.utterance_id
        if uid not in labels:
            raise DataError(f"no converted labels for training utterance {uid!r}")
        features = parse_features(entry.features_path)
        aol, rol = labels[uid]
        if features.n_frames != len(aol) or features.n_frames != len(rol):
            raise DataError(
                f"{uid!r}: {features.n_frames} feature frames but "
                f"{len(aol)} labels / {len(rol)} ranks"
            )
        frames.append(features.frames)
        aols.append(aol)
        rols.append(rol)
    return np.vstack(frames), aols, rols


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def fit_bundle(entries, labels, config: ExperimentConfig) -> ModelBundle:
    """Train the variant's components on the given utterances."""
    if not entries:
        raise DataError("empty training split")
    x, aols, rols = _gather_training_data(entries, labels)
    label_vec = np.concatenate([a.labels for a in aols])
    standardization = fit_standardization(x)
    omsvm = train_omsvm(
        x, label_vec, config.svm_c, direction=config.direction, standardization=standardization
    )
    ranker = None
    if config.variant == "domm-rs":
        pairs = build_pairs(rols, cap=config.pair_cap, seed=config.seed)
        ranker = train_ranksvm(x, pairs, config.rank_c, standardization=standardization)
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
        seed=config.seed,
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


def decode_entries(
    bundle: ModelBundle,
    entries,
    config: ExperimentConfig,
    truth_labels=None,
) -> tuple[dict[str, AolSequence], dict[str, RolSequence]]:
    """Decode each utterance; the bundle's components select the variant.

    Without a transition model decoding is the framewise posterior argmax.
    With one, rank differences come from the ranker when present, otherwise
    from ``truth_labels`` (the upper-bound variant).
    """
    if not entries:
        raise DataError("empty decode split")
    pred_aols: dict[str, AolSequence] = {}
    pred_rols: dict[str, RolSequence] = {}
    for entry in entries:
        uid = entry.utterance_id
        features = parse_features(entry.features_path)
        post = _adjusted_posteriors(bundle, features.frames, config.divide_by_prior)
        rol = None
        if bundle.ranker is not None:
            rol = ranks_from_scores(decision_values(bundle.ranker, features.frames), uid)
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
            if len(rol) != features.n_frames:
                raise DataError(
                    f"{uid!r}: {features.n_frames} feature frames but {len(rol)} truth ranks"
                )
        values = rol.normalized if bundle.transitions.use_normalized_ranks else rol.ranks
        lattice = StateLattice(uid, post, np.diff(values))
        pred_aols[uid] = viterbi_decode(lattice, bundle.transitions)
    return pred_aols, pred_rols


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
        if uid in pred_rols:
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


def make_report(folds: list[dict], config: ExperimentConfig) -> dict:
    return {
        "tool_version": __version__,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
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
    converted once; every model parameter is fit on the training folds only.
    A fold whose training data misses a class is reported as skipped.
    """
    folds = manifest.split_tags()
    if len(folds) < 2:
        raise DataError("cross-validation needs at least two fold tags")
    labels = convert_labels(manifest, "all", eps_tie=config.eps_tie)
    results = []
    for fold in folds:
        test_entries = manifest.split_entries(fold)
        train_entries = [u for u in manifest.utterances if u.split != fold]
        cfg = replace(config, seed=fold_seed(config.seed, fold))
        try:
            bundle = fit_bundle(train_entries, labels, cfg)
            pred_aols, pred_rols = decode_entries(bundle, test_entries, cfg, labels)
            result = evaluate_fold(fold, pred_aols, pred_rols, labels)
        except (DataError, DegenerateMarginalsError) as exc:
            results.append({"fold": fold, "skipped": True, "reason": str(exc)})
            continue
        if out_dir is not None:
            fold_dir = Path(out_dir) / f"fold_{fold}"
            fold_dir.mkdir(parents=True, exist_ok=True)
            save_model_bundle(bundle, fold_dir / "model.json")
        results.append(result)
    return make_report(results, config)
