"""Exact metamorphic relations of the whole pipeline.

Each test transforms a synthetic corpus in a way that provably leaves the
outputs unchanged, byte for byte, and runs conversion, training and
decoding on both copies:

* R1, feature scale: features scaled by a power of two, all columns or some.
  The z-scored frames are bit-identical, so only the bundle's
  standardization changes, by exactly the scale.
* R2, annotation scale: annotations, ``value_range``, both thresholds and
  ``eps_tie`` doubled. Every comparison the conversion makes is between
  doubled values, so every output is unchanged, the bundle included.
* R3, annotators: annotator columns duplicated, interleaved or reversed.
  A strict majority of R votes and of 2R votes is the same set of cells,
  and the mean state code is a sum of small integers, so the converted
  labels and ranks, which are all any later stage reads of the
  annotations, are unchanged.

Each corpus is one on which the relation is not trivial: the transformed
columns change the predictions of a bundle fitted without them, and the
annotators disagree.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from domm.bundle import save_model_bundle
from domm.core import ThresholdConfig, format_float, load_manifest, parse_annotations
from domm.experiment import (
    VARIANTS,
    ExperimentConfig,
    convert_labels,
    decode_features,
    fit_bundle,
    load_features,
    run_xval,
)
from domm.labels import comparison_matrix, convert_annotation_set
from domm.synth import SynthConfig, generate_corpus, write_corpus

EPS_TIE = 0.03


def edit_csv(path: Path, edit, header=None) -> None:
    """Rewrite a pipeline CSV's data cells as ``edit`` of its (T, columns) matrix, keeping its meta lines."""
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    head, *rows = [line for line in lines if not line.startswith("#")]
    values = edit(np.array([[float(cell) for cell in row.split(",")] for row in rows]))
    if header is not None:
        head = ",".join(header(values.shape[1]))
    body = [",".join(format_float(v) for v in row) for row in values]
    path.write_text("\n".join([*meta, head, *body]) + "\n")


def edit_corpus(base: Path, root: Path, key: str, edit, header=None, manifest_edit=None) -> Path:
    """A copy of ``base`` whose ``key`` ("features" or "annotations") files are edited; returns its manifest."""
    manifest = json.loads((base / "manifest.json").read_text())
    for entry in manifest["utterances"]:
        for name in ("features", "annotations"):
            target = root / entry[name]
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes((base / entry[name]).read_bytes())
            if name == key:
                edit_csv(target, edit, header)
    if manifest_edit is not None:
        manifest_edit(manifest)
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root / "manifest.json"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Eight 60-frame utterances, four features and three annotators, with a nonzero ``eps_tie``."""
    root = tmp_path_factory.mktemp("metamorphic")
    cfg = SynthConfig(
        n_utterances=8, frames_per_utterance=60, feature_dim=4, n_annotators=3,
        annotator_noise_std=0.15, feature_noise_std=0.8, seed=3,
    )
    path = write_corpus(generate_corpus(cfg), root, ThresholdConfig(-0.2, 0.2))
    manifest = json.loads(path.read_text())
    manifest["preprocessing"]["eps_tie"] = EPS_TIE
    path.write_text(json.dumps(manifest))
    return root


def run_pipeline(manifest_path: Path, variant: str, out: Path):
    """Convert, fit on ``train`` and decode ``test``.

    Returns the labels, ranks, the bundle's JSON and the predictions, and the bundle.
    """
    manifest = load_manifest(manifest_path)
    labels = convert_labels(manifest)
    features = load_features(manifest.utterances)
    split = {u.utterance_id: u.split for u in manifest.utterances}
    config = ExperimentConfig(variant=variant, svm_c=1.0, rank_c=1.0)
    bundle = fit_bundle({u: f for u, f in features.items() if split[u] == "train"}, labels, config)
    test = {u: f for u, f in features.items() if split[u] == "test"}
    aols, rols = decode_features(bundle, test, config, labels)
    save_model_bundle(bundle, out / f"{variant}.json")
    outputs = {
        "labels": {u: (a.labels.tolist(), r.ranks.tolist()) for u, (a, r) in labels.items()},
        "bundle": json.loads((out / f"{variant}.json").read_text()),
        "aols": {u: a.labels.tolist() for u, a in aols.items()},
        "rols": {u: r.ranks.tolist() for u, r in rols.items()},
    }
    return outputs, bundle


def scaled_standardization(bundle: dict, scale: np.ndarray) -> dict:
    mean = np.array(bundle["standardization"]["mean"]) * scale
    std = np.array(bundle["standardization"]["std"]) * scale
    return {**bundle, "standardization": {"mean": mean.tolist(), "std": std.tolist()}}


def test_r1_feature_scale(corpus, tmp_path):
    scales = {"all-by-4": np.full(4, 4.0), "cols-1-3-by-half": np.array([1.0, 0.5, 1.0, 0.5])}
    manifests = {
        name: edit_corpus(corpus, tmp_path / name, "features", lambda x, s=scale: x * s)
        for name, scale in scales.items()
    }
    base_manifest = load_manifest(corpus / "manifest.json")
    for variant in VARIANTS:
        base, bundle = run_pipeline(corpus / "manifest.json", variant, tmp_path)
        assert len({s for labels in base["aols"].values() for s in labels}) > 1
        for name, scale in scales.items():
            got = run_pipeline(manifests[name], variant, tmp_path)[0]
            assert got["aols"] == base["aols"] and got["rols"] == base["rols"], (variant, name)
            assert got["bundle"] == scaled_standardization(base["bundle"], scale), (variant, name)
        # not trivial: the base bundle, which standardizes with the unscaled statistics,
        # decodes the scaled columns differently
        labels = convert_labels(base_manifest)
        scaled = load_features(load_manifest(manifests["cols-1-3-by-half"]).split_entries("test"))
        changed = decode_features(bundle, scaled, ExperimentConfig(variant=variant), labels)[0]
        assert any(not np.array_equal(changed[u].labels, base["aols"][u]) for u in changed), variant

    config = ExperimentConfig(variant="domm-rs", svm_c=1.0, rank_c=1.0)
    base_report = run_xval(base_manifest, config, tmp_path / "xval-base")
    assert base_report["aggregate"]["n_folds"] == 2
    for name, scale in scales.items():
        report = run_xval(load_manifest(manifests[name]), config, tmp_path / f"xval-{name}")
        assert report == base_report, name
        for fold in ("train", "test"):
            want = json.loads((tmp_path / "xval-base" / f"fold_{fold}" / "model.json").read_text())
            got = json.loads((tmp_path / f"xval-{name}" / f"fold_{fold}" / "model.json").read_text())
            assert got == scaled_standardization(want, scale), (name, fold)


def test_r2_annotation_scale(corpus, tmp_path):
    def doubled(manifest):
        manifest["value_range"] = [2 * v for v in manifest["value_range"]]
        manifest["thresholds"]["theta1"] *= 2
        manifest["thresholds"]["theta2"] *= 2
        manifest["preprocessing"]["eps_tie"] *= 2

    scaled = edit_corpus(corpus, tmp_path / "doubled", "annotations", lambda x: 2 * x, manifest_edit=doubled)
    # not trivial: doubled values leave the base range, and eps_tie decides some comparisons
    manifest = load_manifest(corpus / "manifest.json")
    values = [parse_annotations(e.annotations_path, manifest.value_range).values for e in manifest.utterances]
    assert max(np.abs(v).max() for v in values) > 0.5
    untied = edit_corpus(
        corpus, tmp_path / "untied", "annotations", lambda x: x,
        manifest_edit=lambda m: m["preprocessing"].update(eps_tie=0.0),
    )
    base_labels = convert_labels(manifest)
    untied_labels = convert_labels(load_manifest(untied))
    assert any(not np.array_equal(base_labels[u][1].ranks, untied_labels[u][1].ranks) for u in base_labels)
    for variant in VARIANTS:
        base = run_pipeline(corpus / "manifest.json", variant, tmp_path)[0]
        assert run_pipeline(scaled, variant, tmp_path)[0] == base, variant


@pytest.mark.parametrize("n_annotators", [3, 4])
def test_r3_annotator_columns(tmp_path, n_annotators):
    cfg = SynthConfig(
        n_utterances=4, frames_per_utterance=60, feature_dim=2, n_annotators=n_annotators,
        annotator_noise_std=0.2, seed=5,
    )
    path = write_corpus(generate_corpus(cfg), tmp_path / "base", ThresholdConfig(-0.2, 0.2))
    raw = json.loads(path.read_text())
    raw["preprocessing"]["eps_tie"] = EPS_TIE
    path.write_text(json.dumps(raw))
    manifest = load_manifest(path)
    base = convert_labels(manifest)
    # not trivial: the annotators' labels disagree on some frames, and their comparisons on some cells
    frames = cells = 0
    for entry in manifest.utterances:
        ann = parse_annotations(entry.annotations_path, manifest.value_range)
        per_annotator = convert_annotation_set(ann, manifest.thresholds, manifest.preprocessing)[2]
        states = np.stack([a.labels for a in per_annotator])
        frames += np.sum(states.min(axis=0) != states.max(axis=0))
        matrices = np.stack([comparison_matrix(v, EPS_TIE) for v in ann.values])
        cells += np.sum(matrices.min(axis=0) != matrices.max(axis=0))
    assert frames > 0 and cells > 0

    def names(n):
        return [f"r{i}" for i in range(n)]

    edits = {
        "duplicated": lambda x: np.hstack([x, x]),
        "interleaved": lambda x: np.repeat(x, 2, axis=1),
        "reversed": lambda x: x[:, ::-1],
    }
    for name, edit in edits.items():
        got = convert_labels(load_manifest(edit_corpus(path.parent, tmp_path / name, "annotations", edit, names)))
        assert list(got) == list(base), name
        for uid, (aol, rol) in base.items():
            assert np.array_equal(got[uid][0].labels, aol.labels), (name, uid)
            assert np.array_equal(got[uid][1].ranks, rol.ranks), (name, uid)
