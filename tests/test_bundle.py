"""``model.json`` round trips through ``bundle``, the one module that reads and writes its layout."""

import numpy as np
import pytest

from domm.bundle import load_model_bundle, save_model_bundle
from domm.core import load_manifest
from domm.experiment import ExperimentConfig, convert_labels, fit_bundle, load_features
from domm.synth import SynthConfig, generate_corpus, write_corpus

CONFIGS = {
    "omsvm-only": ExperimentConfig(variant="omsvm-only"),
    "domm-gt": ExperimentConfig(variant="domm-gt"),
    "domm-rs": ExperimentConfig(),
    "backward": ExperimentConfig(direction="backward"),
    "raw-ranks": ExperimentConfig(use_normalized_ranks=False),
}


@pytest.fixture(scope="module")
def train_split(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(n_utterances=4, frames_per_utterance=60, feature_dim=3, n_annotators=3, seed=0)
    write_corpus(generate_corpus(cfg), root)
    manifest = load_manifest(root / "manifest.json")
    return load_features(manifest.split_entries("train")), convert_labels(manifest, "train")


@pytest.mark.parametrize("name", CONFIGS)
def test_save_load_save_is_byte_identical(train_split, tmp_path, name):
    bundle = fit_bundle(*train_split, CONFIGS[name])
    save_model_bundle(bundle, tmp_path / "a.json")
    loaded = load_model_bundle(tmp_path / "a.json")
    save_model_bundle(loaded, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert loaded.omsvm.direction == CONFIGS[name].direction
    assert (loaded.ranker is None) == (name in ("omsvm-only", "domm-gt"))
    if bundle.transitions is None:
        assert name == "omsvm-only" and loaded.transitions is None
        return
    assert loaded.transitions.use_normalized_ranks is CONFIGS[name].use_normalized_ranks
    fell_back = [
        (i, j)
        for i, row in enumerate(bundle.transitions.conditional_kdes)
        for j, cell in enumerate(row)
        if cell is bundle.transitions.marginal_kdes[i]
    ]
    assert fell_back, "the corpus should leave a sparse cell on its row's marginal"
    for i, j in fell_back:
        np.testing.assert_array_equal(
            loaded.transitions.conditional_kdes[i][j].samples, loaded.transitions.marginal_kdes[i].samples
        )
