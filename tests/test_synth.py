import numpy as np
import pytest
from scipy.stats import rankdata

from domm.core import DataError, load_manifest, parse_annotations, parse_features
from domm.labels import comparison_matrix, qa_consensus, ranks_from_consensus
from domm.synth import SynthConfig, generate_corpus, write_corpus


def small_config(**overrides):
    base = dict(
        n_utterances=4,
        frames_per_utterance=40,
        feature_dim=5,
        n_annotators=3,
        latent_smoothness=0.9,
        annotator_noise_std=0.05,
        annotator_bias_std=0.02,
        feature_noise_std=0.3,
        seed=123,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_determinism_in_memory():
    a = generate_corpus(small_config())
    b = generate_corpus(small_config())
    for fa, fb in zip(a.features, b.features):
        assert fa.frames.tobytes() == fb.frames.tobytes()
    for xa, xb in zip(a.annotations, b.annotations):
        assert xa.values.tobytes() == xb.values.tobytes()


def test_determinism_on_disk(tmp_path):
    for sub in ("one", "two"):
        write_corpus(generate_corpus(small_config()), tmp_path / sub)
    files = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()


def test_different_seeds_differ():
    a = generate_corpus(small_config(seed=1))
    b = generate_corpus(small_config(seed=2))
    assert a.features[0].frames.tobytes() != b.features[0].frames.tobytes()


def test_written_corpus_parses_back(tmp_path):
    corpus = generate_corpus(small_config())
    manifest_path = write_corpus(corpus, tmp_path)
    manifest = load_manifest(manifest_path)
    assert len(manifest.utterances) == 4
    assert [u.split for u in manifest.utterances] == ["train", "train", "test", "test"]
    for entry, uf, ann in zip(manifest.utterances, corpus.features, corpus.annotations):
        parsed = parse_features(entry.features_path)
        np.testing.assert_allclose(parsed.frames, uf.frames)
        parsed_ann = parse_annotations(entry.annotations_path, manifest.value_range)
        np.testing.assert_allclose(parsed_ann.values, ann.values)


def test_zero_noise_annotations_equal_scaled_latent():
    cfg = small_config(
        annotator_noise_std=0.0, annotator_bias_std=0.0, annotator_delay_frames=0
    )
    corpus = generate_corpus(cfg)
    for ann, z in zip(corpus.annotations, corpus.latents):
        expected = np.clip(cfg.annotation_scale * z, -1, 1)
        for r in range(cfg.n_annotators):
            np.testing.assert_allclose(ann.values[r], expected, atol=1e-12)


def test_zero_noise_consensus_ranks_match_latent_order():
    cfg = small_config(annotator_noise_std=0.0, annotator_bias_std=0.0)
    corpus = generate_corpus(cfg)
    for ann, z in zip(corpus.annotations, corpus.latents):
        matrices = [comparison_matrix(ann.values[r]) for r in range(ann.n_annotators)]
        ranks = ranks_from_consensus(qa_consensus(matrices))
        np.testing.assert_array_equal(ranks.ranks, rankdata(np.clip(cfg.annotation_scale * z, -1, 1)))


def test_latent_variance_near_stationary():
    cfg = small_config(n_utterances=1, frames_per_utterance=6000, latent_smoothness=0.95)
    corpus = generate_corpus(cfg)
    assert corpus.latents[0].var() == pytest.approx(1.0, rel=0.1)


def test_annotator_delay_shifts_trace():
    cfg = small_config(
        annotator_noise_std=0.0,
        annotator_bias_std=0.0,
        annotator_delay_frames=3,
        n_annotators=6,
        seed=5,
    )
    corpus = generate_corpus(cfg)
    rng = np.random.default_rng(cfg.seed)
    rng.normal(size=(cfg.feature_dim, cfg.feature_dim))
    rng.normal(size=cfg.n_annotators)
    delays = rng.integers(0, cfg.annotator_delay_frames + 1, size=cfg.n_annotators)
    assert delays.max() > 0  # the draw actually exercises a shift
    ann, z = corpus.annotations[0], corpus.latents[0]
    for r, d in enumerate(delays):
        expected = np.clip(
            cfg.annotation_scale * z[np.clip(np.arange(cfg.frames_per_utterance) - d, 0, None)],
            -1,
            1,
        )
        np.testing.assert_allclose(ann.values[r], expected, atol=1e-12)


def test_config_validation():
    with pytest.raises(DataError):
        SynthConfig(n_utterances=0)
    with pytest.raises(DataError):
        SynthConfig(latent_smoothness=1.0)
    with pytest.raises(DataError):
        SynthConfig(annotator_noise_std=-0.1)
    for bad in ({"seed": -1}, {"seed": 1.5}, {"n_utterances": True}, {"frame_period_s": float("nan")}):
        with pytest.raises(DataError, match=next(iter(bad))):
            SynthConfig(**bad)


def test_config_json_round_trip_and_rejects():
    cfg = small_config()
    assert SynthConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(DataError, match="JSON object"):
        SynthConfig.from_dict([1, 2])
    with pytest.raises(DataError, match="unknown"):
        SynthConfig.from_dict({"n_utterance": 3})
