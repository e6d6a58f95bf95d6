"""Seeded synthetic corpus generator with a known latent ground truth.

Each utterance follows a stationary AR(1) latent trajectory
z_t = rho * z_{t-1} + sqrt(1 - rho^2) * eps_t. Features mix the latent with
distractor dimensions through a random linear map; each annotator reports a
delayed, biased, noisy copy of the scaled latent clipped to the annotation
range. Everything derives from one PCG64 generator, so a config reproduces
the corpus byte for byte on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from domm.core import (
    AnnotationSet,
    Config,
    UtteranceFeatures,
    is_positive,
    write_csv,
    write_json,
)

__all__ = ["SynthConfig", "SynthCorpus", "generate_corpus", "write_corpus"]


@dataclass(frozen=True)
class SynthConfig(Config):
    n_utterances: int = 18
    frames_per_utterance: int = 615
    feature_dim: int = 10
    n_annotators: int = 6
    latent_smoothness: float = 0.98
    annotator_noise_std: float = 0.1
    annotator_bias_std: float = 0.05
    feature_noise_std: float = 0.5
    annotator_delay_frames: int = 0
    annotation_scale: float = 0.5
    frame_period_s: float = 0.04
    seed: int = 0

    def __post_init__(self):
        counts = ("n_utterances", "frames_per_utterance", "feature_dim", "n_annotators")
        noises = ("annotator_noise_std", "annotator_bias_std", "feature_noise_std")
        self._check(
            *((key, is_positive(getattr(self, key), integral=True), "a positive integer") for key in counts),
            ("latent_smoothness", is_positive(self.latent_smoothness, or_zero=True)
             and self.latent_smoothness < 1, "a number in [0, 1)"),
            *((key, is_positive(getattr(self, key), or_zero=True), "a number >= 0") for key in noises),
            ("annotator_delay_frames", is_positive(self.annotator_delay_frames, integral=True, or_zero=True),
             "an integer >= 0"),
            ("annotation_scale", is_positive(self.annotation_scale), "a positive number"),
            ("frame_period_s", is_positive(self.frame_period_s), "a positive number"),
            ("seed", is_positive(self.seed, integral=True, or_zero=True), "an integer >= 0"),
        )


@dataclass(frozen=True)
class SynthCorpus:
    config: SynthConfig
    features: tuple[UtteranceFeatures, ...]
    annotations: tuple[AnnotationSet, ...]
    latents: tuple[np.ndarray, ...]


def _ar1(rng: np.random.Generator, n: int, rho: float) -> np.ndarray:
    eps = rng.normal(size=n)
    z = np.empty(n)
    z[0] = eps[0]
    scale = np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        z[t] = rho * z[t - 1] + scale * eps[t]
    return z


def generate_corpus(cfg: SynthConfig) -> SynthCorpus:
    """Generate features, multi-annotator interval annotations, and latent truth."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.feature_dim
    mixing = rng.normal(size=(d, d)) / np.sqrt(d)
    biases = rng.normal(size=cfg.n_annotators) * cfg.annotator_bias_std
    delays = rng.integers(0, cfg.annotator_delay_frames + 1, size=cfg.n_annotators)

    features, annotations, latents = [], [], []
    t_max = cfg.frames_per_utterance
    for u in range(cfg.n_utterances):
        uid = f"utt_{u:03d}"
        z = _ar1(rng, t_max, cfg.latent_smoothness)
        inputs = np.column_stack([z, rng.normal(size=(t_max, d - 1))]) if d > 1 else z[:, None]
        frames = inputs @ mixing.T + cfg.feature_noise_std * rng.normal(size=(t_max, d))
        rows = []
        for r in range(cfg.n_annotators):
            src = np.clip(np.arange(t_max) - delays[r], 0, t_max - 1)
            trace = (
                cfg.annotation_scale * z[src]
                + biases[r]
                + cfg.annotator_noise_std * rng.normal(size=t_max)
            )
            rows.append(np.clip(trace, -1.0, 1.0))
        features.append(UtteranceFeatures(uid, frames, cfg.frame_period_s))
        annotations.append(
            AnnotationSet(uid, np.stack(rows), cfg.frame_period_s, (-1.0, 1.0))
        )
        latents.append(z)
    return SynthCorpus(cfg, tuple(features), tuple(annotations), tuple(latents))


def write_corpus(
    corpus: SynthCorpus,
    out_dir,
    thresholds: tuple[float, float] = (-0.215, 0.215),
    boundary_mode: str = "text-rule",
    dimension_name: str = "arousal",
) -> Path:
    """Write the corpus in the pipeline's CSV formats plus latent truth and manifest.

    The first half of the utterances is tagged ``train`` and the second half
    ``test``. Returns the manifest path. Window length equals one frame (the
    generator emits frame-aligned features and annotations), so conversion
    yields one label per frame.
    """
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    (out / "annotations").mkdir(parents=True, exist_ok=True)
    cfg = corpus.config
    entries = []
    n_train = (cfg.n_utterances + 1) // 2
    latent_rows = []
    for idx, (uf, ann, z) in enumerate(zip(corpus.features, corpus.annotations, corpus.latents)):
        write_csv(
            out / "features" / f"{uf.utterance_id}.csv",
            [f"f{i}" for i in range(uf.n_dims)],
            uf.frames,
            utterance_id=uf.utterance_id,
            frame_period_s=uf.frame_period_s,
        )
        write_csv(
            out / "annotations" / f"{ann.utterance_id}.csv",
            [f"r{i}" for i in range(ann.n_annotators)],
            ann.values.T,
            utterance_id=ann.utterance_id,
            period_s=ann.period_s,
        )
        latent_rows.extend((uf.utterance_id, t, v) for t, v in enumerate(z))
        entries.append(
            {
                "utterance_id": uf.utterance_id,
                "features": f"features/{uf.utterance_id}.csv",
                "annotations": f"annotations/{uf.utterance_id}.csv",
                "split": "train" if idx < n_train else "test",
            }
        )
    write_csv(out / "latent.csv", ["utterance_id", "frame", "value"], latent_rows)
    manifest = {
        "dataset_name": "synthetic",
        "dimension_name": dimension_name,
        "value_range": [-1.0, 1.0],
        "preprocessing": {"delay_s": 0.0, "window_s": cfg.frame_period_s, "overlap": 0.0},
        "thresholds": {
            "theta1": thresholds[0],
            "theta2": thresholds[1],
            "boundary_mode": boundary_mode,
        },
        "synth_config": cfg.to_dict(),
        "utterances": entries,
    }
    manifest_path = out / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path
