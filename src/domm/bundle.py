"""Serialized container for every trained parameter of one experiment run.

Bundles round-trip byte-identically: saving the same trained state twice
produces identical files, and loading then saving reproduces the original
bytes. The KDEs serialize as their raw samples and bandwidths, so a bundle
is self-contained. The feature z-score that the classifier and the ranker
both score in is stored once, and ``standardize`` applies it. A bundle with
a missing, mistyped or inconsistent part fails to load with DataError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from domm.core import DataError, checked_from_dict, json_numbers, read_json, write_json
from domm.omsvm import OmsvmModel
from domm.svm import LinearModel, check_width
from domm.transitions import TransitionModel

__all__ = ["FORMAT_VERSION", "ModelBundle", "load_model_bundle", "save_model_bundle"]

FORMAT_VERSION = 5


@dataclass(frozen=True)
class ModelBundle:
    omsvm: OmsvmModel
    ranker: LinearModel | None
    transitions: TransitionModel | None
    class_counts: np.ndarray
    config_hash: str
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.class_counts.shape != (3,) or np.any(self.class_counts < 1):
            raise DataError("bundle class_counts must hold one positive count per state")
        if not isinstance(self.config_hash, str):
            raise DataError(f"bundle config_hash must be a string, got {self.config_hash!r}")
        models = [m for m, _ in self.omsvm.stage_models] + ([self.ranker] if self.ranker is not None else [])
        if not all(self.mean.shape == self.std.shape == m.weights.shape for m in models):
            raise DataError("bundle standardization must hold one mean and std per model weight")
        if not (np.all(np.isfinite(self.mean)) and np.all(self.std > 0)):
            raise DataError("bundle standardization must be finite with positive std")

    def standardize(self, frames) -> np.ndarray:
        """A z-scored copy of the T x D ``frames``; raises DataError on another width D."""
        x = np.atleast_2d(np.asarray(frames, dtype=float))
        check_width(x, self.mean.size)
        return (x - self.mean) / self.std

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "omsvm": self.omsvm.to_dict(),
            "ranksvm": self.ranker.to_dict() if self.ranker is not None else None,
            "transitions": self.transitions.to_dict() if self.transitions is not None else None,
            "class_counts": self.class_counts.tolist(),
            "provenance": {"config_hash": self.config_hash},
            "standardization": {"mean": self.mean.tolist(), "std": self.std.tolist()},
        }

    @checked_from_dict
    def from_dict(cls, d: dict) -> "ModelBundle":
        version = int(json_numbers(d.get("format_version", -1), integral=True))
        if version != FORMAT_VERSION:
            raise DataError(
                f"unsupported bundle format_version {version}, expected {FORMAT_VERSION}"
            )
        return cls(
            omsvm=OmsvmModel.from_dict(d["omsvm"]),
            ranker=LinearModel.from_dict(d["ranksvm"]) if d["ranksvm"] is not None else None,
            transitions=TransitionModel.from_dict(d["transitions"]) if d["transitions"] is not None else None,
            class_counts=json_numbers(d["class_counts"], integral=True),
            config_hash=d["provenance"]["config_hash"],
            mean=json_numbers(d["standardization"]["mean"]),
            std=json_numbers(d["standardization"]["std"]),
        )


def save_model_bundle(bundle: ModelBundle, path) -> None:
    write_json(path, bundle.to_dict())


def load_model_bundle(path) -> ModelBundle:
    raw = read_json(path, "model bundle")
    if not isinstance(raw, dict):
        raise DataError(f"{path}: bundle must be a JSON object")
    return ModelBundle.from_dict(raw)
