"""Serialized container for every trained parameter of one experiment run.

Bundles round-trip byte-identically: saving the same trained state twice
produces identical files, and loading then saving reproduces the original
bytes. The KDEs serialize as their raw samples and bandwidths, so a bundle
is self-contained. A bundle with a missing, mistyped or inconsistent part
fails to load with DataError.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from domm.core import DataError, canonical_json, checked_from_dict, read_json
from domm.omsvm import OmsvmModel
from domm.svm import LinearModel
from domm.transitions import TransitionModel

__all__ = ["FORMAT_VERSION", "ModelBundle", "load_model_bundle", "save_model_bundle"]

FORMAT_VERSION = 2


@dataclass(frozen=True)
class ModelBundle:
    omsvm: OmsvmModel
    ranker: LinearModel | None
    transitions: TransitionModel | None
    class_counts: np.ndarray
    config_hash: str
    seed: int

    def __post_init__(self):
        if self.class_counts.shape != (3,):
            raise DataError("bundle class_counts must hold one count per state")

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "omsvm": self.omsvm.to_dict(),
            "ranksvm": self.ranker.to_dict() if self.ranker is not None else None,
            "transitions": self.transitions.to_dict() if self.transitions is not None else None,
            "class_counts": self.class_counts.tolist(),
            "provenance": {"config_hash": self.config_hash, "seed": self.seed},
        }

    @checked_from_dict
    def from_dict(cls, d: dict) -> "ModelBundle":
        version = int(d.get("format_version", -1))
        if version != FORMAT_VERSION:
            raise DataError(
                f"unsupported bundle format_version {version}, expected {FORMAT_VERSION}"
            )
        return cls(
            omsvm=OmsvmModel.from_dict(d["omsvm"]),
            ranker=LinearModel.from_dict(d["ranksvm"]) if d["ranksvm"] is not None else None,
            transitions=(
                TransitionModel.from_dict(d["transitions"])
                if d["transitions"] is not None
                else None
            ),
            class_counts=np.asarray(d["class_counts"], dtype=int),
            config_hash=str(d["provenance"]["config_hash"]),
            seed=int(d["provenance"]["seed"]),
        )


def save_model_bundle(bundle: ModelBundle, path) -> None:
    Path(path).write_text(canonical_json(bundle.to_dict()) + "\n", encoding="ascii")


def load_model_bundle(path) -> ModelBundle:
    raw = read_json(path, "model bundle")
    if not isinstance(raw, dict):
        raise DataError(f"{path}: bundle must be a JSON object")
    return ModelBundle.from_dict(raw)
