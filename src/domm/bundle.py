"""Serialized container for every trained parameter of one experiment run.

This module alone reads and writes the ``model.json`` layout: ``_encode``
and ``_decode`` hold every key of every part, next to ``FORMAT_VERSION``,
and the model classes they build are plain records.

Bundles round-trip byte-identically: saving the same trained state twice
produces identical files, and loading then saving reproduces the original
bytes. The KDEs serialize as their raw samples and bandwidths, so a bundle
is self-contained. The feature z-score that the classifier and the ranker
both score in is stored once, and ``standardize`` applies it. A bundle with
a missing, mistyped or inconsistent part, or an integer outside int64,
fails to load with DataError naming the part.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from domm.core import DataError, json_numbers, read_json, write_json
from domm.omsvm import OmsvmModel
from domm.svm import LinearModel, PlattCalibration, check_width
from domm.transitions import KdeModel, TransitionModel

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


def _encode(bundle: ModelBundle) -> dict:
    """The ``model.json`` object of ``bundle``."""

    def linear(model: LinearModel) -> dict:
        return {"weights": model.weights.tolist(), "bias": float(model.bias)}

    def kde(model: KdeModel) -> dict:
        return {"samples": model.samples.tolist(), "bandwidth": float(model.bandwidth)}

    t = bundle.transitions
    return {
        "format_version": FORMAT_VERSION,
        "omsvm": {
            "direction": bundle.omsvm.direction,
            "stages": [
                {"model": linear(m), "platt": {"a": float(p.a), "b": float(p.b)}}
                for m, p in bundle.omsvm.stage_models
            ],
        },
        "ranksvm": None if bundle.ranker is None else linear(bundle.ranker),
        "transitions": None if t is None else {
            "prior": t.prior.tolist(),
            "conditional_kdes": [[kde(k) for k in row] for row in t.conditional_kdes],
            "marginal_kdes": [kde(k) for k in t.marginal_kdes],
            "use_normalized_ranks": t.use_normalized_ranks,
        },
        "class_counts": bundle.class_counts.tolist(),
        "provenance": {"config_hash": bundle.config_hash},
        "standardization": {"mean": bundle.mean.tolist(), "std": bundle.std.tolist()},
    }


@contextmanager
def _part(name: str):
    """Raise a missing or mistyped key, or an integer outside int64, in the block as DataError naming ``name``."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {name}: {type(exc).__name__}: {exc}") from exc


def _decode(d: dict) -> ModelBundle:
    """The bundle of a ``model.json`` object; the innermost part that fails names the error."""

    def linear(m) -> LinearModel:
        with _part("LinearModel"):
            return LinearModel(weights=json_numbers(m["weights"]), bias=float(json_numbers(m["bias"])))

    def kde(k) -> KdeModel:
        with _part("KdeModel"):
            return KdeModel(samples=json_numbers(k["samples"]), bandwidth=float(json_numbers(k["bandwidth"])))

    with _part("ModelBundle"):
        version = int(json_numbers(d.get("format_version", -1), integral=True))
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported bundle format_version {version}, expected {FORMAT_VERSION}")
        with _part("OmsvmModel"):
            stages = []
            for s in d["omsvm"]["stages"]:
                with _part("PlattCalibration"):
                    a, b = (float(json_numbers(s["platt"][key])) for key in "ab")
                stages.append((linear(s["model"]), PlattCalibration(a, b)))
            omsvm = OmsvmModel(stage_models=tuple(stages), direction=str(d["omsvm"]["direction"]))
        transitions = d["transitions"]
        if transitions is not None:
            with _part("TransitionModel"):
                transitions = TransitionModel(
                    prior=json_numbers(transitions["prior"]),
                    conditional_kdes=tuple(tuple(kde(k) for k in row) for row in transitions["conditional_kdes"]),
                    marginal_kdes=tuple(kde(k) for k in transitions["marginal_kdes"]),
                    use_normalized_ranks=transitions["use_normalized_ranks"],
                )
        return ModelBundle(
            omsvm=omsvm,
            ranker=None if d["ranksvm"] is None else linear(d["ranksvm"]),
            transitions=transitions,
            class_counts=json_numbers(d["class_counts"], integral=True),
            config_hash=d["provenance"]["config_hash"],
            mean=json_numbers(d["standardization"]["mean"]),
            std=json_numbers(d["standardization"]["std"]),
        )


def save_model_bundle(bundle: ModelBundle, path) -> None:
    write_json(path, _encode(bundle))


def load_model_bundle(path) -> ModelBundle:
    raw = read_json(path, "model bundle")
    if not isinstance(raw, dict):
        raise DataError(f"{path}: bundle must be a JSON object")
    return _decode(raw)
