"""Shared domain types, dataset manifests, and deterministic file I/O.

All types are immutable after construction and safe to share between
threads; parsing and serialization functions are pure. Serialization is
canonical (sorted keys, 17-significant-digit floats) so that identical
objects always produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from enum import IntEnum
from pathlib import Path

import numpy as np

__all__ = [
    "AnnotationSet",
    "AolSequence",
    "AolState",
    "Config",
    "DataError",
    "DatasetManifest",
    "ManifestEntry",
    "Preprocessing",
    "RolSequence",
    "UtteranceFeatures",
    "average_ranks",
    "canonical_json",
    "checked_from_dict",
    "format_float",
    "is_positive",
    "load_manifest",
    "parse_annotations",
    "parse_features",
    "read_aol_csv",
    "read_json",
    "read_rol_csv",
    "write_aol_csv",
    "write_csv",
    "write_json",
    "write_rol_csv",
]


class DataError(Exception):
    """Malformed input file, config, or inconsistent dataset."""


def checked_from_dict(from_dict):
    """``classmethod`` for a ``from_dict`` whose missing or mistyped keys raise DataError."""

    @functools.wraps(from_dict)
    def wrapper(cls, d):
        try:
            return from_dict(cls, d)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed {cls.__name__}: {type(exc).__name__}: {exc}") from exc

    return classmethod(wrapper)


def is_positive(x, integral: bool = False, or_zero: bool = False) -> bool:
    """A finite number (an integer if ``integral``, never a bool) above 0, or at least 0."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral if integral else numbers.Real):
        return False
    return (isinstance(x, numbers.Integral) or math.isfinite(x)) and (x >= 0 if or_zero else x > 0)


class Config:
    """Base of the frozen config dataclasses: field checks and a JSON-object round trip."""

    def _check(self, *checks) -> None:
        """Raise DataError for the first ``(key, ok, expected)`` whose ``ok`` is false."""
        for key, ok, expected in checks:
            if not ok:
                raise DataError(f"config {key} must be {expected}, got {getattr(self, key)!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Build from a JSON object; a non-object or an unknown key raises DataError."""
        if not isinstance(d, dict):
            raise DataError(f"{cls.__name__} must be a JSON object")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise DataError(f"unknown {cls.__name__} keys {sorted(unknown)}")
        return cls(**d)


class AolState(IntEnum):
    """Absolute ordinal level. The total order LOW < MEDIUM < HIGH is load-bearing."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


@dataclass(frozen=True)
class UtteranceFeatures:
    """Per-frame feature matrix (T frames x D dims) for one utterance."""

    utterance_id: str
    frames: np.ndarray
    frame_period_s: float | None = None

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise DataError(f"{self.utterance_id}: feature matrix must be T x D with T,D >= 1")
        if not np.all(np.isfinite(self.frames)):
            raise DataError(f"{self.utterance_id}: feature matrix contains non-finite values")
        if self.frame_period_s is not None and not self.frame_period_s > 0:
            raise DataError(f"{self.utterance_id}: frame_period_s must be positive")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_dims(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class AnnotationSet:
    """R equal-length interval-label series for one utterance.

    ``values`` has shape (R, T); every entry lies within ``value_range``.
    """

    utterance_id: str
    values: np.ndarray
    period_s: float
    value_range: tuple[float, float]

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise DataError(f"{self.utterance_id}: annotations must be R x T with R,T >= 1")
        if not self.period_s > 0:
            raise DataError(f"{self.utterance_id}: sampling period must be positive")
        lo, hi = self.value_range
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"{self.utterance_id}: annotation contains non-finite values")
        if np.any(self.values < lo) or np.any(self.values > hi):
            raise DataError(f"{self.utterance_id}: annotation value outside range [{lo}, {hi}]")

    @property
    def n_annotators(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AolSequence:
    """Sequence of absolute ordinal labels (state codes 0/1/2) for one utterance."""

    utterance_id: str
    labels: np.ndarray

    def __post_init__(self):
        if self.labels.ndim != 1 or self.labels.size < 1:
            raise DataError(f"{self.utterance_id}: label sequence must be non-empty 1-D")
        if not np.all(np.isin(self.labels, (0, 1, 2))):
            raise DataError(f"{self.utterance_id}: labels must be state codes in {{0, 1, 2}}")

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class RolSequence:
    """Per-frame ranks within one utterance, tied-average convention.

    ``normalized`` maps ranks to [0, 1] via (rank - 1) / (T - 1), with the
    singleton convention 0.5 when T = 1; rank differences are always taken
    on the normalized form so utterances of different lengths share a scale.
    """

    utterance_id: str
    ranks: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        t = self.ranks.size
        if self.ranks.ndim != 1 or t < 1 or self.normalized.shape != self.ranks.shape:
            raise DataError(f"{self.utterance_id}: ranks/normalized must be equal-length 1-D")
        expected = t * (t + 1) / 2.0
        if abs(self.ranks.sum() - expected) > 1e-6 * max(expected, 1.0):
            raise DataError(
                f"{self.utterance_id}: ranks are not a tied-average ranking "
                f"(sum {self.ranks.sum()} != {expected})"
            )

    @classmethod
    def from_ranks(cls, utterance_id: str, ranks) -> "RolSequence":
        ranks = np.asarray(ranks, dtype=float)
        t = ranks.size
        if t == 1:
            normalized = np.array([0.5])
        else:
            normalized = (ranks - 1.0) / (t - 1.0)
        return cls(utterance_id, ranks, normalized)

    def __len__(self) -> int:
        return self.ranks.size


def average_ranks(values) -> np.ndarray:
    """1-based ascending ranks of a 1-D array; tied values share their mean rank."""
    x = np.asarray(values)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    features_path: Path
    annotations_path: Path
    split: str


@dataclass(frozen=True)
class Preprocessing:
    delay_s: float
    window_s: float
    overlap: float


@dataclass(frozen=True)
class DatasetManifest:
    """Declares a dataset: utterance files, splits, thresholds, preprocessing."""

    dataset_name: str
    dimension_name: str
    value_range: tuple[float, float]
    preprocessing: Preprocessing
    thresholds: dict
    utterances: tuple[ManifestEntry, ...]

    def split_entries(self, split: str) -> list[ManifestEntry]:
        """The split's utterances (every one for ``"all"``); an empty split raises DataError."""
        entries = [u for u in self.utterances if split == "all" or u.split == split]
        if not entries:
            raise DataError(f"manifest has no utterances in split {split!r}")
        return entries

    def split_tags(self) -> list[str]:
        seen: dict[str, None] = {}
        for u in self.utterances:
            seen.setdefault(u.split, None)
        return list(seen)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Format with 17 significant digits (lossless for float64), always float-typed."""
    x = float(x)
    if not math.isfinite(x):
        raise DataError(f"non-finite value {x!r} cannot be serialized")
    s = "%.17g" % x
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def canonical_json(obj) -> str:
    """Serialize to JSON with sorted keys and fixed float formatting.

    Identical objects always yield identical bytes, so file-level equality
    checks and reproducibility tests can compare raw output.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(json.dumps(key, ensure_ascii=True) + ":" + canonical_json(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="ascii")


def read_json(path, what: str):
    """Parse a JSON file; an unreadable, non-UTF-8 or malformed file raises DataError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load {what} {path}: {exc}") from exc


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def write_csv(path, header, rows, **meta) -> None:
    """Write ``#key=value`` lines (None values skipped), the header, then one line per row.

    Strings are written as-is, integers as ``str(int)`` and floats with
    ``format_float``. The file is ASCII and ends with a newline.
    """
    lines = [f"#{key}={_csv_cell(value)}" for key, value in meta.items() if value is not None]
    lines.append(",".join(header))
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def _read_csv_lines(path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split a CSV file into (#key=value metadata, header cells, data rows)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = cells
        else:
            rows.append(cells)
    if header is None:
        raise DataError(f"{path}: empty file")
    return meta, header, rows


def _parse_matrix(path, header: list[str], rows: list[list[str]]) -> np.ndarray:
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(header)
    out = np.empty((len(rows), width))
    for r, cells in enumerate(rows):
        if len(cells) != width:
            raise DataError(f"{path}: row {r + 1} has {len(cells)} cells, expected {width}")
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise DataError(
                    f"{path}: non-numeric value {cell!r} at row {r + 1}, column {header[c]!r}"
                )
            out[r, c] = value
    return out


def parse_features(path) -> UtteranceFeatures:
    """Parse a feature CSV: optional ``#key=value`` metadata, header, one row per frame."""
    meta, header, rows = _read_csv_lines(path)
    frames = _parse_matrix(path, header, rows)
    utterance_id = meta.get("utterance_id", Path(path).stem)
    period = meta.get("frame_period_s")
    return UtteranceFeatures(
        utterance_id=utterance_id,
        frames=frames,
        frame_period_s=float(period) if period is not None else None,
    )


def parse_annotations(path, value_range: tuple[float, float]) -> AnnotationSet:
    """Parse an annotation CSV: ``#period_s=<float>`` metadata row, one column per annotator."""
    meta, header, rows = _read_csv_lines(path)
    if "period_s" not in meta:
        raise DataError(f"{path}: missing '#period_s=' metadata row")
    values = _parse_matrix(path, header, rows)
    return AnnotationSet(
        utterance_id=meta.get("utterance_id", Path(path).stem),
        values=values.T.copy(),
        period_s=float(meta["period_s"]),
        value_range=(float(value_range[0]), float(value_range[1])),
    )


# ---------------------------------------------------------------------------
# Label CSV I/O (consensus outputs and predictions)
# ---------------------------------------------------------------------------


def write_aol_csv(seq: AolSequence, path) -> None:
    write_csv(path, ["aol"], ([int(v)] for v in seq.labels), utterance_id=seq.utterance_id)


def read_aol_csv(path) -> AolSequence:
    meta, header, rows = _read_csv_lines(path)
    if header != ["aol"]:
        raise DataError(f"{path}: expected single 'aol' column")
    try:
        labels = np.array([int(r[0]) for r in rows])
    except ValueError as exc:
        raise DataError(f"{path}: non-integer label: {exc}") from exc
    return AolSequence(meta.get("utterance_id", Path(path).stem), labels)


def write_rol_csv(seq: RolSequence, path) -> None:
    rows = zip(seq.ranks.astype(float), seq.normalized.astype(float))
    write_csv(path, ["rank", "normalized"], rows, utterance_id=seq.utterance_id)


def read_rol_csv(path) -> RolSequence:
    meta, header, rows = _read_csv_lines(path)
    if header != ["rank", "normalized"]:
        raise DataError(f"{path}: expected 'rank,normalized' columns")
    values = _parse_matrix(path, header, rows)
    return RolSequence(meta.get("utterance_id", Path(path).stem), values[:, 0], values[:, 1])


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def load_manifest(path) -> DatasetManifest:
    """Load and structurally validate a dataset manifest.

    Referenced files are checked when they are actually opened, not here, so
    that training never has to touch (or even see) held-out split files.
    """
    path = Path(path)
    raw = read_json(path, "manifest")
    try:
        base = path.parent
        entries = []
        seen_ids: set[str] = set()
        for item in raw["utterances"]:
            uid = str(item["utterance_id"])
            split = str(item["split"])
            if not split:
                raise DataError(f"{path}: empty split tag for utterance {uid!r}")
            if uid in seen_ids:
                raise DataError(f"{path}: duplicate utterance id {uid!r}")
            seen_ids.add(uid)
            entries.append(
                ManifestEntry(
                    utterance_id=uid,
                    features_path=base / item["features"],
                    annotations_path=base / item["annotations"],
                    split=split,
                )
            )
        if not entries:
            raise DataError(f"{path}: manifest declares no utterances")
        pre = raw["preprocessing"]
        manifest = DatasetManifest(
            dataset_name=str(raw["dataset_name"]),
            dimension_name=str(raw["dimension_name"]),
            value_range=(float(raw["value_range"][0]), float(raw["value_range"][1])),
            preprocessing=Preprocessing(
                delay_s=float(pre["delay_s"]),
                window_s=float(pre["window_s"]),
                overlap=float(pre["overlap"]),
            ),
            thresholds=dict(raw["thresholds"]),
            utterances=tuple(entries),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc!r}") from exc
    return manifest
