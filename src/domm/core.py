"""Shared domain types, dataset manifests, and deterministic file I/O.

All types are immutable after construction and safe to share between
threads; parsing and serialization functions are pure. Serialization is
canonical (sorted keys, 17-significant-digit floats) so that identical
objects always produce identical bytes.
"""

from __future__ import annotations

import hashlib
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
    "MissingClassError",
    "Preprocessing",
    "RolSequence",
    "ThresholdConfig",
    "UtteranceFeatures",
    "average_ranks",
    "canonical_json",
    "format_float",
    "is_positive",
    "json_numbers",
    "later_lower_counts",
    "load_manifest",
    "output_dir",
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


class MissingClassError(DataError):
    """A fit or a metric needs all three states, and its labels lack one."""


def is_finite_number(x) -> bool:
    """A finite real number, never a bool."""
    return not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)


def is_positive(x, integral: bool = False, or_zero: bool = False) -> bool:
    """A finite number (an integer if ``integral``, never a bool) above 0, or at least 0."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral if integral else numbers.Real):
        return False
    return (isinstance(x, numbers.Integral) or math.isfinite(x)) and (x >= 0 if or_zero else x > 0)


def json_numbers(value, integral: bool = False) -> np.ndarray:
    """A parsed JSON number, or nested lists of them, as a float (int if ``integral``) array.

    Anything else raises TypeError, which the bundle decoder reports as DataError.
    """
    allowed = (int,) if integral else (int, float)
    pending = [value]
    while pending:
        item = pending.pop()
        if type(item) is list:
            pending.extend(item)
        elif type(item) not in allowed:
            raise TypeError(f"expected JSON {'integers' if integral else 'numbers'}, got {item!r}")
    return np.asarray(value, dtype=int if integral else float)


class Config:
    """Base of the frozen config dataclasses: field checks and a JSON-object round trip."""

    def _check(self, *checks) -> None:
        """Raise DataError for the first ``(key, ok, expected)`` whose ``ok`` is false."""
        for key, ok, expected in checks:
            if not ok:
                raise DataError(f"{type(self).__name__} {key} must be {expected}, got {getattr(self, key)!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode("ascii")).hexdigest()[:16]

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

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise DataError(f"{self.utterance_id}: feature matrix must be T x D with T,D >= 1")
        if not np.all(np.isfinite(self.frames)):
            raise DataError(f"{self.utterance_id}: feature matrix contains non-finite values")

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
    singleton convention 0.5 when T = 1; it is derived from ``ranks``, never
    stored, so utterances of different lengths share a scale.
    """

    utterance_id: str
    ranks: np.ndarray

    def __post_init__(self):
        t = self.ranks.size
        if self.ranks.ndim != 1 or t < 1:
            raise DataError(f"{self.utterance_id}: ranks must be non-empty 1-D")
        if not np.all(np.isfinite(self.ranks)):
            raise DataError(f"{self.utterance_id}: ranks contain non-finite values")
        # exact: tied-average ranks are halves, so re-ranking returns the same floats
        if not np.array_equal(self.ranks, average_ranks(self.ranks)):
            raise DataError(f"{self.utterance_id}: ranks are not a tied-average ranking of 1..{t}")

    @classmethod
    def from_ranks(cls, utterance_id: str, ranks) -> "RolSequence":
        return cls(utterance_id, np.asarray(ranks, dtype=float))

    @property
    def normalized(self) -> np.ndarray:
        t = self.ranks.size
        return np.array([0.5]) if t == 1 else (self.ranks - 1.0) / (t - 1.0)

    def deltas(self, normalized: bool) -> np.ndarray:
        """Frame-to-frame differences of the normalized (or raw) ranks."""
        return np.diff(self.normalized if normalized else self.ranks)

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


def later_lower_counts(values) -> np.ndarray:
    """For each item i of a 1-D array, the number of later items j > i with values[j] < values[i].

    The count halves the sequence: each left-half item adds the right-half
    items below it, ``searchsorted(sort(right), left, "left")``, to its
    count within its own half. Up to 64 items are compared directly. Equal
    values never count (``-0.0`` equals ``0.0``). Exact integers, O(n log^2 n)
    time, O(n) memory.
    """
    x = np.asarray(values)
    if x.size <= 64:
        return np.count_nonzero(np.triu(x[:, None] > x, 1), axis=1)
    left, right = x[: x.size // 2], x[x.size // 2 :]
    ahead = later_lower_counts(left) + np.searchsorted(np.sort(right), left, "left")
    return np.concatenate((ahead, later_lower_counts(right)))


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    features_path: Path
    annotations_path: Path
    split: str


@dataclass(frozen=True)
class Preprocessing(Config):
    """Annotation conversion: a delay shift, windows of ``window_s`` overlapping by ``overlap``,
    and ``eps_tie``, the value difference up to which a pairwise comparison counts as a tie."""

    delay_s: float
    window_s: float
    overlap: float
    eps_tie: float = 0.0

    def __post_init__(self):
        self._check(
            ("delay_s", is_positive(self.delay_s, or_zero=True), "a number >= 0"),
            ("window_s", is_positive(self.window_s), "a positive number"),
            ("overlap", is_positive(self.overlap, or_zero=True) and self.overlap < 1, "a number in [0, 1)"),
            ("eps_tie", is_positive(self.eps_tie, or_zero=True), "a number >= 0"),
        )


BOUNDARY_MODES = ("text-rule", "table-half-open")


@dataclass(frozen=True)
class ThresholdConfig(Config):
    """Two thresholds splitting the value range into Low / Medium / High.

    ``text-rule``:       Low on (-inf, theta1], Medium on (theta1, theta2], High above.
    ``table-half-open``: Low on [min, theta1), Medium on [theta1, theta2), High on [theta2, max].
    """

    theta1: float
    theta2: float
    boundary_mode: str = "text-rule"

    def __post_init__(self):
        finite = [is_finite_number(t) for t in (self.theta1, self.theta2)]
        self._check(
            ("theta1", finite[0], "a finite number"),
            ("theta2", all(finite) and self.theta1 < self.theta2, "a finite number above theta1"),
            ("boundary_mode", self.boundary_mode in BOUNDARY_MODES, f"one of {BOUNDARY_MODES}"),
        )


@dataclass(frozen=True)
class DatasetManifest:
    """Declares a dataset: utterance files, splits, thresholds, preprocessing."""

    dataset_name: str
    dimension_name: str
    value_range: tuple[float, float]
    preprocessing: Preprocessing
    thresholds: ThresholdConfig
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
        if all(type(v) is float for v in obj):  # the float vectors of a bundle, without recursion
            return "[" + ",".join(map(format_float, obj)) + "]"
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(json.dumps(key, ensure_ascii=True) + ":" + canonical_json(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def _write_text(path, text: str) -> None:
    """Write ``text`` as ASCII bytes.

    Text that is not ASCII, or a path that cannot be written, raises
    DataError naming the path; non-ASCII text leaves no file behind.
    """
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise DataError(f"cannot write {path}: non-ASCII text {exc.object[exc.start : exc.end]!r}") from exc
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path} ({exc.strerror})") from exc


def write_json(path, obj) -> None:
    _write_text(path, canonical_json(obj) + "\n")


def output_dir(path) -> Path:
    """``path`` as a directory, created with its parents if missing; DataError if it cannot be one."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot use {path} as an output directory ({exc.strerror})") from exc
    return path


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _float_sized_int(text: str) -> int:
    if not math.isfinite(float(text)):
        raise ValueError(f"integer of {len(text)} digits overflows a float")
    return int(text)


def read_json(path, what: str):
    """Parse a JSON file; an unreadable, non-UTF-8 or malformed file raises DataError.

    NaN, Infinity and numbers that overflow to infinity count as malformed,
    integers included.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(
            text, parse_float=_finite_float, parse_int=_float_sized_int, parse_constant=_finite_float
        )
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load {what} {path}: {exc}") from exc


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def _csv_lines(rows) -> list[str]:
    """One CSV line per row, cell by cell.

    A finite 2-D float array formats each row with one ``%.17g`` template.
    That matches ``format_float`` on every value that is not integral: 17
    digits round-trip, so such a value prints a point or an exponent. A row
    that holds an integral value (``-0.0`` and the +/-1.0 annotation clips
    included) goes cell by cell, so those cells keep their ``.0``.
    """
    float_matrix = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f"
    if float_matrix and np.all(np.isfinite(rows)):
        template = ",".join(["%.17g"] * rows.shape[1])
        integral = np.any(rows == np.trunc(rows), axis=1).tolist()
        return [
            ",".join(map(format_float, row)) if whole else template % tuple(row)
            for row, whole in zip(rows.tolist(), integral)
        ]
    return [",".join(_csv_cell(v) for v in row) for row in rows]


def write_csv(path, header, rows, **meta) -> None:
    """Write ``#key=value`` lines (None values skipped), the header, then one line per row.

    Strings are written as-is, integers as ``str(int)`` and floats with
    ``format_float``. The file is ASCII and ends with a newline.
    """
    lines = [f"#{key}={_csv_cell(value)}" for key, value in meta.items() if value is not None]
    lines.append(",".join(header))
    lines.extend(_csv_lines(rows))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def _read_csv_lines(path) -> tuple[dict[str, str], list[str], list[str]]:
    """Split a CSV file into (#key=value metadata, header cells, raw data lines)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    meta: dict[str, str] = {}
    header: list[str] | None = None
    lines: list[str] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif header is None:
            header = [c.strip() for c in line.split(",")]
        else:
            lines.append(line)
    if header is None:
        raise DataError(f"{path}: empty file")
    return meta, header, lines


def _check_row_widths(path, lines: list[str], width: int) -> None:
    for r, line in enumerate(lines):
        cells = line.count(",") + 1
        if cells != width:
            raise DataError(f"{path}: row {r + 1} has {cells} cells, expected {width}")


def _parse_matrix(path, header: list[str], lines: list[str]) -> np.ndarray:
    """The data lines as a finite float matrix, every cell parsed by ``float`` in one bulk pass.

    ``float`` strips surrounding whitespace itself, so the bulk pass accepts
    exactly the stripped cells. If any cell fails or is not finite, the
    first such cell in the same cell list is named by its row and column.
    """
    if not lines:
        raise DataError(f"{path}: no data rows")
    width = len(header)
    _check_row_widths(path, lines, width)
    cells = ",".join(lines).split(",")
    try:
        out = np.fromiter(map(float, cells), float, len(cells))
        if np.all(np.isfinite(out)):
            return out.reshape(len(lines), width)
    except ValueError:
        pass
    for k, cell in enumerate(cells):
        try:
            _finite_float(cell)
        except ValueError as exc:
            row, col = divmod(k, width)
            raise DataError(
                f"{path}: non-numeric value {cell.strip()!r} at row {row + 1}, column {header[col]!r}"
            ) from exc


def _meta_float(path, meta: dict[str, str], key: str) -> float:
    try:
        return _finite_float(meta[key])
    except ValueError as exc:
        raise DataError(f"{path}: '#{key}=' must be a finite number, got {meta[key]!r}") from exc


def parse_features(path) -> UtteranceFeatures:
    """Parse a feature CSV: ``#key=value`` metadata (only ``#utterance_id=`` is read), header, rows."""
    meta, header, lines = _read_csv_lines(path)
    frames = _parse_matrix(path, header, lines)
    return UtteranceFeatures(meta.get("utterance_id", Path(path).stem), frames)


def parse_annotations(path, value_range: tuple[float, float]) -> AnnotationSet:
    """Parse an annotation CSV: ``#period_s=<float>`` metadata row, one column per annotator."""
    meta, header, lines = _read_csv_lines(path)
    if "period_s" not in meta:
        raise DataError(f"{path}: missing '#period_s=' metadata row")
    values = _parse_matrix(path, header, lines)
    return AnnotationSet(
        utterance_id=meta.get("utterance_id", Path(path).stem),
        values=values.T.copy(),
        period_s=_meta_float(path, meta, "period_s"),
        value_range=(float(value_range[0]), float(value_range[1])),
    )


# ---------------------------------------------------------------------------
# Label CSV I/O (consensus outputs and predictions)
# ---------------------------------------------------------------------------


def write_aol_csv(seq: AolSequence, path) -> None:
    write_csv(path, ["aol"], ([int(v)] for v in seq.labels), utterance_id=seq.utterance_id)


def read_aol_csv(path) -> AolSequence:
    meta, header, lines = _read_csv_lines(path)
    if header != ["aol"]:
        raise DataError(f"{path}: expected single 'aol' column")
    _check_row_widths(path, lines, 1)
    try:
        labels = np.array([int(line.strip()) for line in lines])
    except ValueError as exc:
        raise DataError(f"{path}: non-integer label: {exc}") from exc
    return AolSequence(meta.get("utterance_id", Path(path).stem), labels)


def write_rol_csv(seq: RolSequence, path) -> None:
    rows = zip(seq.ranks.astype(float), seq.normalized)
    write_csv(path, ["rank", "normalized"], rows, utterance_id=seq.utterance_id)


def read_rol_csv(path) -> RolSequence:
    """Read a ``rank,normalized`` file; a ``normalized`` cell other than its rank's exact value raises."""
    meta, header, lines = _read_csv_lines(path)
    if header != ["rank", "normalized"]:
        raise DataError(f"{path}: expected 'rank,normalized' columns")
    values = _parse_matrix(path, header, lines)
    rol = RolSequence(meta.get("utterance_id", Path(path).stem), values[:, 0])
    wrong = np.flatnonzero(values[:, 1] != rol.normalized)
    if wrong.size:
        r = wrong[0]
        raise DataError(f"{path}: row {r + 1} has normalized {values[r, 1]} but rank {values[r, 0]}")
    return rol


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _json_string(obj: dict, key: str) -> str:
    """``obj[key]``, which must be a JSON string."""
    value = obj[key]
    if type(value) is not str:
        raise DataError(f"{key} must be a JSON string, got {value!r}")
    return value


def load_manifest(path) -> DatasetManifest:
    """Load and validate a dataset manifest, its preprocessing and thresholds included.

    Referenced files are checked when they are actually opened, not here, so
    that training never has to touch (or even see) held-out split files.
    Ids name label files and tags name ``fold_<tag>`` directories, so each must
    be a plain file name: not empty, ``.`` or ``..``, and free of ``/``, ``\\`` and NUL.
    No tag may be ``all``, the split that selects every utterance. Every error
    names the manifest file.
    """
    path = Path(path)
    raw = read_json(path, "manifest")
    try:
        base = path.parent
        entries = []
        seen_ids: set[str] = set()
        for item in raw["utterances"]:
            uid, split = _json_string(item, "utterance_id"), _json_string(item, "split")
            for what, name in (("utterance id", uid), ("split tag", split)):
                if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
                    raise DataError(f"{what} {name!r} is not a plain file name")
            if split == "all":
                raise DataError("split tag 'all' is reserved for every utterance")
            if uid in seen_ids:
                raise DataError(f"duplicate utterance id {uid!r}")
            seen_ids.add(uid)
            entries.append(
                ManifestEntry(
                    utterance_id=uid,
                    features_path=base / _json_string(item, "features"),
                    annotations_path=base / _json_string(item, "annotations"),
                    split=split,
                )
            )
        if not entries:
            raise DataError("manifest declares no utterances")
        bounds = raw["value_range"]
        if not (type(bounds) is list and len(bounds) == 2 and all(map(is_finite_number, bounds))):
            raise DataError(f"value_range must be two finite numbers, got {bounds!r}")
        lo, hi = map(float, bounds)
        if not lo < hi:
            raise DataError(f"value_range [{lo}, {hi}] must have low < high")
        manifest = DatasetManifest(
            dataset_name=_json_string(raw, "dataset_name"),
            dimension_name=_json_string(raw, "dimension_name"),
            value_range=(lo, hi),
            preprocessing=Preprocessing.from_dict(raw["preprocessing"]),
            thresholds=ThresholdConfig.from_dict(raw["thresholds"]),
            utterances=tuple(entries),
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc!r}") from exc
    return manifest
