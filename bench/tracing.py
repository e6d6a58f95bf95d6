"""Span tracer that instruments the domm modules from outside.

The modules import each other with ``from x import y``, so a function has
one name binding in its defining module and one in every module that
imported it. ``Tracer.installed()`` replaces every binding with a wrapper
that records a span (id, parent id, name, start, end) and the work counts
read off the call's arguments and result, and restores the bindings on exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

TARGETS = {
    "core": ("parse_features", "parse_annotations"),
    "labels": (
        "preprocess_annotations",
        "consensus_aol",
        "comparison_matrix",
        "qa_consensus",
        "ranks_from_consensus",
    ),
    "svm": ("newton_squared_hinge", "fit_platt"),
    "omsvm": ("train_omsvm", "state_posteriors"),
    "ranksvm": ("build_pairs", "train_ranksvm", "ranks_from_scores"),
    "transitions": ("fit_transition_model", "transition_matrices", "kde_density"),
    "decoder": ("viterbi_decode",),
    "metrics": ("kendall_tau", "precision_at_k", "uar", "weighted_kappa"),
    "bundle": ("save_model_bundle", "load_model_bundle"),
    "synth": ("generate_corpus", "write_corpus"),
    "experiment": ("convert_labels", "fit_bundle", "decode_entries", "evaluate_fold", "run_xval"),
}

# per-layer metric -> spans whose inclusive durations it sums
BUSY = {
    "core.parse_features_s": ("core.parse_features",),
    "core.parse_annotations_s": ("core.parse_annotations",),
    "labels.preprocess_s": ("labels.preprocess_annotations",),
    "labels.consensus_aol_s": ("labels.consensus_aol",),
    "labels.comparison_matrix_s": ("labels.comparison_matrix",),
    "labels.qa_consensus_s": ("labels.qa_consensus",),
    "labels.ranks_from_consensus_s": ("labels.ranks_from_consensus",),
    "svm.newton_s": ("svm.newton_squared_hinge",),
    "svm.platt_s": ("svm.fit_platt",),
    "omsvm.train_s": ("omsvm.train_omsvm",),
    "omsvm.state_posteriors_s": ("omsvm.state_posteriors",),
    "ranksvm.build_pairs_s": ("ranksvm.build_pairs",),
    "ranksvm.train_s": ("ranksvm.train_ranksvm",),
    "ranksvm.ranks_from_scores_s": ("ranksvm.ranks_from_scores",),
    "transitions.fit_s": ("transitions.fit_transition_model",),
    "transitions.matrices_s": ("transitions.transition_matrices",),
    "metrics.kendall_tau_s": ("metrics.kendall_tau",),
    "metrics.precision_at_k_s": ("metrics.precision_at_k",),
    "metrics.label_metrics_s": ("metrics.uar", "metrics.weighted_kappa"),
    "bundle.io_s": ("bundle.save_model_bundle", "bundle.load_model_bundle"),
    "experiment.convert_labels_s": ("experiment.convert_labels",),
    "experiment.fit_bundle_s": ("experiment.fit_bundle",),
    "experiment.decode_entries_s": ("experiment.decode_entries",),
    "experiment.evaluate_fold_s": ("experiment.evaluate_fold",),
}

# per-layer metric -> spans whose self time (duration minus child spans) it sums
SELF = {
    "decoder.viterbi_self_s": ("decoder.viterbi_decode",),
    "experiment.glue_s": tuple(f"experiment.{name}" for name in TARGETS["experiment"]),
}

CALLS = {
    "svm.newton_calls": "svm.newton_squared_hinge",
    "svm.platt_calls": "svm.fit_platt",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def _enumerated_pairs(rols) -> int:
    """Strictly ordered frame pairs per utterance: all pairs minus tied ones."""
    total = 0
    for rol in rols:
        n = rol.ranks.size
        _, ties = np.unique(rol.ranks, return_counts=True)
        total += n * (n - 1) // 2 - int(np.sum(ties * (ties - 1) // 2))
    return total


def _kde_samples(model) -> int:
    kdes = {id(k): k for row in model.conditional_kdes for k in row}
    kdes.update({id(k): k for k in model.marginal_kdes})
    return sum(k.samples.size for k in kdes.values())


# span name -> work counts read off (args, kwargs, result)
COUNTERS = {
    "core.parse_features": lambda a, kw, r: {"core.cells_parsed": r.frames.size},
    "core.parse_annotations": lambda a, kw, r: {"core.cells_parsed": r.values.size},
    "labels.comparison_matrix": lambda a, kw, r: {"labels.matrix_cells": r.size},
    "svm.newton_squared_hinge": lambda a, kw, r: {
        "svm.newton_rows": np.shape(_arg(a, kw, 0, "inputs"))[0]
    },
    "ranksvm.build_pairs": lambda a, kw, r: {
        "ranksvm.pairs_enumerated": _enumerated_pairs(_arg(a, kw, 0, "rols")),
        "ranksvm.pairs_kept": r.shape[0],
    },
    "transitions.fit_transition_model": lambda a, kw, r: {"transitions.kde_samples": _kde_samples(r)},
    "transitions.kde_density": lambda a, kw, r: {
        "transitions.kde_evals": np.size(_arg(a, kw, 1, "delta")) * _arg(a, kw, 0, "model").samples.size
    },
    "decoder.viterbi_decode": lambda a, kw, r: {"decoder.frames": _arg(a, kw, 0, "lattice").n_frames},
    "bundle.save_model_bundle": lambda a, kw, r: {"bundle.bytes": _file_bytes(_arg(a, kw, 1, "path"))},
    "bundle.load_model_bundle": lambda a, kw, r: {"bundle.bytes": _file_bytes(_arg(a, kw, 0, "path"))},
}


@dataclass(frozen=True)
class Span:
    trace: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self.trace_id, span_id, parent, name, start, end))
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, trace_id: int):
        """Record spans under ``trace_id`` while every traced binding is wrapped."""
        self.trace_id = trace_id
        modules = [m for n, m in list(sys.modules.items()) if n == "domm" or n.startswith("domm.")]
        for short, names in TARGETS.items():
            defining = sys.modules[f"domm.{short}"]
            for fname in names:
                fn = getattr(defining, fname)
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, fn))
                            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            while self._patches:
                module, attr, fn = self._patches.pop()
                setattr(module, attr, fn)

    def take(self, trace_id: int) -> tuple[list[Span], Counter]:
        """Spans and counts recorded under ``trace_id``; the counts are reset."""
        spans = [s for s in self.spans if s.trace == trace_id]
        counts, self.counts = self.counts, Counter()
        return spans, counts

    def write(self, path: Path, origin: float) -> None:
        """Write every span as JSON, times in seconds since ``origin``."""
        rows = [
            {**asdict(s), "start": s.start - origin, "end": s.end - origin} for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="ascii")


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer busy times, self times, call counts and work counts of one traced pass."""
    busy = defaultdict(float)
    calls = Counter()
    covered = defaultdict(float)
    for s in spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    own = defaultdict(float)
    for s in spans:
        own[s.name] += (s.end - s.start) - covered[s.id]

    out = {metric: sum(busy[n] for n in names) for metric, names in BUSY.items()}
    out.update({metric: sum(own[n] for n in names) for metric, names in SELF.items()})
    out.update({metric: calls[name] for metric, name in CALLS.items()})
    out.update(counts)
    out["ranksvm.pair_keep_ratio"] = counts["ranksvm.pairs_kept"] / counts["ranksvm.pairs_enumerated"]
    return out


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes; counts take the lower median and stay whole."""
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        whole = all(isinstance(v, (int, np.integer)) for v in values)
        out[key] = int(statistics.median_low(values)) if whole else statistics.median(values)
    return out
