"""Benchmark of the domm CLI pipeline, end to end and layer by layer.

    python3 bench/bench.py --workload paper-roundtrip --seed 1 --seconds 20 --trace 0
    python3 bench/bench.py --list

A run sets up the workload's corpora with ``domm.synth``: a reference
corpus with a fixed seed and ``Workload.corpora`` corpora derived from
``--seed``. It runs the workload's command chain once untimed on the
reference corpus as a warm-up, then repeats the chain on the seeded corpora,
cycling over them, until the timed commands have taken ``--seconds``
seconds and every seeded corpus has run at least once. Every
command is a child process ``python -m domm.cli`` run with
``PYTHONPATH=src`` from this checkout, one at a time, with BLAS threads
capped at 1. Its wall time and ``ru_maxrss`` come from ``os.wait4``.

With ``--trace 1`` the same commands run in-process through click instead,
alternating an untraced pass with a traced one on the same corpus; the
traced pass reports per-layer busy times and work counts (see tracing.py)
and the pair gives the tracing overhead.

Every pass is checked: each command exits 0, decode writes one label per
feature frame for every test utterance, UAR/kappa/tau recomputed from the
label files match the report, and a rerun on a corpus reproduces the sha256
of every output file of its first run.

UAR, kappa and tau are those of the reference corpus. They are exact
functions of the code, so a change that alters results shows in them
however small the bound. On seeded corpora they vary from seed to seed by
5-15% (interquartile range over median, even averaged over four to six
corpora), which would swamp such a change; each seeded corpus's quality is
still kept in result.json.

The last line of stdout is one JSON object; a fuller record (per-command
walls, output hashes, environment) goes to
``.bench_work/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
REFERENCE_SEED = 0
# re-check a claim on this seed when the change was written against the default
HELD_OUT_SEED = 7

BLAS_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
COMMAND_TIMEOUT_S = 60.0
# no pass starts later than this after --seconds, so a run ends inside its time limit
RUN_SLACK_S = 120.0
IMPORT_PROBES = 5
XVAL_FOLDS = 6


@dataclass(frozen=True)
class Workload:
    utterances: int
    frames: int
    dims: int
    # seeded corpora per run, cycled by the timed passes
    corpora: int
    chain: str


WORKLOADS = {
    "paper-roundtrip": Workload(18, 615, 10, 3, "roundtrip"),
    "long-roundtrip": Workload(6, 3000, 10, 3, "roundtrip"),
    "xval-wide": Workload(18, 615, 32, 3, "xval"),
}

CHAINS = {
    "roundtrip": (
        ("convert", "--manifest", "manifest.json", "--out", "labels"),
        ("train", "--manifest", "manifest.json", "--labels", "labels", "--out", "model",
         "--variant", "domm-rs", "--seed", "{seed}"),
        ("decode", "--bundle", "model/model.json", "--manifest", "manifest.json",
         "--labels", "labels", "--out", "pred", "--split", "test"),
        ("eval", "--manifest", "manifest.json", "--pred", "pred", "--labels", "labels",
         "--out", "report", "--split", "test"),
    ),
    "xval": (
        ("xval", "--manifest", "manifest.json", "--out", "xval", "--seed", "{seed}",
         "--variant", "domm-rs"),
    ),
}
OUTPUT_DIRS = {"roundtrip": ("labels", "model", "pred", "report"), "xval": ("xval",)}
# per-command walls kept in result.json; the reported end-to-end time is their sum, pipeline_s
RECORDED = {
    "roundtrip": ("convert_s", "train_s", "decode_s", "eval_s", "roundtrip_s"),
    "xval": ("xval_s",),
}


@dataclass
class Corpus:
    index: int
    seed: int
    path: Path
    test_ids: tuple[str, ...]
    frames: dict[str, int]
    setup_s: float
    quality: tuple[float, float, float] | None = None
    hashes: dict[str, str] | None = None


class Run:
    """State of one benchmark run: corpora, counters, problems and the command log."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.dir = run_dir
        self.log = run_dir / "commands.log"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.corpora: list[Corpus] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self.measured_s = 0.0
        self.origin = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.origin

    def fail(self, *messages: str) -> None:
        """Count one failed command or check, with every problem it showed."""
        self.failed += 1
        self.problems.extend(messages)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Write the reference corpus (index 0) and the seeded corpora (1..corpora)."""
        import checks
        from domm import synth
        from domm.core import write_json

        w = self.workload
        for k in range(w.corpora + 1):
            seed = self.seed * 100 + k if k else REFERENCE_SEED
            path = self.dir / "corpora" / f"c{k}"
            start = time.perf_counter()
            cfg = synth.SynthConfig(
                n_utterances=w.utterances, frames_per_utterance=w.frames, feature_dim=w.dims, seed=seed
            )
            manifest_path = synth.write_corpus(synth.generate_corpus(cfg), path)
            if w.chain == "xval":
                manifest = json.loads(manifest_path.read_text())
                for i, entry in enumerate(manifest["utterances"]):
                    entry["split"] = f"f{i % XVAL_FOLDS}"
                write_json(manifest_path, manifest)
            setup_s = time.perf_counter() - start
            manifest = json.loads(manifest_path.read_text())
            test_ids = tuple(e["utterance_id"] for e in manifest["utterances"] if e["split"] == "test")
            frames = {
                uid: len(checks.data_rows(path / "features" / f"{uid}.csv")) for uid in test_ids
            }
            self.corpora.append(Corpus(k, seed, path, test_ids, frames, setup_s))

    # -- one pass of the command chain ---------------------------------------

    def _clear_outputs(self, corpus: Corpus) -> None:
        for sub in OUTPUT_DIRS[self.workload.chain]:
            shutil.rmtree(corpus.path / sub, ignore_errors=True)

    def _child(self, args: list[str], cwd: Path) -> tuple[int, float]:
        """Run ``python -m domm.cli <args>``; returns (exit code, wall seconds)."""
        with open(self.log, "ab") as log:
            log.write(f"$ domm {' '.join(args)}  (in {cwd.name})\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "domm.cli", *args],
                cwd=cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
            )
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, wall

    def _inprocess(self, args: list[str], cwd: Path) -> tuple[int, float]:
        """Run the same command through click in this process."""
        from domm.cli import main

        captured = io.StringIO()
        previous = os.getcwd()
        os.chdir(cwd)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                main.main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a failing command is counted, not fatal
            captured.write(traceback.format_exc())
            code = 1
        finally:
            wall = time.perf_counter() - start
            os.chdir(previous)
        with open(self.log, "a", encoding="utf-8") as log:
            log.write(f"$ domm {' '.join(args)}  (in-process, in {cwd.name})\n{captured.getvalue()}")
        return code, wall

    def chain(self, corpus: Corpus, in_process: bool) -> dict[str, float] | None:
        """Run the command chain on one corpus; returns per-command walls, None on failure."""
        self._clear_outputs(corpus)
        runner = self._inprocess if in_process else self._child
        walls = {}
        for template in CHAINS[self.workload.chain]:
            args = [a.format(seed=corpus.seed) for a in template]
            self.attempted += 1
            code, wall = runner(args, corpus.path)
            if code != 0:
                self.fail(f"corpus {corpus.index}: {args[0]} exited {code}")
                return None
            walls[f"{args[0]}_s"] = wall
        return walls

    def check(self, corpus: Corpus) -> None:
        """Check the chain's outputs; reruns must reproduce the first run's output bytes."""
        import checks

        hashes = checks.hash_tree(corpus.path, OUTPUT_DIRS[self.workload.chain])
        if corpus.hashes is not None:
            if hashes != corpus.hashes:
                changed = sorted(k for k in hashes.keys() | corpus.hashes.keys()
                                 if hashes.get(k) != corpus.hashes.get(k))
                self.fail(f"corpus {corpus.index}: rerun changed output bytes of {changed[:5]}")
            return
        problems: list[str] = []
        try:
            if self.workload.chain == "roundtrip":
                quality = checks.check_roundtrip(corpus.path, corpus.test_ids, corpus.frames, problems)
            else:
                quality = checks.check_xval(corpus.path, XVAL_FOLDS, problems)
        except Exception as exc:  # noqa: BLE001 - unreadable outputs fail the check
            problems.append(f"outputs could not be checked: {exc!r}")
            quality = None
        if problems:
            self.fail(*(f"corpus {corpus.index}: {message}" for message in problems))
        corpus.quality = quality
        corpus.hashes = hashes

    def warm_up(self, in_process: bool) -> None:
        """Untimed pass on the reference corpus, which also yields the quality metrics."""
        reference = self.corpora[0]
        if self.chain(reference, in_process) is not None:
            self.check(reference)

    def passes(self, seconds: float):
        """Yield seeded corpora, cycling, until ``measured_s`` reaches ``seconds`` and each ran."""
        seeded = self.corpora[1:]
        i = 0
        while i < len(seeded) or self.measured_s < seconds:
            if self.elapsed() > seconds + RUN_SLACK_S:
                self.fail(f"run deadline reached after {i} passes")
                return
            yield seeded[i % len(seeded)]
            i += 1

    def quality(self) -> dict[str, float]:
        reference = self.corpora[0].quality
        return {} if reference is None else dict(zip(("uar", "kappa", "tau"), reference))


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Timed child-process passes; returns (end-to-end metrics, recorded detail)."""
    run.setup()
    run.warm_up(in_process=False)
    run.peak_rss_mb = 0.0
    samples: dict[str, list[float]] = {}
    for corpus in run.passes(seconds):
        walls = run.chain(corpus, in_process=False)
        if walls is None:
            break
        walls["pipeline_s"] = sum(walls.values())
        run.measured_s += walls["pipeline_s"]
        if run.workload.chain == "roundtrip":
            walls["roundtrip_s"] = walls["pipeline_s"]
        for key, value in walls.items():
            samples.setdefault(key, []).append(value)
        run.check(corpus)
    metrics = {"setup_s": statistics.median(c.setup_s for c in run.corpora)}
    if samples:
        metrics["pipeline_s"] = statistics.median(samples["pipeline_s"])
        metrics["peak_rss_mb"] = run.peak_rss_mb
    metrics.update(run.quality())
    detail = {
        "samples": samples,
        "medians": {
            key: statistics.median(samples[key]) for key in RECORDED[run.workload.chain] if key in samples
        },
    }
    return metrics, detail


def import_seconds(run: Run) -> float:
    walls = []
    for _ in range(IMPORT_PROBES):
        run.attempted += 1
        code, wall = run._child(["--version"], run.dir)
        if code != 0:
            run.fail(f"domm --version exited {code}")
        walls.append(wall)
    return statistics.median(walls)


def trace(run: Run, seconds: float) -> tuple[dict, dict, "tracing.Tracer"]:
    """Alternate untraced and traced in-process passes; returns per-layer metrics."""
    import domm.cli  # noqa: F401 - every domm module must be loaded before bindings are patched
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(trace_id=0):
        run.setup()
    setup_spans, _ = tracer.take(0)
    synth_samples = {
        f"synth.{short}_s": statistics.median(
            s.end - s.start for s in setup_spans if s.name == f"synth.{name}"
        )
        for short, name in (("generate", "generate_corpus"), ("write", "write_corpus"))
    }
    cli_import_s = import_seconds(run)
    run.warm_up(in_process=True)
    layers, ratios = [], []
    for trace_id, corpus in enumerate(run.passes(seconds), start=1):
        plain = run.chain(corpus, in_process=True)
        if plain is None:
            break
        run.check(corpus)
        with tracer.installed(trace_id):
            traced = run.chain(corpus, in_process=True)
        spans, counts = tracer.take(trace_id)
        if traced is None:
            break
        run.check(corpus)
        run.measured_s += sum(plain.values()) + sum(traced.values())
        ratios.append(sum(traced.values()) / sum(plain.values()))
        layers.append(tracing.layer_metrics(spans, counts))
    metrics = {"cli.import_s": cli_import_s, **synth_samples}
    if layers:
        metrics.update(tracing.medians(layers))
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics, {"overhead_ratios": ratios}, tracer


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of this checkout, read from .git without leaving the checkout; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {sorted(names)} != harness workloads {sorted(WORKLOADS)}")
    return spec


def print_list(spec: dict) -> None:
    print(f"seeds: default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}")
    print("workloads:")
    for w in spec["workloads"]:
        p = WORKLOADS[w["name"]]
        print(
            f"  {w['name']}: {p.utterances} utterances x {p.frames} frames, D={p.dims}, "
            f"reference + {p.corpora} seeded corpora per run, {p.chain} - {w['why']}"
        )
    print("end-to-end metrics (--trace 0; every workload):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better, bound {m['bound']}")
    print("per-layer metrics (--trace 1; every workload):")
    for m in spec["per_layer"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better")
    print("recorded in result.json only:")
    for chain, names in RECORDED.items():
        users = [n for n, w in WORKLOADS.items() if w.chain == chain]
        for name in names:
            print(f"  {name} [s] lower is better ({', '.join(users)})")
    print("  error_rate [ratio] lower is better (all); also failed / attempted in the result line")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.list:
        print_list(spec)
        return 0
    if not (SRC / "domm" / "cli.py").is_file():
        print(f"error: no domm sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(workload, args.seed, run_dir)
    try:
        if args.trace:
            metrics, detail, tracer = trace(run, args.seconds)
            tracer.write(run_dir / "spans.json", run.origin)
            wanted = spec["per_layer"]
        else:
            metrics, detail = measure(run, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir / "corpora", ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        run.fail(f"no value for {missing}")
    result_metrics = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / max(run.attempted, 1),
        "problems": run.problems,
        "metrics": metrics,
        "corpora": [
            {"index": c.index, "seed": c.seed, "setup_s": c.setup_s, "quality": c.quality, "outputs": c.hashes}
            for c in run.corpora
        ],
        **detail,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for message in run.problems:
        print(f"problem: {message}")
    for key, value in detail.get("medians", {}).items():
        print(f"{key} {value} s")
    for name, entry in result_metrics.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(f"record {run_dir / 'result.json'}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
