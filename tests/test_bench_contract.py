"""The benchmark's tracer still finds and counts what the pipeline runs.

``bench/tracing.py`` wraps the functions it times by name and reads work
counts off their arguments and results. A rename or a changed model field
in the package breaks ``bench.py --trace 1`` without failing any other
test; this one runs the traced round trip in-process and fails instead.
"""

import json
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import domm.cli  # noqa: F401 - every domm module must be loaded before the tracer patches bindings
from domm import synth
from domm.cli import main
from domm.core import load_manifest
from domm.experiment import convert_labels

ROOT = Path(__file__).resolve().parents[1]
# per-layer metrics that bench.py measures itself rather than reading off a traced pass
MEASURED_BY_BENCH = {"cli.import_s", "synth.generate_s", "synth.write_s", "trace.overhead_ratio"}


def test_traced_round_trip_feeds_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    cfg = synth.SynthConfig(n_utterances=4, frames_per_utterance=40, feature_dim=3, n_annotators=3, seed=3)
    chain = (
        ("convert", "--manifest", "manifest.json", "--out", "labels"),
        ("train", "--manifest", "manifest.json", "--labels", "labels", "--out", "model",
         "--variant", "domm-rs"),
        ("decode", "--bundle", "model/model.json", "--manifest", "manifest.json",
         "--labels", "labels", "--out", "pred", "--split", "test"),
        ("eval", "--manifest", "manifest.json", "--pred", "pred", "--labels", "labels",
         "--out", "report", "--split", "test"),
    )
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(0):
        # through the module, as bench.py calls it, so the patched bindings are the ones called
        synth.write_corpus(synth.generate_corpus(cfg), tmp_path)
        for args in chain:
            result = CliRunner().invoke(main, list(args))
            assert result.exit_code == 0, (args[0], result.output)
    spans, counts = tracer.take(0)

    assert {"synth.generate_corpus", "synth.write_corpus"} <= {s.name for s in spans}
    metrics = tracing.layer_metrics(spans, counts)
    assert set(metrics) == declared - MEASURED_BY_BENCH
    assert [name for name, value in metrics.items() if not value > 0] == []


def test_bench_xval_check_agrees_with_xval_under_a_manifest_eps_tie(tmp_path, monkeypatch):
    """``checks.check_xval`` rebuilds the truth from the manifest alone, as ``xval`` does.

    So a tie tolerance set in the manifest reaches both, and the recomputed
    tau of every fold matches the reported one.
    """
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import checks

    cfg = synth.SynthConfig(n_utterances=6, frames_per_utterance=80, feature_dim=4, n_annotators=4, seed=5)
    manifest_path = synth.write_corpus(synth.generate_corpus(cfg), tmp_path)
    raw = json.loads(manifest_path.read_text())
    for i, entry in enumerate(raw["utterances"]):
        entry["split"] = f"f{i % 3}"
    for name, eps_tie in (("at_zero.json", 0.0), ("manifest.json", 0.05)):
        raw["preprocessing"]["eps_tie"] = eps_tie
        (tmp_path / name).write_text(json.dumps(raw))
    at_eps = convert_labels(load_manifest(manifest_path))
    at_zero = convert_labels(load_manifest(tmp_path / "at_zero.json"))
    # the tolerance changes the truth, so a check still at 0.0 would disagree
    assert any(not np.array_equal(at_eps[uid][1].ranks, at_zero[uid][1].ranks) for uid in at_eps)

    args = ["xval", "--manifest", str(manifest_path), "--out", str(tmp_path / "xval"), "--variant", "domm-rs"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    problems: list[str] = []
    assert checks.check_xval(tmp_path, 3, problems) is not None
    assert problems == []
