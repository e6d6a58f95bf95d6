import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from domm.bundle import FORMAT_VERSION, load_model_bundle
from domm.cli import main
from domm.core import load_manifest, parse_features, read_aol_csv
from domm.omsvm import state_posteriors
from domm.synth import SynthConfig, generate_corpus, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(
        n_utterances=6,
        frames_per_utterance=90,
        feature_dim=6,
        n_annotators=4,
        latent_smoothness=0.95,
        annotator_noise_std=0.05,
        annotator_bias_std=0.02,
        feature_noise_std=0.4,
        seed=11,
    )
    write_corpus(generate_corpus(cfg), root, thresholds=(-0.215, 0.215))
    return root


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def relocatable_manifest(corpus_dir) -> dict:
    """The corpus manifest with absolute file paths, to be written anywhere."""
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    for entry in manifest["utterances"]:
        entry["features"] = str(corpus_dir / entry["features"])
        entry["annotations"] = str(corpus_dir / entry["annotations"])
    return manifest


def convert(corpus_dir, out):
    result = run_cli("convert", "--manifest", corpus_dir / "manifest.json", "--out", out)
    assert result.exit_code == 0, result.output
    return out


class TestConvert:
    def test_writes_label_files_per_utterance(self, corpus_dir, tmp_path):
        out = convert(corpus_dir, tmp_path / "labels")
        aols = sorted(p.name for p in out.glob("*.aol.csv"))
        rols = sorted(p.name for p in out.glob("*.rol.csv"))
        assert len(aols) == len(rols) == 6
        seq = read_aol_csv(out / aols[0])
        assert len(seq) == 90

    def test_missing_annotation_file_exits_2_naming_it(self, corpus_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["utterances"][0]["annotations"] = "annotations/gone.csv"
        (broken / "manifest.json").write_text(json.dumps(manifest))
        for sub in ("features", "annotations"):
            (broken / sub).mkdir()
            for src in (corpus_dir / sub).glob("*.csv"):
                (broken / sub / src.name).write_bytes(src.read_bytes())
        result = run_cli("convert", "--manifest", broken / "manifest.json", "--out", tmp_path / "o")
        assert result.exit_code == 2
        assert "gone.csv" in result.output

    @pytest.mark.parametrize("eps", ["-0.5", "nan"])
    def test_bad_eps_tie_exits_2_writing_nothing(self, corpus_dir, tmp_path, eps):
        out = tmp_path / "o"
        result = run_cli(
            "convert", "--manifest", corpus_dir / "manifest.json", "--out", out, "--eps-tie", eps
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:") and "eps_tie" in result.output
        assert not out.exists()

    def test_non_utf8_inputs_exit_2(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe{}\n")
        manifest = relocatable_manifest(corpus_dir)
        manifest["utterances"][0]["features"] = str(bad)
        bad_features = tmp_path / "manifest.json"
        bad_features.write_text(json.dumps(manifest))
        labels = convert(corpus_dir, tmp_path / "labels")
        for args in (
            ("convert", "--manifest", bad, "--out", tmp_path / "o1"),
            ("synth", "--config", bad, "--out", tmp_path / "o2"),
            ("train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
             "--config", bad, "--out", tmp_path / "o3"),
            ("train", "--manifest", bad_features, "--labels", labels, "--out", tmp_path / "o4"),
        ):
            result = run_cli(*args)
            assert result.exit_code == 2, (args, result.output)
            assert result.output.startswith("error:") and str(bad) in result.output

    @pytest.mark.parametrize("thresholds", [{"theta2": 0.2}, {"theta1": "x", "theta2": 0.2}])
    def test_malformed_thresholds_exit_2(self, corpus_dir, tmp_path, thresholds):
        manifest = relocatable_manifest(corpus_dir)
        manifest["thresholds"] = thresholds
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        result = run_cli("convert", "--manifest", path, "--out", tmp_path / "o")
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:") and "ThresholdConfig" in result.output

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        a = convert(corpus_dir, tmp_path / "a")
        b = convert(corpus_dir, tmp_path / "b")
        assert tree_bytes(a) == tree_bytes(b)


class TestTrain:
    def test_variant_bundle_composition(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        for variant, has_ranker, has_transitions in (
            ("domm-rs", True, True),
            ("domm-gt", False, True),
            ("omsvm-only", False, False),
        ):
            out = tmp_path / variant
            result = run_cli(
                "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
                "--out", out, "--variant", variant, "--seed", 3,
            )
            assert result.exit_code == 0, result.output
            bundle = load_model_bundle(out / "model.json")
            assert (bundle.ranker is not None) == has_ranker
            assert (bundle.transitions is not None) == has_transitions

    def test_same_seed_same_bytes(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        blobs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            result = run_cli(
                "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
                "--out", out, "--seed", 5,
            )
            assert result.exit_code == 0, result.output
            blobs.append((out / "model.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_bundle_round_trips_byte_identically(self, corpus_dir, tmp_path):
        from domm.bundle import save_model_bundle

        labels = convert(corpus_dir, tmp_path / "labels")
        out = tmp_path / "train"
        run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
            "--out", out, "--seed", 5,
        )
        original = (out / "model.json").read_bytes()
        bundle = load_model_bundle(out / "model.json")
        save_model_bundle(bundle, out / "model2.json")
        assert (out / "model2.json").read_bytes() == original

    def test_bundle_version_guard(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        out = tmp_path / "train"
        run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels, "--out", out,
        )
        raw = json.loads((out / "model.json").read_text())
        raw["format_version"] = FORMAT_VERSION + 1
        (out / "model.json").write_text(json.dumps(raw))
        from domm.core import DataError

        with pytest.raises(DataError, match="format_version"):
            load_model_bundle(out / "model.json")

    def test_mistyped_bundle_keys_raise_data_error(self, corpus_dir, tmp_path):
        from domm.core import DataError

        labels = convert(corpus_dir, tmp_path / "labels")
        out = tmp_path / "train"
        run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels, "--out", out,
        )
        original = (out / "model.json").read_text()
        for mutate, part in (
            (lambda raw: raw["transitions"].update(use_normalized_ranks="false"), "use_normalized_ranks"),
            (lambda raw: raw["omsvm"]["stages"][0]["platt"].update(a="x"), "PlattCalibration"),
            (lambda raw: raw["ranksvm"].update(mean=[0.0]), "LinearModel"),
            (lambda raw: raw["transitions"]["marginal_kdes"].pop(), "transition model"),
            (lambda raw: raw.pop("class_counts"), "class_counts"),
        ):
            raw = json.loads(original)
            mutate(raw)
            (out / "model.json").write_text(json.dumps(raw))
            with pytest.raises(DataError, match=part):
                load_model_bundle(out / "model.json")

    @pytest.mark.parametrize(
        "config",
        [
            {"bandwidth": "wide"},
            {"svm_c": "x"},
            # a config written before denominator_mode was removed
            {"denominator_mode": "marginalized"},
        ],
        ids=["bandwidth", "svm_c", "denominator_mode"],
    )
    def test_bad_config_exits_2(self, corpus_dir, tmp_path, config):
        labels = convert(corpus_dir, tmp_path / "labels")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        result = run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
            "--out", tmp_path / "train", "--config", cfg_path,
        )
        assert result.exit_code == 2, result.output
        [key] = config
        assert result.output.startswith("error:") and key in result.output
        assert not (tmp_path / "train" / "model.json").exists()

    def test_no_leakage_from_test_split(self, tmp_path):
        cfg = SynthConfig(
            n_utterances=4, frames_per_utterance=60, feature_dim=4, n_annotators=3, seed=29
        )
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(cfg), corpus)
        labels = convert(corpus, tmp_path / "labels")
        out1 = tmp_path / "before"
        result = run_cli(
            "train", "--manifest", corpus / "manifest.json", "--labels", labels,
            "--out", out1, "--seed", 1,
        )
        assert result.exit_code == 0, result.output
        manifest = load_manifest(corpus / "manifest.json")
        for entry in manifest.split_entries("test"):
            entry.features_path.unlink()
            entry.annotations_path.unlink()
        out2 = tmp_path / "after"
        result = run_cli(
            "train", "--manifest", corpus / "manifest.json", "--labels", labels,
            "--out", out2, "--seed", 1,
        )
        assert result.exit_code == 0, result.output
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()


class TestDecode:
    def test_omsvm_only_equals_framewise_argmax(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        train_out = tmp_path / "train"
        run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
            "--out", train_out, "--variant", "omsvm-only",
        )
        pred = tmp_path / "pred"
        result = run_cli(
            "decode", "--bundle", train_out / "model.json",
            "--manifest", corpus_dir / "manifest.json", "--out", pred,
        )
        assert result.exit_code == 0, result.output
        bundle = load_model_bundle(train_out / "model.json")
        manifest = load_manifest(corpus_dir / "manifest.json")
        for entry in manifest.split_entries("test"):
            frames = parse_features(entry.features_path).frames
            expected = np.argmax(state_posteriors(bundle.omsvm, frames), axis=1)
            got = read_aol_csv(pred / f"{entry.utterance_id}.aol.csv").labels
            np.testing.assert_array_equal(got, expected)
        assert not list(pred.glob("*.rol.csv"))

    def test_domm_gt_on_noiseless_corpus_recovers_consensus(self, tmp_path):
        # Calibration smoothing caps posterior certainty near label boundaries and
        # a rank difference says how far the rank moved, not which side of a
        # threshold it landed on, so a few frames per class change stay contested;
        # 0.95 is the honestly reachable agreement level for this seeded corpus.
        cfg = SynthConfig(
            n_utterances=8, frames_per_utterance=300, feature_dim=1, n_annotators=3,
            latent_smoothness=0.995, annotator_noise_std=0.0, annotator_bias_std=0.0,
            feature_noise_std=0.0, seed=31,
        )
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(cfg), corpus)
        labels = convert(corpus, tmp_path / "labels")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"variant": "domm-gt", "svm_c": 1.0}')
        train_out = tmp_path / "train"
        result = run_cli(
            "train", "--manifest", corpus / "manifest.json", "--labels", labels,
            "--out", train_out, "--config", cfg_path,
        )
        assert result.exit_code == 0, result.output
        pred = tmp_path / "pred"
        result = run_cli(
            "decode", "--bundle", train_out / "model.json", "--manifest", corpus / "manifest.json",
            "--labels", labels, "--out", pred, "--config", cfg_path,
        )
        assert result.exit_code == 0, result.output
        manifest = load_manifest(corpus / "manifest.json")
        agree, total = 0, 0
        for entry in manifest.split_entries("test"):
            truth = read_aol_csv(tmp_path / "labels" / f"{entry.utterance_id}.aol.csv").labels
            got = read_aol_csv(pred / f"{entry.utterance_id}.aol.csv").labels
            agree += int(np.sum(truth == got))
            total += truth.size
        assert agree / total >= 0.95

    def test_domm_gt_without_labels_exits_2(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        train_out = tmp_path / "train"
        run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
            "--out", train_out, "--variant", "domm-gt",
        )
        result = run_cli(
            "decode", "--bundle", train_out / "model.json",
            "--manifest", corpus_dir / "manifest.json", "--out", tmp_path / "pred",
        )
        assert result.exit_code == 2
        assert "ground-truth" in result.output

    @pytest.mark.parametrize(
        "bundle",
        [{"format_version": FORMAT_VERSION}, {"format_version": 1}],
        ids=["keys-missing", "stale-version"],
    )
    def test_malformed_bundle_exits_2(self, corpus_dir, tmp_path, bundle):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(bundle))
        result = run_cli(
            "decode", "--bundle", path, "--manifest", corpus_dir / "manifest.json",
            "--out", tmp_path / "pred",
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:")

    def test_empty_split_exits_2(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        train_out = tmp_path / "train"
        run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
            "--out", train_out, "--variant", "omsvm-only",
        )
        result = run_cli(
            "decode", "--bundle", train_out / "model.json",
            "--manifest", corpus_dir / "manifest.json", "--out", tmp_path / "pred",
            "--split", "nosuch",
        )
        assert result.exit_code == 2


class TestEval:
    def test_perfect_predictions_score_perfectly(self, tmp_path):
        # noiseless corpus: consensus ranks are tie-free, so self-tau is exactly 1
        # (the fixed-denominator tau never reaches 1 on tied rankings)
        cfg = SynthConfig(
            n_utterances=4, frames_per_utterance=80, feature_dim=3, n_annotators=3,
            latent_smoothness=0.9, annotator_noise_std=0.0, annotator_bias_std=0.0,
            annotation_scale=0.25, seed=19,
        )
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(cfg), corpus, thresholds=(-0.11, 0.11))
        labels = convert(corpus, tmp_path / "labels")
        # use the truth files themselves as predictions
        result = run_cli(
            "eval", "--manifest", corpus / "manifest.json", "--pred", labels,
            "--labels", labels, "--out", tmp_path / "report", "--seed", 9,
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        [fold] = report["folds"]
        assert fold["uar"] == 100.0
        assert fold["kappa"] == 1.0
        assert fold["tau_mean"] == 1.0
        assert all(v == 1.0 for v in fold["p_at_k"].values())
        assert report["seed"] == 9
        assert report["config_hash"]
        assert (tmp_path / "report" / "report.csv").exists()

    def test_missing_prediction_exits_2(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        empty = tmp_path / "empty"
        empty.mkdir()
        result = run_cli(
            "eval", "--manifest", corpus_dir / "manifest.json", "--pred", empty,
            "--labels", labels, "--out", tmp_path / "report",
        )
        assert result.exit_code == 2


class TestXval:
    def test_two_fold_report_and_determinism(self, corpus_dir, tmp_path):
        outs = []
        for name in ("x1", "x2"):
            out = tmp_path / name
            result = run_cli(
                "xval", "--manifest", corpus_dir / "manifest.json", "--out", out, "--seed", 13,
            )
            assert result.exit_code == 0, result.output
            outs.append(out)
        report = json.loads((outs[0] / "report.json").read_text())
        assert {f["fold"] for f in report["folds"]} == {"train", "test"}
        assert report["aggregate"]["n_folds"] == 2
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()

    def test_fold_with_missing_class_is_skipped_and_flagged(self, tmp_path):
        from domm.experiment import ExperimentConfig, run_xval

        rng = np.random.default_rng(43)

        def write_utterance(uid, values):
            values = np.asarray(values)
            feats = "\n".join(
                [f"#utterance_id={uid}", "f0"] + [repr(float(v)) for v in values * 2.0]
            )
            (tmp_path / f"{uid}.features.csv").write_text(feats + "\n")
            ann = "\n".join(
                [f"#utterance_id={uid}", "#period_s=1.0", "r0"] + [repr(float(v)) for v in values]
            )
            (tmp_path / f"{uid}.ann.csv").write_text(ann + "\n")

        spread = lambda: np.concatenate(
            [rng.uniform(-0.9, -0.6, 10), rng.uniform(-0.2, 0.2, 10), rng.uniform(0.6, 0.9, 10)]
        )
        write_utterance("a", rng.permutation(spread()))
        write_utterance("b", rng.permutation(spread()))
        # no High frames at all: evaluating this fold has no High recall
        write_utterance("c", rng.uniform(-0.9, 0.2, 30))
        manifest = {
            "dataset_name": "toy",
            "dimension_name": "arousal",
            "value_range": [-2.0, 2.0],
            "preprocessing": {"delay_s": 0.0, "window_s": 1.0, "overlap": 0.0},
            "thresholds": {"theta1": -0.5, "theta2": 0.5, "boundary_mode": "text-rule"},
            "utterances": [
                {"utterance_id": u, "features": f"{u}.features.csv",
                 "annotations": f"{u}.ann.csv", "split": f"f_{u}"}
                for u in ("a", "b", "c")
            ],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        report = run_xval(load_manifest(path), ExperimentConfig(variant="omsvm-only", svm_c=1.0))
        by_fold = {f["fold"]: f for f in report["folds"]}
        assert by_fold["f_c"]["skipped"] and "class" in by_fold["f_c"]["reason"]
        assert not by_fold["f_a"]["skipped"]
        assert report["aggregate"]["n_skipped"] == 1

    def test_duplicate_utterance_id_fails_before_training(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["utterances"].append(dict(manifest["utterances"][0]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        result = run_cli("xval", "--manifest", bad, "--out", tmp_path / "out")
        assert result.exit_code == 2
        assert "duplicate" in result.output


class TestSweepAndSynth:
    def test_sweep_seven_rows(self, corpus_dir, tmp_path):
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep", "--manifest", corpus_dir / "manifest.json", "--out", out,
            "--theta2-min", 0.08, "--theta2-max", 0.2, "--theta2-step", 0.02,
        )
        assert result.exit_code == 0, result.output
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "theta2,gamma_mean,agreement"
        assert len(lines) == 8
        for line in lines[1:]:
            _, gamma, agreement = map(float, line.split(","))
            assert 0 <= gamma <= 1 and 0 <= agreement <= 1

    @pytest.mark.parametrize("step", ["0", "1e-12"])
    def test_bad_sweep_step_exits_2(self, corpus_dir, tmp_path, step):
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep", "--manifest", corpus_dir / "manifest.json", "--out", out, "--theta2-step", step
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:") and not out.exists()

    @pytest.mark.parametrize(
        "args, config",
        [(["--seed", "-1"], None), ([], {"seed": 1.5}), (["--seed", "3"], [1, 2])],
        ids=["negative-seed", "float-seed", "list-config"],
    )
    def test_bad_synth_input_exits_2(self, tmp_path, args, config):
        if config is not None:
            (tmp_path / "synth.json").write_text(json.dumps(config))
            args = [*args, "--config", tmp_path / "synth.json"]
        out = tmp_path / "synthetic"
        result = run_cli("synth", "--out", out, *args)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:") and not out.exists()

    def test_synth_command_round_trip(self, tmp_path):
        out = tmp_path / "synthetic"
        result = run_cli("synth", "--out", out, "--seed", 77, "--utterances", 4, "--frames", 30)
        assert result.exit_code == 0, result.output
        manifest = load_manifest(out / "manifest.json")
        assert len(manifest.utterances) == 4
        assert (out / "latent.csv").exists()
        assert (out / "run.json").exists()


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, domm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
