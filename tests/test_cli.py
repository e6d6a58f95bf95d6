import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from domm.bundle import FORMAT_VERSION, load_model_bundle
from domm.cli import main
from domm.core import ThresholdConfig, load_manifest, parse_features, read_aol_csv
from domm.experiment import ExperimentConfig
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
    write_corpus(generate_corpus(cfg), root, thresholds=ThresholdConfig(-0.215, 0.215))
    return root


@pytest.fixture(scope="module")
def domm_rs_bundle(corpus_dir, tmp_path_factory):
    """A domm-rs bundle trained on the corpus's train split; tests read it, never write it."""
    root = tmp_path_factory.mktemp("domm_rs")
    labels = convert(corpus_dir, root / "labels")
    result = run_cli("train", "--manifest", corpus_dir / "manifest.json", "--labels", labels, "--out", root)
    assert result.exit_code == 0, result.output
    return root / "model.json"


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


def with_edited_file(corpus_dir, tmp_path, key, edit) -> Path:
    """A manifest whose first utterance's ``key`` file is an edited copy; returns its path."""
    manifest = relocatable_manifest(corpus_dir)
    entry = manifest["utterances"][0]
    edited = tmp_path / Path(entry[key]).name
    edited.write_text(edit(Path(entry[key]).read_text()))
    entry[key] = str(edited)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def assert_exit_2(result, *fragments):
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error:"), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    for fragment in fragments:
        assert fragment in result.output


def convert(corpus_dir, out):
    result = run_cli("convert", "--manifest", corpus_dir / "manifest.json", "--out", out)
    assert result.exit_code == 0, result.output
    return out


def csv_parts(text) -> tuple[list[str], list[str]]:
    """The ``#`` metadata lines and the other lines (header, then rows) of a CSV."""
    lines = text.splitlines()
    return [x for x in lines if x.startswith("#")], [x for x in lines if not x.startswith("#")]


def without_last_column(text):
    meta, body = csv_parts(text)
    return "\n".join(meta + [x.rsplit(",", 1)[0] for x in body]) + "\n"


def without_last_row(text):
    meta, body = csv_parts(text)
    return "\n".join(meta + body[:-1]) + "\n"


def first_row_only(text):
    meta, body = csv_parts(text)
    return "\n".join(meta + body[:2]) + "\n"


def first_cell_to_abc(text):
    meta, body = csv_parts(text)
    body[1] = "abc," + body[1].split(",", 1)[1]
    return "\n".join(meta + body) + "\n"


@pytest.fixture
def parsed_files(monkeypatch):
    """Names of the feature files the pipeline parses, one per call."""
    import domm.experiment

    names = []

    def counting(path):
        names.append(Path(path).name)
        return parse_features(path)

    monkeypatch.setattr(domm.experiment, "parse_features", counting)
    return names


def split_files(corpus_dir, split):
    return sorted(e.features_path.name for e in load_manifest(corpus_dir / "manifest.json").split_entries(split))


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

    @pytest.mark.parametrize("eps", [-0.5, "0.05", True], ids=["-0.5", "string", "bool"])
    def test_bad_eps_tie_exits_2_writing_nothing(self, corpus_dir, tmp_path, eps):
        manifest = relocatable_manifest(corpus_dir)
        manifest["preprocessing"]["eps_tie"] = eps
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "o"
        result = run_cli("convert", "--manifest", path, "--out", out)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:") and "eps_tie" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["convert", "train"])
    @pytest.mark.parametrize(
        "block, key", [("preprocessing", "overlap_s"), ("thresholds", "mode")], ids=["preprocessing", "thresholds"]
    )
    def test_unknown_manifest_key_exits_2(self, corpus_dir, tmp_path, command, block, key):
        """A misspelled key would otherwise leave its setting at the default without a word."""
        labels = convert(corpus_dir, tmp_path / "labels")
        manifest = relocatable_manifest(corpus_dir)
        manifest[block][key] = 0.5
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        extra = ("--labels", labels) if command == "train" else ()
        result = run_cli(command, "--manifest", path, *extra, "--out", tmp_path / "o")
        assert_exit_2(result, f"keys ['{key}']")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "block, key, value, fragment",
        [
            ("preprocessing", "overlap_s", 0.5, "unknown Preprocessing keys ['overlap_s']"),
            ("preprocessing", "eps_tie", -0.5, "Preprocessing eps_tie must be a number >= 0"),
            ("thresholds", "boundary_mode", "x", "ThresholdConfig boundary_mode must be one of"),
        ],
        ids=["unknown-key", "eps-tie", "boundary-mode"],
    )
    def test_manifest_block_errors_name_the_manifest(self, corpus_dir, tmp_path, block, key, value, fragment):
        manifest = relocatable_manifest(corpus_dir)
        manifest[block][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        result = run_cli("convert", "--manifest", path, "--out", tmp_path / "o")
        assert_exit_2(result, f"error: {path}: {fragment}")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command", ["convert", "train"])
    @pytest.mark.parametrize("thresholds", [{"theta2": 0.2}, {"theta1": "x", "theta2": 0.2}])
    def test_malformed_thresholds_exit_2(self, corpus_dir, tmp_path, thresholds, command):
        labels = convert(corpus_dir, tmp_path / "labels")
        manifest = relocatable_manifest(corpus_dir)
        manifest["thresholds"] = thresholds
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        extra = ("--labels", labels) if command == "train" else ()
        result = run_cli(command, "--manifest", path, *extra, "--out", tmp_path / "o")
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error:") and "theta1" in result.output

    def test_bad_period_metadata_exits_2(self, corpus_dir, tmp_path):
        manifest = with_edited_file(
            corpus_dir, tmp_path, "annotations", lambda text: text.replace("#period_s=", "#period_s=abc")
        )
        result = run_cli("convert", "--manifest", manifest, "--out", tmp_path / "o")
        assert_exit_2(result, "'#period_s=' must be a finite number")

    def test_nan_window_exits_2(self, corpus_dir, tmp_path):
        manifest = relocatable_manifest(corpus_dir)
        manifest["preprocessing"]["window_s"] = float("nan")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        result = run_cli("convert", "--manifest", path, "--out", tmp_path / "o")
        assert_exit_2(result, "non-finite number NaN")

    @pytest.mark.parametrize("key", ["delay_s", "window_s"])
    def test_huge_preprocessing_span_exits_2(self, corpus_dir, tmp_path, key):
        """1e308 s divided by the sampling period overflows to inf, which int() refused with OverflowError."""
        manifest = relocatable_manifest(corpus_dir)
        manifest["preprocessing"][key] = 1e308
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        result = run_cli("convert", "--manifest", path, "--out", tmp_path / "o")
        assert_exit_2(result, "spans more than the series")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["convert", "train"])
    @pytest.mark.parametrize(
        "key, value",
        [("delay_s", "0"), ("overlap", True), ("overlap", 1.0), ("window_s", 0.0)],
        ids=["string-delay", "bool-overlap", "overlap-1", "zero-window"],
    )
    def test_bad_preprocessing_exits_2(self, corpus_dir, tmp_path, command, key, value):
        labels = convert(corpus_dir, tmp_path / "labels")
        manifest = relocatable_manifest(corpus_dir)
        manifest["preprocessing"][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        extra = ("--labels", labels) if command == "train" else ()
        result = run_cli(command, "--manifest", path, *extra, "--out", tmp_path / "o")
        assert_exit_2(result, f"Preprocessing {key} must be")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("command", ["train", "xval"])
    def test_unknown_variant_exits_2(self, corpus_dir, tmp_path, command):
        labels = ("--labels", corpus_dir) if command == "train" else ()
        result = run_cli(
            command, "--manifest", corpus_dir / "manifest.json", *labels, "--out", tmp_path / "o", "--variant", "domm"
        )
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--variant'" in result.output
        assert "'omsvm-only', 'domm-rs', 'domm-gt'" in result.output
        assert not (tmp_path / "o").exists()

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
            (lambda raw: raw["standardization"].update(mean=[0.0]), "standardization"),
            (lambda raw: raw["ranksvm"].update(bias="0.5"), "LinearModel"),
            (lambda raw: raw["transitions"]["marginal_kdes"].pop(), "transition model"),
            (lambda raw: raw.pop("class_counts"), "class_counts"),
        ):
            raw = json.loads(original)
            mutate(raw)
            (out / "model.json").write_text(json.dumps(raw))
            with pytest.raises(DataError, match=part):
                load_model_bundle(out / "model.json")

    def test_wrong_normalized_ranks_exit_2_in_train_and_decode(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        manifest = corpus_dir / "manifest.json"
        model = tmp_path / "model"
        result = run_cli(
            "train", "--manifest", manifest, "--labels", labels, "--out", model, "--variant", "domm-gt"
        )
        assert result.exit_code == 0, result.output
        bad = tmp_path / "bad_labels"
        bad.mkdir()
        for path in sorted(labels.glob("*.csv")):
            text = path.read_text()
            if path.name.endswith(".rol.csv"):
                # the third data row's normalized cell halved: ranks stay a valid ranking
                lines = text.splitlines()
                rank, normalized = lines[4].split(",")
                lines[4] = f"{rank},{float(normalized) / 2!r}"
                text = "\n".join(lines) + "\n"
            (bad / path.name).write_text(text)
        for command, args in (
            ("train", ("--out", tmp_path / "t2", "--variant", "domm-gt")),
            ("decode", ("--bundle", model / "model.json", "--out", tmp_path / "pred")),
        ):
            result = run_cli(command, "--manifest", manifest, "--labels", bad, *args)
            assert_exit_2(result, "row 3 has normalized")
        assert not (tmp_path / "t2").exists() and not (tmp_path / "pred").exists()

    def test_mixed_feature_widths_exit_2_naming_both(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")

        def drop_last_column(text):
            lines = text.splitlines()
            return "\n".join(x if x.startswith("#") else x.rsplit(",", 1)[0] for x in lines) + "\n"

        manifest = with_edited_file(corpus_dir, tmp_path, "features", drop_last_column)
        first, second = [u["utterance_id"] for u in json.loads(manifest.read_text())["utterances"][:2]]
        result = run_cli("train", "--manifest", manifest, "--labels", labels, "--out", tmp_path / "m")
        assert_exit_2(result, f"{second!r} has 6 features", f"{first!r} has 5")

    def test_parses_each_training_feature_file_once(self, corpus_dir, tmp_path, parsed_files):
        labels = convert(corpus_dir, tmp_path / "labels")
        result = run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels, "--out", tmp_path / "m"
        )
        assert result.exit_code == 0, result.output
        assert sorted(parsed_files) == split_files(corpus_dir, "train")

    @pytest.mark.parametrize(
        "config",
        [
            {"bandwidth": "wide"},
            {"svm_c": "x"},
            # configs written before denominator_mode and pair_cap were removed
            {"denominator_mode": "marginalized"},
            {"pair_cap": 200000},
            # eps_tie moved to the manifest's preprocessing block
            {"eps_tie": 0.0},
        ],
        ids=["bandwidth", "svm_c", "denominator_mode", "pair_cap", "eps_tie"],
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
            expected = np.argmax(state_posteriors(bundle.omsvm, bundle.standardize(frames)), axis=1)
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

    @pytest.mark.parametrize("class_counts", [[0, 0, 0], [-5, 10, 3]], ids=["zeros", "negative"])
    def test_non_positive_class_counts_exit_2(self, corpus_dir, tmp_path, class_counts):
        labels = convert(corpus_dir, tmp_path / "labels")
        train_out = tmp_path / "train"
        run_cli(
            "train", "--manifest", corpus_dir / "manifest.json", "--labels", labels,
            "--out", train_out, "--variant", "omsvm-only",
        )
        raw = json.loads((train_out / "model.json").read_text())
        raw["class_counts"] = class_counts
        (train_out / "model.json").write_text(json.dumps(raw))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"divide_by_prior": true}')
        result = run_cli(
            "decode", "--bundle", train_out / "model.json", "--manifest", corpus_dir / "manifest.json",
            "--out", tmp_path / "pred", "--config", cfg_path,
        )
        assert_exit_2(result, "class_counts")
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw.update(format_version=str(FORMAT_VERSION)),
            lambda raw: raw.update(format_version=FORMAT_VERSION + 0.9),
            lambda raw: raw["ranksvm"].update(bias="0.5"),
            lambda raw: raw["ranksvm"].update(bias=True),
            lambda raw: raw["ranksvm"].update(weights=[str(w) for w in raw["ranksvm"]["weights"]]),
            lambda raw: raw["omsvm"]["stages"][0]["platt"].update(a="-1.0"),
            lambda raw: raw.update(class_counts=[2.7, 1, 1]),
            lambda raw: raw.update(class_counts=["3", 1, 1]),
            lambda raw: raw["transitions"]["conditional_kdes"][0][0].update(bandwidth="0.1"),
            lambda raw: raw["transitions"].update(
                prior=[[str(p) for p in row] for row in raw["transitions"]["prior"]]
            ),
        ],
        ids=[
            "version-string", "version-fraction", "bias-string", "bias-bool", "weights-strings",
            "platt-string", "counts-fraction", "counts-string", "bandwidth-string", "prior-strings",
        ],
    )
    def test_bundle_numbers_must_be_json_numbers(self, corpus_dir, tmp_path, domm_rs_bundle, edit):
        raw = json.loads(domm_rs_bundle.read_text())
        edit(raw)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        result = run_cli(
            "decode", "--bundle", path, "--manifest", corpus_dir / "manifest.json", "--out", tmp_path / "pred"
        )
        assert_exit_2(result, "expected JSON")
        assert not (tmp_path / "pred").exists()

    def test_non_string_config_hash_exits_2(self, corpus_dir, tmp_path, domm_rs_bundle):
        raw = json.loads(domm_rs_bundle.read_text())
        raw["provenance"]["config_hash"] = [1, 2]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        result = run_cli(
            "decode", "--bundle", path, "--manifest", corpus_dir / "manifest.json", "--out", tmp_path / "pred"
        )
        assert_exit_2(result, "config_hash must be a string")
        assert not (tmp_path / "pred").exists()

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

    def test_parses_each_test_feature_file_once(self, corpus_dir, tmp_path, parsed_files):
        labels = convert(corpus_dir, tmp_path / "labels")
        train_out = tmp_path / "train"
        run_cli("train", "--manifest", corpus_dir / "manifest.json", "--labels", labels, "--out", train_out)
        parsed_files.clear()
        result = run_cli(
            "decode", "--bundle", train_out / "model.json",
            "--manifest", corpus_dir / "manifest.json", "--out", tmp_path / "pred",
        )
        assert result.exit_code == 0, result.output
        assert sorted(parsed_files) == split_files(corpus_dir, "test")

    def test_features_of_another_width_exit_2_naming_the_dimension(
        self, corpus_dir, tmp_path, domm_rs_bundle
    ):
        manifest = relocatable_manifest(corpus_dir)
        for entry in manifest["utterances"]:
            narrow = tmp_path / Path(entry["features"]).name
            narrow.write_text(without_last_column(Path(entry["features"]).read_text()))
            entry["features"] = str(narrow)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        result = run_cli(
            "decode", "--bundle", domm_rs_bundle, "--manifest", tmp_path / "manifest.json",
            "--out", tmp_path / "pred",
        )
        assert_exit_2(result, "feature dimension 5 does not match model dimension 6")
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda block: block.update(mean=block["mean"][:-1], std=block["std"][:-1]),
            lambda block: block.update(std=block["std"][:-1]),
        ],
        ids=["both-shorter", "std-shorter"],
    )
    def test_standardization_of_another_length_exits_2(self, corpus_dir, tmp_path, domm_rs_bundle, edit):
        raw = json.loads(domm_rs_bundle.read_text())
        edit(raw["standardization"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        result = run_cli(
            "decode", "--bundle", path, "--manifest", corpus_dir / "manifest.json", "--out", tmp_path / "pred"
        )
        assert_exit_2(result, "standardization")
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_seed_option_is_gone(self, command):
        result = run_cli(command, "--seed", 1)
        assert result.exit_code == 2
        assert "No such option" in result.output and "--seed" in result.output


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
        write_corpus(generate_corpus(cfg), corpus, thresholds=ThresholdConfig(-0.11, 0.11))
        labels = convert(corpus, tmp_path / "labels")
        # use the truth files themselves as predictions
        result = run_cli(
            "eval", "--manifest", corpus / "manifest.json", "--pred", labels,
            "--labels", labels, "--out", tmp_path / "report",
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        [fold] = report["folds"]
        assert fold["uar"] == 100.0
        assert fold["kappa"] == 1.0
        assert fold["tau_mean"] == 1.0
        assert all(v == 1.0 for v in fold["p_at_k"].values())
        assert "config" not in report and "config_hash" not in report
        assert (tmp_path / "report" / "report.csv").exists()

    def test_one_frame_utterance_gets_no_rank_metrics(self, corpus_dir, tmp_path):
        manifest = relocatable_manifest(corpus_dir)
        entry = manifest["utterances"][-1]
        for key in ("features", "annotations"):
            short = tmp_path / f"{key}.csv"
            short.write_text(first_row_only(Path(entry[key]).read_text()))
            entry[key] = str(short)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        labels = convert(tmp_path, tmp_path / "labels")
        run_cli("train", "--manifest", path, "--labels", labels, "--out", tmp_path / "train")
        run_cli(
            "decode", "--bundle", tmp_path / "train" / "model.json", "--manifest", path,
            "--out", tmp_path / "pred",
        )
        result = run_cli(
            "eval", "--manifest", path, "--pred", tmp_path / "pred", "--labels", labels,
            "--out", tmp_path / "report",
        )
        assert result.exit_code == 0, result.output
        [fold] = json.loads((tmp_path / "report" / "report.json").read_text())["folds"]
        rows = {row["utterance_id"]: row for row in fold["per_utterance"]}
        assert rows.pop(entry["utterance_id"]) == {"utterance_id": entry["utterance_id"]}
        assert len(rows) == 2 and all("tau" in row for row in rows.values())
        assert fold["tau_mean"] == np.mean([row["tau"] for row in rows.values()])

    def test_prediction_row_with_extra_cells_exits_2(self, corpus_dir, tmp_path):
        labels = convert(corpus_dir, tmp_path / "labels")
        pred = tmp_path / "pred"
        pred.mkdir()
        for path in labels.glob("*.aol.csv"):
            (pred / path.name).write_text(path.read_text())
        first = sorted(pred.glob("*.aol.csv"))[0]
        meta, body = csv_parts(first.read_text())
        body[1] = "2,2,junk"
        first.write_text("\n".join(meta + body) + "\n")
        result = run_cli(
            "eval", "--manifest", corpus_dir / "manifest.json", "--pred", pred, "--split", "all",
            "--labels", labels, "--out", tmp_path / "report",
        )
        assert_exit_2(result, first.name, "row 1 has 3 cells, expected 1")
        assert not (tmp_path / "report" / "report.json").exists()

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

    def test_parses_each_feature_file_once(self, corpus_dir, tmp_path, parsed_files):
        result = run_cli("xval", "--manifest", corpus_dir / "manifest.json", "--out", tmp_path / "x")
        assert result.exit_code == 0, result.output
        assert sorted(parsed_files) == split_files(corpus_dir, "all")

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (first_cell_to_abc, "utt_000.csv: non-numeric value 'abc' at row 1"),
            (without_last_column, "'utt_001' has 6 features per frame but 'utt_000' has 5"),
            (without_last_row, "'utt_000': 89 feature frames but 90 labels"),
        ],
        ids=["non-numeric-cell", "mixed-widths", "frame-count-mismatch"],
    )
    def test_bad_features_exit_2(self, corpus_dir, tmp_path, edit, fragment):
        manifest = with_edited_file(corpus_dir, tmp_path, "features", edit)
        result = run_cli("xval", "--manifest", manifest, "--out", tmp_path / "out")
        assert_exit_2(result, fragment)

    def test_file_in_place_of_a_fold_directory_exits_2(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "fold_test").write_text("a file\n")
        result = run_cli("xval", "--manifest", corpus_dir / "manifest.json", "--out", out)
        assert_exit_2(result, f"cannot use {out / 'fold_test'} as an output directory")

    def test_duplicate_utterance_id_fails_before_training(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["utterances"].append(dict(manifest["utterances"][0]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        result = run_cli("xval", "--manifest", bad, "--out", tmp_path / "out")
        assert result.exit_code == 2
        assert "duplicate" in result.output


    def test_manifest_order_changes_no_bundle_or_metric(self, tmp_path):
        """Metamorphic: reversing a manifest that is not in sorted-id order changes no output.

        ``fit_bundle`` stacks the training utterances in sorted-id order, so the
        ``train`` bundle, every ``xval`` fold bundle and every fold's metrics
        are the same bytes whichever order the manifest lists them in.
        """
        corpus = tmp_path / "corpus"
        cfg = SynthConfig(n_utterances=8, frames_per_utterance=150, seed=23)
        write_corpus(generate_corpus(cfg), corpus)
        raw = json.loads((corpus / "manifest.json").read_text())
        entries = raw["utterances"]
        for i, entry in enumerate(entries):
            entry["split"] = f"f{i % 2}"
        shuffled = [entries[i] for i in (3, 0, 6, 1, 7, 4, 2, 5)]
        ids = [entry["utterance_id"] for entry in shuffled]
        assert ids != sorted(ids) and ids[::-1] != sorted(ids)
        labels = convert(corpus, tmp_path / "labels")
        outputs = []
        for name, order in (("shuffled", shuffled), ("reversed", shuffled[::-1])):
            path = corpus / f"{name}.json"
            path.write_text(json.dumps({**raw, "utterances": order}))
            for args in (
                ("train", "--manifest", path, "--labels", labels, "--split", "f0", "--variant", "domm-rs"),
                ("xval", "--manifest", path, "--variant", "domm-rs"),
            ):
                result = run_cli(*args, "--out", tmp_path / name / args[0])
                assert result.exit_code == 0, result.output
            report = json.loads((tmp_path / name / "xval" / "report.json").read_text())
            bundles = {
                str(p.relative_to(tmp_path / name)): p.read_bytes() for p in (tmp_path / name).glob("**/model.json")
            }
            outputs.append((bundles, {fold["fold"]: fold for fold in report["folds"]}))
        assert len(outputs[0][0]) == 3
        assert outputs[0] == outputs[1]

    def test_renaming_utterance_ids_in_sorted_order_changes_no_output(self, tmp_path):
        """Metamorphic: new ids in the same sorted order change only file names and ``#utterance_id=`` lines.

        Starting from a manifest that is not in sorted-id order, every label,
        rank and prediction file and every bundle is the same bytes apart from
        those, and every fold's metrics are the same numbers.
        """
        corpus = tmp_path / "corpus"
        write_corpus(generate_corpus(SynthConfig(n_utterances=8, frames_per_utterance=150, seed=29)), corpus)
        raw = json.loads((corpus / "manifest.json").read_text())
        entries = [raw["utterances"][i] for i in (3, 0, 6, 1, 7, 4, 2, 5)]
        for i, entry in enumerate(entries):
            entry["split"] = f"f{i % 2}"
        ids = [entry["utterance_id"] for entry in entries]
        assert ids != sorted(ids)
        renamed = {uid: f"speaker_{k}" for k, uid in enumerate(sorted(ids))}
        outputs = []
        for name, rename in (("original", lambda uid: uid), ("renamed", renamed.get)):
            path = corpus / f"{name}.json"
            utterances = [{**e, "utterance_id": rename(e["utterance_id"])} for e in entries]
            path.write_text(json.dumps({**raw, "utterances": utterances}))
            out = tmp_path / name
            labels, bundle = out / "convert", out / "train" / "model.json"
            for args in (
                ("convert", "--manifest", path),
                ("train", "--manifest", path, "--labels", labels, "--split", "f0", "--variant", "domm-rs"),
                ("decode", "--bundle", bundle, "--manifest", path, "--split", "f1"),
                ("xval", "--manifest", path, "--variant", "domm-rs"),
            ):
                result = run_cli(*args, "--out", out / args[0])
                assert result.exit_code == 0, result.output
            files = {}
            for file in sorted(out.rglob("*.csv")) + sorted(out.rglob("model.json")):
                if file.name == "report.csv":
                    continue
                uid, _, suffix = file.name.partition(".")
                key = file.relative_to(out).with_name(f"{renamed.get(uid, uid)}.{suffix}")
                lines = file.read_bytes().splitlines(keepends=True)
                files[str(key)] = b"".join(line for line in lines if not line.startswith(b"#utterance_id="))
            folds = json.loads((out / "xval" / "report.json").read_text())["folds"]
            for fold in folds:
                for row in fold["per_utterance"]:
                    row["utterance_id"] = renamed.get(row["utterance_id"], row["utterance_id"])
            outputs.append((files, folds))
        assert len(outputs[0][0]) == 2 * 8 + 2 * 4 + 3  # labels, predictions, bundles
        assert outputs[0] == outputs[1]


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

    def test_sweep_uses_the_manifest_boundary_mode(self, tmp_path):
        (tmp_path / "f.csv").write_text("f0\n" + "0.0\n" * 5)
        # three values sit exactly on theta2 = 0.5, which only table-half-open labels High
        (tmp_path / "a.csv").write_text("#period_s=1.0\nr0,r1\n" + "0.5,0.5\n" * 3 + "0.0,0.0\n-0.9,-0.9\n")
        gammas = {}
        for mode in ("text-rule", "table-half-open"):
            manifest = {
                "dataset_name": "toy",
                "dimension_name": "arousal",
                "value_range": [-1.0, 1.0],
                "preprocessing": {"delay_s": 0.0, "window_s": 1.0, "overlap": 0.0},
                "thresholds": {"theta1": -0.5, "theta2": 0.5, "boundary_mode": mode},
                "utterances": [{"utterance_id": "u", "features": "f.csv", "annotations": "a.csv", "split": "train"}],
            }
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(manifest))
            out = tmp_path / mode
            result = run_cli(
                "sweep", "--manifest", path, "--out", out,
                "--theta2-min", 0.5, "--theta2-max", 0.5, "--theta2-step", 0.1,
            )
            assert result.exit_code == 0, result.output
            [row] = (out / "sweep.csv").read_text().splitlines()[1:]
            theta2, gammas[mode], agreement = map(float, row.split(","))
            assert (theta2, agreement) == (0.5, 1.0)
        # text-rule: 1 Low, 4 Medium, 0 High; table-half-open: 1 Low, 1 Medium, 3 High
        assert gammas == {"text-rule": 0.8, "table-half-open": 0.4}

    def test_mixed_annotator_counts_exit_2(self, corpus_dir, tmp_path):
        def drop_last_column(text):
            return "\n".join(
                line if line.startswith("#") else line.rsplit(",", 1)[0] for line in text.splitlines()
            )

        manifest = with_edited_file(corpus_dir, tmp_path, "annotations", drop_last_column)
        result = run_cli("sweep", "--manifest", manifest, "--out", tmp_path / "sweep")
        assert_exit_2(result, "different annotator counts [3, 4]")

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
        [
            (["--seed", "-1"], None),
            ([], {"seed": 1.5}),
            (["--seed", "3"], [1, 2]),
            # a manifest convert would reject, and non-finite thresholds, fail before writing anything
            *((["--theta", theta], None) for theta in ("0", "-0.2", "nan", "inf")),
        ],
        ids=["negative-seed", "float-seed", "list-config", "zero-theta", "negative-theta", "nan-theta", "inf-theta"],
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


class TestManifestNames:
    """Utterance ids name label files and split tags name fold directories."""

    def manifest_with(self, corpus_dir, tmp_path, **first_entry) -> Path:
        manifest = relocatable_manifest(corpus_dir)
        manifest["utterances"][0].update(first_entry)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_utterance_id_with_a_slash_exits_2(self, corpus_dir, tmp_path):
        manifest = self.manifest_with(corpus_dir, tmp_path, utterance_id="sub/utt")
        result = run_cli("convert", "--manifest", manifest, "--out", tmp_path / "labels")
        assert_exit_2(result, "utterance id 'sub/utt' is not a plain file name")
        assert not (tmp_path / "labels").exists()

    def test_utterance_id_with_a_nul_exits_2(self, corpus_dir, tmp_path):
        manifest = self.manifest_with(corpus_dir, tmp_path, utterance_id="utt\0x")
        result = run_cli("convert", "--manifest", manifest, "--out", tmp_path / "labels")
        assert_exit_2(result, "is not a plain file name")
        assert not (tmp_path / "labels").exists()

    def test_utterance_id_longer_than_a_file_name_exits_2(self, corpus_dir, tmp_path):
        uid = "u" * 300
        manifest = self.manifest_with(corpus_dir, tmp_path, utterance_id=uid)
        result = run_cli("convert", "--manifest", manifest, "--out", tmp_path / "labels")
        assert_exit_2(result, f"cannot write {tmp_path / 'labels' / uid}")

    def test_non_ascii_utterance_id_exits_2_from_decode(self, corpus_dir, domm_rs_bundle, tmp_path):
        uid = "utt_\u00e9"
        manifest = self.manifest_with(corpus_dir, tmp_path, utterance_id=uid)
        out = tmp_path / "pred"
        result = run_cli("decode", "--bundle", domm_rs_bundle, "--manifest", manifest, "--out", out, "--split", "all")
        assert_exit_2(result, f"cannot write {out / uid}.aol.csv: non-ASCII text")
        assert not (out / f"{uid}.aol.csv").exists()

    def test_convert_and_decode_write_the_manifest_id(self, corpus_dir, domm_rs_bundle, tmp_path):
        manifest = self.manifest_with(corpus_dir, tmp_path, utterance_id="renamed")
        labels, pred = tmp_path / "labels", tmp_path / "pred"
        assert run_cli("convert", "--manifest", manifest, "--out", labels).exit_code == 0
        result = run_cli("decode", "--bundle", domm_rs_bundle, "--manifest", manifest, "--out", pred, "--split", "all")
        assert result.exit_code == 0, result.output
        for path in (labels / "renamed.aol.csv", labels / "renamed.rol.csv", pred / "renamed.aol.csv"):
            assert path.read_text().splitlines()[0] == "#utterance_id=renamed"

    def test_split_tag_all_exits_2(self, corpus_dir, tmp_path):
        """``--split all`` selects every utterance, so a tag ``all`` could not be selected on its own."""
        manifest = self.manifest_with(corpus_dir, tmp_path, split="all")
        result = run_cli("convert", "--manifest", manifest, "--split", "all", "--out", tmp_path / "labels")
        assert_exit_2(result, f"{manifest}: split tag 'all' is reserved for every utterance")
        assert not (tmp_path / "labels").exists()

    def test_split_tag_climbing_out_of_out_exits_2(self, corpus_dir, tmp_path):
        manifest = self.manifest_with(corpus_dir, tmp_path, split="a/../../../esc")
        out = tmp_path / "x" / "out"
        result = run_cli("xval", "--manifest", manifest, "--out", out)
        assert_exit_2(result, "split tag 'a/../../../esc' is not a plain file name")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("command", ["convert", "sweep", "synth", "train", "decode", "eval", "xval"])
def test_out_set_to_a_file_exits_2(corpus_dir, domm_rs_bundle, tmp_path, command):
    manifest = corpus_dir / "manifest.json"
    labels = domm_rs_bundle.parent / "labels"
    args = {
        "convert": ["--manifest", manifest],
        "sweep": ["--manifest", manifest],
        "synth": ["--utterances", 2, "--frames", 20],
        "train": ["--manifest", manifest, "--labels", labels],
        "decode": ["--bundle", domm_rs_bundle, "--manifest", manifest],
        "eval": ["--manifest", manifest, "--pred", labels, "--labels", labels],
        "xval": ["--manifest", manifest],
    }[command]
    out = tmp_path / "taken"
    out.write_text("a file\n")
    result = run_cli(command, *args, "--out", out)
    assert_exit_2(result, f"cannot use {out} as an output directory")
    assert out.read_text() == "a file\n"


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


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: OpenBLAS would not split a product")
def test_ranker_bundle_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    assert run_cli("synth", "--out", tmp_path / "corpus", "--utterances", 6, "--frames", 300).exit_code == 0
    labels = convert(tmp_path / "corpus", tmp_path / "labels")
    bundles = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        args = ["train", "--manifest", tmp_path / "corpus" / "manifest.json", "--labels", labels, "--out", out]
        subprocess.run(
            [sys.executable, "-m", "domm.cli", *args, "--variant", "domm-rs", "--split", "all"],
            env={**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads},
            check=True,
            capture_output=True,
        )
        bundles.append((out / "model.json").read_bytes())
    assert bundles[0] == bundles[1]


def target_json(target, corpus_dir, domm_rs_bundle):
    """The manifest (with absolute paths), the default experiment config or the domm-rs bundle, parsed."""
    if target == "manifest":
        return relocatable_manifest(corpus_dir)
    if target == "config":
        return ExperimentConfig().to_dict()
    return json.loads(domm_rs_bundle.read_text())


def run_on_edited_json(target, edit, corpus_dir, domm_rs_bundle, work: Path):
    """Run the command that reads ``target`` on an edited copy of it, with ``--out`` at ``work / "out"``.

    ``convert`` reads the manifest, ``train --config`` the config and ``decode --bundle`` the bundle.
    """
    raw = target_json(target, corpus_dir, domm_rs_bundle)
    edit(raw)
    path = work / f"{target}.json"
    path.write_text(json.dumps(raw))
    manifest = corpus_dir / "manifest.json"
    args = {
        "manifest": ("convert", "--manifest", path),
        "config": ("train", "--manifest", manifest, "--labels", domm_rs_bundle.parent / "labels", "--config", path),
        "bundle": ("decode", "--bundle", path, "--manifest", manifest),
    }[target]
    return run_cli(*args, "--out", work / "out")


# 401 digits: float() of it overflows
HUGE_INT = 10**400


@pytest.mark.parametrize(
    "target,edit",
    [
        ("manifest", lambda raw: raw["thresholds"].update(theta2=HUGE_INT)),
        ("manifest", lambda raw: raw["preprocessing"].update(window_s=HUGE_INT)),
        ("manifest", lambda raw: raw["value_range"].__setitem__(1, HUGE_INT)),
        ("config", lambda raw: raw.update(svm_c=HUGE_INT)),
        ("config", lambda raw: raw.update(rank_c=HUGE_INT)),
        ("config", lambda raw: raw.update(bandwidth=HUGE_INT)),
        ("bundle", lambda raw: raw.update(class_counts=10**30)),
        ("bundle", lambda raw: raw.update(format_version=10**30)),
        ("bundle", lambda raw: raw["ranksvm"]["weights"].__setitem__(0, HUGE_INT)),
    ],
    ids=[
        "theta2", "window_s", "value_range", "svm_c", "rank_c", "bandwidth",
        "class_counts-1e30", "format_version-1e30", "ranker-weight",
    ],
)
def test_integers_too_large_for_a_float_exit_2(corpus_dir, domm_rs_bundle, tmp_path, target, edit):
    result = run_on_edited_json(target, edit, corpus_dir, domm_rs_bundle, tmp_path)
    assert_exit_2(result)
    assert not (tmp_path / "out").exists()


def json_paths(value, path=()):
    """The key path of every value under ``value``, entering only the first item of a list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from json_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield path + (0,)
        yield from json_paths(value[0], path + (0,))


MUTATIONS = {"string": "x", "bool": True, "list": [], "null": None, "negative": -1, "1e30": 10**30, "401-digit": HUGE_INT}


def mutated(path, mutation):
    """An edit that drops the value at ``path`` (``mutation == "drop"``) or replaces it with ``MUTATIONS[mutation]``."""

    def edit(raw):
        for key in path[:-1]:
            raw = raw[key]
        if mutation == "drop":
            del raw[path[-1]]
        else:
            raw[path[-1]] = MUTATIONS[mutation]

    return edit


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_one_mutated_json_value_exits_0_or_2(corpus_dir, domm_rs_bundle, tmp_path_factory, data):
    """The README's contract on JSON inputs: exit 0, or exit 2 with an ``error:`` line; never a traceback."""
    target = data.draw(st.sampled_from(["manifest", "config", "bundle"]), label="target")
    paths = list(json_paths(target_json(target, corpus_dir, domm_rs_bundle)))
    path = data.draw(st.sampled_from(paths), label="path")
    mutation = data.draw(st.sampled_from(["drop", *MUTATIONS]), label="mutation")
    work = tmp_path_factory.mktemp("mutation")
    result = run_on_edited_json(target, mutated(path, mutation), corpus_dir, domm_rs_bundle, work)
    assert result.exit_code in (0, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    if result.exit_code == 2:
        assert result.output.startswith("error:"), result.output
