"""Command-line front end.

Every command writes its outputs below ``--out`` together with a
``run.json`` provenance record: the command, the tool version, every option
of the command except ``--out``, and any resolved config with its hash.
Outputs are canonical: rerunning a command with the same inputs and config
reproduces every file byte for byte.

Exit codes: 0 success, 1 internal error, 2 user/input error.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from domm import __version__
from domm.bundle import load_model_bundle, save_model_bundle
from domm.core import (
    DataError,
    ThresholdConfig,
    load_manifest,
    output_dir,
    parse_annotations,
    read_aol_csv,
    read_json,
    read_rol_csv,
    write_aol_csv,
    write_csv,
    write_json,
    write_rol_csv,
)
from domm.experiment import (
    VARIANTS,
    ExperimentConfig,
    convert_labels,
    decode_entries,
    evaluate_fold,
    fit_bundle,
    load_features,
    load_labels_dir,
    make_report,
    run_xval,
    write_report,
)
from domm.labels import sweep_thresholds
from domm.synth import SynthConfig, generate_corpus, write_corpus

__all__ = ["main"]

MAX_SWEEP_STEPS = 10_000


def _fail_on_data_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load_config(cls, config_path, **overrides):
    """``cls`` from a JSON config file (or defaults), with every non-None override applied."""
    config = cls() if config_path is None else cls.from_dict(read_json(config_path, "config"))
    return replace(config, **{key: value for key, value in overrides.items() if value is not None})


def _write_run_record(out_dir: Path, config=None) -> None:
    """Write ``run.json``: the command, its options except ``--out``, and the resolved config."""
    ctx = click.get_current_context()
    record = {
        "command": ctx.info_name,
        "tool_version": __version__,
        "inputs": {key: value for key, value in ctx.params.items() if key != "out_dir"},
    }
    if config is not None:
        record["config"] = config.to_dict()
        record["config_hash"] = config.config_hash()
    write_json(out_dir / "run.json", record)


@click.group()
@click.version_option(version=__version__)
def main():
    """Ordinal emotion sequence modeling pipeline."""


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--split", default="all", show_default=True)
@_fail_on_data_errors
def convert(manifest_path, out_dir, split):
    """Convert interval annotations to consensus label and rank files."""
    manifest = load_manifest(manifest_path)
    labels = convert_labels(manifest, split)
    out = output_dir(out_dir)
    for uid in sorted(labels):
        aol, rol = labels[uid]
        write_aol_csv(aol, out / f"{uid}.aol.csv")
        write_rol_csv(rol, out / f"{uid}.rol.csv")
    _write_run_record(out)
    click.echo(f"converted {len(labels)} utterances -> {out}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--theta2-min", default=0.08, show_default=True)
@click.option("--theta2-max", default=0.2, show_default=True)
@click.option("--theta2-step", default=0.02, show_default=True)
@click.option(
    "--theta-sum",
    default=0.0,
    show_default=True,
    help="theta1 = theta-sum - theta2 (0 sweeps symmetric thresholds).",
)
@click.option("--split", default="train", show_default=True)
@_fail_on_data_errors
def sweep(manifest_path, out_dir, theta2_min, theta2_max, theta2_step, theta_sum, split):
    """Tabulate label balance and agreement over a threshold grid, in the manifest's boundary mode."""
    if not 0 < theta2_step < math.inf:
        raise DataError(f"--theta2-step must be positive and finite, got {theta2_step}")
    span = (theta2_max - theta2_min) / theta2_step + 1e-9
    if not 0 <= span < MAX_SWEEP_STEPS:
        raise DataError(f"the theta2 grid must have 1 to {MAX_SWEEP_STEPS} steps")
    n_steps = int(np.floor(span)) + 1
    manifest = load_manifest(manifest_path)
    annotations = [
        parse_annotations(e.annotations_path, manifest.value_range)
        for e in manifest.split_entries(split)
    ]
    grid = [
        ThresholdConfig(theta_sum - t2, t2, manifest.thresholds.boundary_mode)
        for t2 in (theta2_min + k * theta2_step for k in range(n_steps))
    ]
    rows = sweep_thresholds(annotations, grid, manifest.preprocessing)
    out = output_dir(out_dir)
    write_csv(
        out / "sweep.csv",
        ["theta2", "gamma_mean", "agreement"],
        [(r.theta2, r.gamma_mean, r.agreement) for r in rows],
    )
    _write_run_record(out)
    click.echo(f"swept {len(rows)} configurations -> {out / 'sweep.csv'}")


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), help="SynthConfig JSON file.")
@click.option("--seed", type=int, default=None)
@click.option("--utterances", type=int, default=None)
@click.option("--frames", type=int, default=None)
@click.option("--theta", type=float, default=0.215, show_default=True, help="Symmetric manifest threshold.")
@_fail_on_data_errors
def synth(out_dir, config_path, seed, utterances, frames, theta):
    """Generate a seeded synthetic corpus with latent ground truth."""
    thresholds = ThresholdConfig(-theta, theta)
    cfg = _load_config(
        SynthConfig, config_path, seed=seed, n_utterances=utterances, frames_per_utterance=frames
    )
    corpus = generate_corpus(cfg)
    out = output_dir(out_dir)
    manifest_path = write_corpus(corpus, out, thresholds)
    _write_run_record(out, cfg)
    click.echo(f"wrote corpus manifest {manifest_path}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--labels", "labels_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--variant", type=click.Choice(VARIANTS), default=None)
@click.option("--split", default="train", show_default=True)
@_fail_on_data_errors
def train(manifest_path, labels_dir, out_dir, config_path, seed, variant, split):
    """Train a model bundle on one split's converted labels."""
    manifest = load_manifest(manifest_path)
    config = _load_config(ExperimentConfig, config_path, seed=seed, variant=variant)
    entries = manifest.split_entries(split)
    labels = load_labels_dir(labels_dir, entries)
    bundle = fit_bundle(load_features(entries), labels, config)
    out = output_dir(out_dir)
    save_model_bundle(bundle, out / "model.json")
    _write_run_record(out, config)
    click.echo(f"trained {config.variant} bundle -> {out / 'model.json'}")


@main.command()
@click.option("--bundle", "bundle_path", required=True, type=click.Path(exists=True))
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--labels", "labels_dir", type=click.Path(exists=True), help="Needed for ground-truth rank decoding.")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--split", default="test", show_default=True)
@_fail_on_data_errors
def decode(bundle_path, manifest_path, out_dir, labels_dir, config_path, split):
    """Decode a split into predicted label (and rank) files."""
    manifest = load_manifest(manifest_path)
    config = _load_config(ExperimentConfig, config_path)
    bundle = load_model_bundle(bundle_path)
    entries = manifest.split_entries(split)
    truth = load_labels_dir(labels_dir, entries) if labels_dir is not None else None
    pred_aols, pred_rols = decode_entries(bundle, entries, config, truth)
    out = output_dir(out_dir)
    for uid in sorted(pred_aols):
        write_aol_csv(pred_aols[uid], out / f"{uid}.aol.csv")
    for uid in sorted(pred_rols):
        write_rol_csv(pred_rols[uid], out / f"{uid}.rol.csv")
    _write_run_record(out, config)
    click.echo(f"decoded {len(pred_aols)} utterances -> {out}")


@main.command("eval")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--pred", "pred_dir", required=True, type=click.Path(exists=True))
@click.option("--labels", "labels_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--split", default="test", show_default=True)
@_fail_on_data_errors
def eval_cmd(manifest_path, pred_dir, labels_dir, out_dir, split):
    """Score predictions against converted ground truth."""
    manifest = load_manifest(manifest_path)
    entries = manifest.split_entries(split)
    truth = load_labels_dir(labels_dir, entries)
    pred_dir = Path(pred_dir)
    pred_aols, pred_rols = {}, {}
    for entry in entries:
        uid = entry.utterance_id
        aol_path = pred_dir / f"{uid}.aol.csv"
        if not aol_path.exists():
            raise DataError(f"missing prediction file {aol_path}")
        pred_aols[uid] = read_aol_csv(aol_path)
        rol_path = pred_dir / f"{uid}.rol.csv"
        if rol_path.exists():
            pred_rols[uid] = read_rol_csv(rol_path)
    fold = evaluate_fold(split, pred_aols, pred_rols, truth)
    report = make_report([fold])
    out = output_dir(out_dir)
    write_report(report, out)
    _write_run_record(out)
    click.echo(
        f"uar={fold['uar']:.2f} kappa={fold['kappa']:.4f} "
        f"tau={fold['tau_mean'] if fold['tau_mean'] is not None else 'n/a'} -> {out / 'report.json'}"
    )


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--variant", type=click.Choice(VARIANTS), default=None)
@_fail_on_data_errors
def xval(manifest_path, out_dir, config_path, seed, variant):
    """Cross-validate over the manifest's fold tags."""
    manifest = load_manifest(manifest_path)
    config = _load_config(ExperimentConfig, config_path, seed=seed, variant=variant)
    out = output_dir(out_dir)
    report = run_xval(manifest, config, out)
    write_report(report, out)
    _write_run_record(out, config)
    agg = report["aggregate"]
    summary = ", ".join(
        f"{key}={agg[key]['mean']:.3f}+-{agg[key]['std']:.3f}"
        for key in ("uar", "kappa")
        if agg.get(key)
    )
    click.echo(f"{agg['n_folds']} folds ({agg['n_skipped']} skipped): {summary}")


if __name__ == "__main__":
    main()
