"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rA``) and asserts, so the suite doubles as a human-readable checklist:

    pytest tests/test_acceptance.py -v -s
"""

import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from dataclasses import replace
from scipy.stats import rankdata

from domm.cli import main
from domm.core import AolSequence, RolSequence, load_manifest
from domm.decoder import StateLattice, viterbi_decode
from domm.experiment import (
    ExperimentConfig,
    convert_labels,
    decode_entries,
    evaluate_fold,
    fit_bundle,
    fold_seed,
    load_features,
)
from domm.labels import (
    ThresholdConfig,
    comparison_matrix,
    interval_to_aol,
    qa_consensus,
    ranks_from_consensus,
    sweep_thresholds,
)
from domm.metrics import (
    KAPPA_WEIGHTS,
    kendall_tau,
    precision_at_k,
    uar,
    weighted_kappa,
)
from domm.omsvm import state_posteriors, train_omsvm
from domm.svm import newton_squared_hinge, objective_and_gradient, train_binary, decision_values
from domm.synth import SynthConfig, generate_corpus, write_corpus
from domm.transitions import (
    fit_kde,
    fit_transition_model,
    kde_density,
)
from oracles import brute_force_decode, transition_distribution

L, M, H = 0, 1, 2


def report(number, label, ok):
    print(f"\nacceptance criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


def fitted_transition_model(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    aols, rols = [], []
    for idx in range(3):
        values = np.cumsum(rng.normal(size=40))
        labels = np.digitize(values, np.percentile(values, [33, 66]))
        aols.append(AolSequence(f"u{idx}", labels))
        rols.append(RolSequence.from_ranks(f"u{idx}", rankdata(values)))
    return fit_transition_model(aols, rols, **kwargs)


def noisy_corpus_config(seed):
    return SynthConfig(
        n_utterances=18,
        frames_per_utterance=615,
        feature_dim=10,
        n_annotators=6,
        latent_smoothness=0.98,
        annotator_noise_std=0.1,
        annotator_bias_std=0.05,
        feature_noise_std=1.0,
        seed=seed,
    )


def run_pipeline(manifest, labels, variant, seed):
    config = ExperimentConfig(variant=variant, rank_c=1.0, seed=seed)
    bundle = fit_bundle(load_features(manifest.split_entries("train")), labels, config)
    preds, pred_rols = decode_entries(bundle, manifest.split_entries("test"), config, labels)
    return evaluate_fold("test", preds, pred_rols, labels)


def test_criterion_1_decoder_oracle_equivalence():
    model = fitted_transition_model()
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    all_equal = True
    for trial in range(200):
        t = int(rng.integers(1, 9))
        post = rng.random((t, 3))
        if trial % 2 == 1:
            post = np.ceil(post * 4) / 4.0  # coarse grid provokes score ties
        post /= post.sum(axis=1, keepdims=True)
        lattice = StateLattice("u", post, rng.uniform(-1, 1, t - 1))
        a = viterbi_decode(lattice, model).labels
        b = brute_force_decode(lattice, model).labels
        if not np.array_equal(a, b):
            all_equal = False
            break
    elapsed = time.perf_counter() - start
    report(1, f"viterbi == brute force on 200 lattices in {elapsed:.2f}s", all_equal and elapsed < 5.0)


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(202)
    ok = True

    # weighted kappa vs direct formula evaluation
    checked = 0
    while checked < 100:
        n = int(rng.integers(6, 120))
        truth = rng.integers(0, 3, n)
        pred = rng.integers(0, 3, n)
        joint = np.zeros((3, 3))
        for a, b in zip(truth, pred):
            joint[a, b] += 1.0 / n
        chance = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        denominator = 1.0 - float((KAPPA_WEIGHTS * chance).sum())
        if abs(denominator) < 1e-12:
            continue
        direct = (float((KAPPA_WEIGHTS * joint).sum()) - (1.0 - denominator)) / denominator
        ok &= abs(weighted_kappa(truth, pred) - direct) <= 1e-12
        checked += 1
    perfect = rng.integers(0, 3, 60)
    while len(set(perfect)) < 2:
        perfect = rng.integers(0, 3, 60)
    ok &= weighted_kappa(perfect, perfect) == pytest.approx(1.0, abs=1e-12)

    # Kendall tau vs pair enumeration
    for _ in range(100):
        n = int(rng.integers(2, 40))
        ra = rng.integers(0, 12, n).astype(float)
        rb = rng.integers(0, 12, n).astype(float)
        c = d = 0
        for i in range(n):
            for j in range(i + 1, n):
                prod = (ra[i] - ra[j]) * (rb[i] - rb[j])
                c += prod > 0
                d += prod < 0
        ok &= kendall_tau(ra, rb) == pytest.approx((c - d) / (n * (n - 1) / 2), abs=1e-12)
    tie_free = rng.permutation(np.arange(1.0, 31.0))
    ok &= kendall_tau(tie_free, tie_free) == 1.0
    ok &= kendall_tau(tie_free, 31.0 - tie_free) == -1.0

    ok &= uar([L, L, M, M, H, H], [L, M, M, M, H, L]) == pytest.approx(66.67, abs=0.01)

    ranks = rng.permutation(np.arange(1.0, 41.0))
    ok &= all(precision_at_k(ranks, ranks, k) == 1.0 for k in (10, 20, 30, 40, 50))
    report(2, "kappa / tau / uar / p@k against independent oracles", ok)


def test_criterion_3_probability_hygiene():
    rng = np.random.default_rng(303)
    ok = True

    centers = np.array([-1.0, 0.0, 1.0])
    labels = rng.integers(0, 3, 400)
    features = centers[labels][:, None] + rng.normal(scale=0.6, size=(400, 1))
    features = np.hstack([features, rng.normal(size=(400, 3))])
    model = train_omsvm(features, labels, c=0.1)
    post = state_posteriors(model, rng.normal(size=(500, 4)) * 3)
    ok &= bool(np.all(post >= 0) and np.max(np.abs(post.sum(axis=1) - 1.0)) <= 1e-9)

    tm = fitted_transition_model(seed=7)
    for _ in range(200):
        out = transition_distribution(tm, int(rng.integers(0, 3)), float(rng.uniform(-1.5, 1.5)))
        ok &= bool(np.all(out >= 0) and abs(out.sum() - 1.0) <= 1e-9)

    for _ in range(10):
        kde = fit_kde(rng.normal(scale=rng.uniform(0.1, 2.0), size=int(rng.integers(2, 300))))
        lo = kde.samples.min() - 5 * kde.bandwidth
        hi = kde.samples.max() + 5 * kde.bandwidth
        grid = np.linspace(lo, hi, 4001)
        ok &= abs(np.trapezoid(kde_density(kde, grid), grid) - 1.0) <= 1e-3
    report(3, "posterior rows, transition rows, and KDE normalization", ok)


def test_criterion_4_bayes_reduction():
    ok = True
    base = fitted_transition_model(seed=11)
    shared = fit_kde(np.linspace(-0.8, 0.8, 25))
    flat = replace(
        base,
        conditional_kdes=tuple(tuple(shared for _ in range(3)) for _ in range(3)),
        marginal_kdes=(shared, shared, shared),
    )
    for prev in range(3):
        for delta in (-0.7, 0.0, 0.42):
            out = transition_distribution(flat, prev, delta)
            ok &= bool(np.max(np.abs(out - base.prior[prev])) <= 1e-9)
    report(4, "identical conditionals reduce the fused transition to the prior", ok)


def test_criterion_5_solver_correctness():
    rng = np.random.default_rng(505)
    ok = True

    def finite_difference(params, inputs, targets, c, fit_bias, h=1e-6):
        grad = np.zeros_like(params)
        for k in range(params.size):
            up, down = params.copy(), params.copy()
            up[k] += h
            down[k] -= h
            grad[k] = (
                objective_and_gradient(up, inputs, targets, c, fit_bias)[0]
                - objective_and_gradient(down, inputs, targets, c, fit_bias)[0]
            ) / (2 * h)
        return grad

    for fit_bias in (True, False):
        inputs = rng.normal(size=(60, 6))
        targets = np.where(rng.random(60) > 0.5, 1.0, -1.0)
        for _ in range(10):
            params = rng.normal(size=6 + fit_bias)
            _, grad, _ = objective_and_gradient(params, inputs, targets, 0.41, fit_bias)
            fd = finite_difference(params, inputs, targets, 0.41, fit_bias)
            ok &= np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-5

    for fit_bias in (True, False):
        inputs = rng.normal(size=(200, 5))
        targets = np.where(inputs @ rng.normal(size=5) > 0, 1.0, -1.0)
        _, trace = newton_squared_hinge(inputs, targets, c=0.7, fit_bias=fit_bias)
        ok &= all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    separable = np.vstack([rng.normal(size=(40, 2)) - 3.0, rng.normal(size=(40, 2)) + 3.0])
    labels = np.concatenate([-np.ones(40), np.ones(40)])
    model = train_binary(separable, labels, c=1.0)
    ok &= bool(np.all(np.sign(decision_values(model, separable)) == labels))
    report(5, "gradients vs finite differences, monotone traces, separable accuracy", ok)


def test_criterion_6_ranking_quality(tmp_path):
    cfg = replace(
        noisy_corpus_config(seed=606),
        annotator_noise_std=0.0,
        annotator_bias_std=0.0,
        feature_noise_std=0.0,
    )
    manifest = load_manifest(write_corpus(generate_corpus(cfg), tmp_path))
    labels = convert_labels(manifest)
    fold = run_pipeline(manifest, labels, "domm-rs", seed=606)
    tau = fold["tau_mean"]
    p10 = fold["p_at_k"]["10"]
    report(6, f"noiseless held-out tau={tau:.4f}, P@10={p10:.4f}", tau >= 0.95 and p10 >= 0.95)


def test_criterion_7_central_ordering(tmp_path):
    metrics = {v: {"uar": [], "kappa": []} for v in ("omsvm-only", "domm-rs", "domm-gt")}
    per_seed_times = []
    for i in range(10):
        start = time.perf_counter()
        corpus_dir = tmp_path / f"seed{i}"
        cfg = noisy_corpus_config(seed=1000 + i)
        manifest = load_manifest(write_corpus(generate_corpus(cfg), corpus_dir))
        labels = convert_labels(manifest)
        for variant in metrics:
            fold = run_pipeline(manifest, labels, variant, seed=i)
            metrics[variant]["uar"].append(fold["uar"])
            metrics[variant]["kappa"].append(fold["kappa"])
        per_seed_times.append(time.perf_counter() - start)
    ok = max(per_seed_times) < 180.0
    summary = []
    for key in ("uar", "kappa"):
        base = np.array(metrics["omsvm-only"][key])
        rs = np.array(metrics["domm-rs"][key])
        gt = np.array(metrics["domm-gt"][key])
        gt_wins = int(np.sum(gt > base))
        ok &= gt_wins >= 9
        ok &= rs.mean() >= base.mean()
        summary.append(
            f"{key}: gt>base {gt_wins}/10, means base={base.mean():.2f} "
            f"rs={rs.mean():.2f} gt={gt.mean():.2f}"
        )
    report(7, "; ".join(summary) + f"; max {max(per_seed_times):.0f}s/seed", ok)


def test_criterion_8_conversion_correctness():
    ok = True
    turn_level = ThresholdConfig(2.5, 3.5, "table-half-open")
    out = interval_to_aol([2.5, 3.5], turn_level).labels
    ok &= out[0] == M and out[1] == H
    trace_level = ThresholdConfig(-0.15, 0.15, "text-rule")
    out = interval_to_aol([-0.15, 0.15, 0.1501], trace_level).labels
    ok &= bool(np.array_equal(out, [L, M, H]))

    series = ([0.1, 0.2, 0.3], [0.1, 0.3, 0.2], [0.2, 0.1, 0.3])
    consensus = qa_consensus([comparison_matrix(s) for s in series])
    ranks = ranks_from_consensus(consensus).ranks
    ok &= bool(np.array_equal(ranks, [1.0, 2.0, 3.0]))
    report(8, "threshold boundary semantics and the consensus-rank hand example", ok)


def test_criterion_9_determinism(tmp_path):
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, result.output

    def tree(root: Path) -> dict:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    root = tmp_path / "run"
    corpus = root / "corpus"
    trees = []
    for _ in range(2):  # second pass reruns every command over the same paths
        run("synth", "--out", corpus, "--seed", 99, "--utterances", 6, "--frames", 80)
        run("convert", "--manifest", corpus / "manifest.json", "--out", root / "labels")
        run(
            "train", "--manifest", corpus / "manifest.json", "--labels", root / "labels",
            "--out", root / "model", "--seed", 4,
        )
        run(
            "decode", "--bundle", root / "model" / "model.json",
            "--manifest", corpus / "manifest.json", "--labels", root / "labels",
            "--out", root / "pred",
        )
        run(
            "eval", "--manifest", corpus / "manifest.json", "--pred", root / "pred",
            "--labels", root / "labels", "--out", root / "report",
        )
        run(
            "xval", "--manifest", corpus / "manifest.json", "--out", root / "xval", "--seed", 4,
        )
        trees.append(tree(root))
    ok = trees[0] == trees[1]
    # fold seeds derive from (root seed, fold tag) only, so execution order is moot
    ok &= fold_seed(4, "test") == fold_seed(4, "test")
    ok &= fold_seed(4, "test") != fold_seed(4, "train")
    report(9, "end-to-end rerun produces byte-identical bundles and reports", ok)


def test_criterion_10_threshold_sweep(tmp_path):
    rng = np.random.default_rng(1010)
    from domm.core import AnnotationSet

    annotations = [
        AnnotationSet(f"u{k}", rng.uniform(-0.9, 0.9, size=(6, 300)), 0.04, (-1.0, 1.0))
        for k in range(3)
    ]
    grid = [ThresholdConfig(-t2, t2) for t2 in np.arange(0.08, 0.2001, 0.02)]
    rows = sweep_thresholds(annotations, grid)
    ok = len(rows) == 7
    ok &= all(0.0 <= r.gamma_mean <= 1.0 and 0.0 <= r.agreement <= 1.0 for r in rows)
    [degenerate] = sweep_thresholds(annotations, [ThresholdConfig(-0.95, 0.95)])
    ok &= degenerate.agreement == 1.0
    report(10, "7 sweep rows in range; single-class threshold gives agreement 1", ok)
