import tracemalloc

import numpy as np
import pytest
from scipy.stats import rankdata

from domm import experiment
from domm.bundle import ModelBundle
from domm.core import AolSequence, Preprocessing, RolSequence, load_manifest
from domm.experiment import (
    VARIANTS,
    ExperimentConfig,
    _adjusted_posteriors,
    convert_labels,
    decode_features,
    evaluate_fold,
    fit_bundle,
    load_features,
)
from domm.labels import ThresholdConfig, convert_annotation_set
from domm.metrics import kendall_tau
from domm.omsvm import OmsvmModel, state_posteriors
from domm.svm import LinearModel, PlattCalibration
from domm.synth import SynthConfig, generate_corpus, write_corpus
from domm.transitions import transition_matrices


def test_divide_by_prior_is_posterior_over_training_prior_renormalized():
    rng = np.random.default_rng(5)
    stages = tuple(
        (LinearModel(rng.normal(size=2), 0.1), PlattCalibration(-1.5, 0.2))
        for _ in range(2)
    )
    counts = np.array([70, 20, 10])
    bundle = ModelBundle(OmsvmModel(stages), None, None, counts, "hash", np.zeros(2), np.ones(2))
    frames = rng.normal(size=(50, 2))
    post = state_posteriors(bundle.omsvm, frames)

    np.testing.assert_array_equal(_adjusted_posteriors(bundle, frames, False), post)
    scaled = post / (counts / counts.sum())
    expected = scaled / scaled.sum(axis=1, keepdims=True)
    adjusted = _adjusted_posteriors(bundle, frames, True)
    np.testing.assert_allclose(adjusted, expected, rtol=1e-12)
    np.testing.assert_allclose(adjusted.sum(axis=1), 1.0, rtol=1e-12)
    # the rescaling moves frames away from the majority class
    assert np.sum(adjusted.argmax(axis=1) == 0) < np.sum(post.argmax(axis=1) == 0)


def test_one_frame_utterance_is_left_out_of_rank_metrics():
    truth = {
        "long": (AolSequence("long", np.array([0, 1, 2, 1])), RolSequence.from_ranks("long", [1, 2, 4, 3])),
        "one": (AolSequence("one", np.array([2])), RolSequence.from_ranks("one", [1])),
    }
    pred_aols = {uid: aol for uid, (aol, _) in truth.items()}
    pred_rols = {"long": RolSequence.from_ranks("long", [1, 3, 4, 2]), "one": truth["one"][1]}
    fold = evaluate_fold("f", pred_aols, pred_rols, truth)
    long_row, one_row = fold["per_utterance"]
    assert one_row == {"utterance_id": "one"}
    assert fold["tau_mean"] == long_row["tau"] == kendall_tau(truth["long"][1], pred_rols["long"])
    assert fold["p_at_k"] == long_row["p_at_k"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small synthetic corpus: its manifest, converted labels and loaded features."""
    root = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(n_utterances=6, frames_per_utterance=80, feature_dim=3, n_annotators=3, seed=7)
    manifest = load_manifest(write_corpus(generate_corpus(cfg), root))
    return manifest, convert_labels(manifest), load_features(manifest.utterances)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_and_decode_read_no_files(corpus, monkeypatch, variant):
    manifest, labels, features = corpus
    split = {u.utterance_id: u.split for u in manifest.utterances}
    train = {uid: f for uid, f in features.items() if split[uid] == "train"}
    test = {uid: f for uid, f in features.items() if split[uid] == "test"}

    def no_parsing(path):
        raise AssertionError(f"parsed {path}")

    monkeypatch.setattr(experiment, "parse_features", no_parsing)
    config = ExperimentConfig(variant=variant, svm_c=1.0, rank_c=1.0)
    bundle = fit_bundle(train, labels, config)
    pred_aols, pred_rols = decode_features(bundle, test, config, labels)
    assert list(pred_aols) == list(test)
    assert [len(a) for a in pred_aols.values()] == [len(f) for f in test.values()]
    assert bool(pred_rols) == (variant == "domm-rs")


@pytest.mark.parametrize("variant", ["domm-rs", "domm-gt"])
def test_decoding_utterances_together_equals_one_at_a_time(corpus, monkeypatch, variant):
    manifest, labels, features = corpus
    uids = [u.utterance_id for u in manifest.utterances]
    bundle = fit_bundle({uid: features[uid] for uid in uids[:4]}, labels, ExperimentConfig(variant=variant))
    # one frame, one shortened utterance and two of the full, equal length
    cuts = {"one": (uids[4], 1), "short": (uids[5], 37)}
    test = {uid: features[source][:n] for uid, (source, n) in cuts.items()}
    test.update({uid: features[uid] for uid in uids[4:]})
    truth = dict(labels)
    for uid, (source, n) in cuts.items():
        aol, rol = labels[source]
        truth[uid] = (AolSequence(uid, aol.labels[:n]), RolSequence.from_ranks(uid, rankdata(rol.ranks[:n])))
    config = ExperimentConfig(variant=variant)
    calls = []

    def counting(model, deltas):
        calls.append(np.size(deltas))
        return transition_matrices(model, deltas)

    monkeypatch.setattr(experiment, "transition_matrices", counting)
    together = decode_features(bundle, test, config, truth)
    assert calls == [sum(len(frames) - 1 for frames in test.values())]
    alone = [decode_features(bundle, {uid: frames}, config, truth) for uid, frames in test.items()]
    assert list(together[0]) == list(test)
    for (aols, rols), uid in zip(alone, test):
        assert np.array_equal(together[0][uid].labels, aols[uid].labels)
        assert (uid in together[1]) == (uid in rols) == (variant == "domm-rs")
        if variant == "domm-rs":
            assert np.array_equal(together[1][uid].ranks, rols[uid].ranks)


def long_utterance_peaks(n_frames: int) -> dict[str, float]:
    """tracemalloc peak of convert, fit and decode on one synth utterance (R=6, D=10)."""
    corpus = generate_corpus(SynthConfig(n_utterances=1, frames_per_utterance=n_frames, seed=0))
    uf, ann = corpus.features[0], corpus.annotations[0]
    config = ExperimentConfig(variant="domm-rs")
    peaks = {}

    def measure(stage, fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            peaks[stage] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result

    aol, rol, _ = measure(
        "convert",
        convert_annotation_set,
        ann,
        ThresholdConfig(-0.215, 0.215),
        Preprocessing(0.0, corpus.config.frame_period_s, 0.0),
    )
    features = {uf.utterance_id: uf.frames}
    bundle = measure("fit", fit_bundle, features, {uf.utterance_id: (aol, rol)}, config)
    measure("decode", decode_features, bundle, features, config)
    return peaks


def test_long_utterance_memory_is_bounded_and_linear():
    """No stage builds a T x T or T x N intermediate: 10 000 frames stay under 150 MB
    per stage, and doubling T at most multiplies a stage's peak by 2.5."""
    long, short = long_utterance_peaks(10_000), long_utterance_peaks(5_000)
    assert set(long) == {"convert", "fit", "decode"}
    for stage, peak in long.items():
        assert peak < 150e6, stage
        assert peak <= 2.5 * short[stage], stage
