import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from domm.core import AolSequence, DataError, RolSequence, load_manifest
from domm.experiment import convert_labels
from domm.synth import SynthConfig, generate_corpus, write_corpus
from domm.transitions import (
    BANDWIDTH_FLOOR,
    DENSITY_FLOOR,
    EXP_UNDERFLOW,
    KDE_BLOCK_CELLS,
    KdeModel,
    fit_kde,
    fit_transition_model,
    kde_density,
    silverman_bandwidth,
    transition_matrices,
)
from oracles import dense_kde_density, transition_distribution

L, M, H = 0, 1, 2


def kde_integral(model, n_points=4001):
    lo = model.samples.min() - 5 * model.bandwidth
    hi = model.samples.max() + 5 * model.bandwidth
    grid = np.linspace(lo, hi, n_points)
    return np.trapezoid(kde_density(model, grid), grid)


def make_model(sequences, **kwargs):
    aols, rols = [], []
    for idx, (labels, values) in enumerate(sequences):
        uid = f"u{idx}"
        aols.append(AolSequence(uid, np.asarray(labels)))
        rols.append(RolSequence.from_ranks(uid, rankdata(values, method="average")))
    return fit_transition_model(aols, rols, **kwargs)


# below and above the cell budget; many-query shapes only where the dense oracle stays small
KDE_CASES = [
    (n_samples, shape)
    for n_samples in (1, 37, KDE_BLOCK_CELLS // 3, KDE_BLOCK_CELLS + 5)
    for shape in ((), (0,), (7,), (6, 5)) + (((2500,), (40, 90)) if n_samples < 100 else ())
]


class TestBlockedKdeEqualsDense:
    @pytest.mark.parametrize("n_samples,shape", KDE_CASES, ids=str)
    def test_bit_identical(self, n_samples, shape):
        rng = np.random.default_rng(n_samples)
        model = fit_kde(rng.normal(size=n_samples))
        query = rng.normal(scale=2.0, size=shape)
        got = kde_density(model, query)
        want = dense_kde_density(model, query)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
    def test_bit_identical_on_rank_difference_lattice(self, normalized):
        """Differences of tied-average ranks repeat; queried on and off their lattice."""
        rng = np.random.default_rng(23)
        walk = np.cumsum(rng.integers(-2, 3, 900))  # a tied, slowly moving trace
        rol = RolSequence.from_ranks("u", rankdata(walk, method="average"))
        samples = rol.deltas(normalized)
        assert np.unique(samples).size < samples.size / 2
        model = fit_kde(samples)
        query = np.concatenate([samples[:700], rng.uniform(-1.5, 1.5, 300) * np.abs(samples).max()])
        assert np.array_equal(kde_density(model, query), dense_kde_density(model, query))

    def test_bit_identical_where_kernels_are_subnormal_or_zero(self):
        """Floor bandwidth, queries 37-40 bandwidths away: kernels from exp(-685) to exact zeros."""
        rng = np.random.default_rng(29)
        samples = np.round(rng.normal(scale=0.002, size=400), 4)
        model = fit_kde(samples, bandwidth=BANDWIDTH_FLOOR)
        query = np.concatenate([samples.min() - np.linspace(0.037, 0.04, 500), [samples.max() + 0.0381]])
        a = -0.5 * ((query[:, None] - samples) / BANDWIDTH_FLOOR) ** 2
        assert np.any(a <= EXP_UNDERFLOW) and np.any((a > EXP_UNDERFLOW) & (a < -708.4))
        assert np.array_equal(kde_density(model, query), dense_kde_density(model, query))

    def test_subnormal_kernels_count_above_the_floor(self):
        """At a 1e-305 bandwidth a sum of subnormal kernels is a density far above DENSITY_FLOOR."""
        h = 1e-305
        model = KdeModel(samples=np.array([0.0, 0.0, 5 * h, -3 * h]), bandwidth=h)
        query = h * np.linspace(42.7, 43.6, 301)
        a = -0.5 * ((query[:, None] - model.samples) / h) ** 2
        assert np.all(a < -708.4)  # every kernel is subnormal or zero
        got = kde_density(model, query)
        assert np.array_equal(got, dense_kde_density(model, query))
        assert np.any(got > 1e3 * DENSITY_FLOOR)

    def test_bit_identical_at_the_underflow_cut(self):
        """-746 itself is no value of -0.5*u*u (u*u never rounds to 1492); these two u straddle it."""
        below = 38.626415831655926
        above = np.nextafter(below, np.inf)
        assert -0.5 * below * below > EXP_UNDERFLOW >= -0.5 * above * above
        model = KdeModel(samples=np.array([0.0, 0.0, 1.0, -2.0]), bandwidth=1.0)
        query = np.array([below, above, -below, -above, 1.0 + below, 1.0 - above, 2.0])
        assert np.array_equal(kde_density(model, query), dense_kde_density(model, query))

    @pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
    def test_transition_matrices_on_synth_corpus(self, tmp_path, normalized):
        cfg = SynthConfig(n_utterances=4, frames_per_utterance=250, feature_dim=2, n_annotators=3, seed=5)
        labels = convert_labels(load_manifest(write_corpus(generate_corpus(cfg), tmp_path)))
        aols, rols = zip(*labels.values())
        model = fit_transition_model(aols, rols, use_normalized_ranks=normalized)
        deltas = np.concatenate([rol.deltas(normalized) for rol in rols])
        want = np.empty((deltas.size, 3, 3))
        for i in range(3):
            for j in range(3):
                want[:, i, j] = dense_kde_density(model.conditional_kdes[i][j], deltas) * model.prior[i, j]
        want /= want.sum(axis=2, keepdims=True)
        assert np.array_equal(transition_matrices(model, deltas), want)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        # integer numerators over one denominator: duplicated samples, like rank differences
        numerators=st.lists(st.integers(-40, 40), min_size=1, max_size=300),
        denominator=st.sampled_from([1, 7, 40, 613]),
        bandwidth=st.one_of(
            st.sampled_from([BANDWIDTH_FLOOR, "silverman"]),
            st.floats(1e-4, 10.0),
        ),
        queries=st.lists(st.floats(-2.0, 2.0), max_size=80),
    )
    def test_property_bit_identical(self, numerators, denominator, bandwidth, queries):
        model = fit_kde(np.array(numerators) / denominator, bandwidth)
        query = np.array(queries) * max(1.0, np.abs(model.samples).max())
        assert np.array_equal(kde_density(model, query), dense_kde_density(model, query))

    def test_peak_memory_under_5mb(self):
        """A 3000 x 12000 float64 matrix alone is 288 MB; the dense form took 864 MB."""
        rng = np.random.default_rng(21)
        model = fit_kde(rng.normal(size=12_000))
        query = rng.normal(size=3000)
        tracemalloc.start()
        try:
            kde_density(model, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


def test_exp_is_exactly_zero_at_and_below_the_cut():
    """The lanes kde_density skips are exactly those where exp would give +0.0."""
    below = np.concatenate([[EXP_UNDERFLOW, np.nextafter(EXP_UNDERFLOW, -np.inf), -np.inf],
                            np.linspace(EXP_UNDERFLOW, -1e5, 10_001)])
    out = np.exp(below)
    assert np.all(out == 0.0) and not np.any(np.signbit(out))
    assert np.exp(-745.0) > 0.0


class TestKde:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_raises(self, bad):
        model = fit_kde([0.0, 0.5, 0.5])
        with pytest.raises(DataError, match="non-finite"):
            kde_density(model, bad)
        with pytest.raises(DataError, match="non-finite"):
            kde_density(model, np.array([0.1, bad, 0.2]))

    def test_single_sample_forced_bandwidth_peak(self):
        model = fit_kde([0.0], bandwidth=1.0)
        assert kde_density(model, 0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_integrates_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            model = fit_kde(rng.normal(size=int(rng.integers(5, 200))))
            assert kde_integral(model) == pytest.approx(1.0, abs=1e-3)

    def test_constant_samples_use_bandwidth_floor(self):
        model = fit_kde(np.full(20, 0.7))
        assert model.bandwidth == 1e-3
        grid = np.linspace(0.5, 0.9, 801)
        dens = kde_density(model, grid)
        assert grid[np.argmax(dens)] == pytest.approx(0.7, abs=1e-3)

    def test_symmetric_samples_give_symmetric_density(self):
        model = fit_kde([-1.0, 1.0], bandwidth=0.5)
        for x in (0.2, 0.9, 3.0):
            assert kde_density(model, x) == pytest.approx(kde_density(model, -x))

    def test_far_query_hits_floor(self):
        model = fit_kde([0.0, 0.1], bandwidth=0.01)
        assert kde_density(model, 50.0) == DENSITY_FLOOR

    def test_hand_evaluated_sum_of_gaussians(self):
        samples = np.array([-0.3, 0.1, 0.4])
        h = 0.2
        model = fit_kde(samples, bandwidth=h)
        x = 0.05
        expected = np.mean(np.exp(-0.5 * ((x - samples) / h) ** 2) / (h * np.sqrt(2 * np.pi)))
        assert kde_density(model, x) == pytest.approx(expected, abs=1e-12)

    def test_empty_samples_error(self):
        with pytest.raises(DataError):
            fit_kde([])

    def test_silverman_matches_formula(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=100)
        q75, q25 = np.percentile(s, [75, 25])
        expected = 0.9 * min(s.std(ddof=1), (q75 - q25) / 1.34) * 100 ** (-0.2)
        assert silverman_bandwidth(s) == pytest.approx(expected)


class TestFitTransitionModel:
    def test_hand_counted_prior_row(self):
        model = make_model([([L, L, M, H, H], [0.1, 0.2, 0.3, 0.4, 0.5])])
        np.testing.assert_allclose(model.prior[L], [2 / 5, 2 / 5, 1 / 5])
        # one M->H and one H->H step: add-one smoothing over one successor each
        np.testing.assert_allclose(model.prior[M], [1 / 4, 1 / 4, 1 / 2])
        np.testing.assert_allclose(model.prior[H], [1 / 4, 1 / 4, 1 / 2])

    def test_samples_keep_step_order(self):
        """Each cell keeps utterance-then-frame order and each row pools its cells by column."""
        rng = np.random.default_rng(17)
        seqs = [(rng.integers(0, 3, n), rng.normal(size=n)) for n in (40, 1, 25, 60)]
        model = make_model(seqs, min_cell_samples=1)
        cells = [[[], [], []], [[], [], []], [[], [], []]]
        for labels, values in seqs:
            normalized = (rankdata(values) - 1.0) / max(len(values) - 1.0, 1.0)
            for t in range(1, len(labels)):
                cells[labels[t - 1]][labels[t]].append(normalized[t] - normalized[t - 1])
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(model.conditional_kdes[i][j].samples, cells[i][j])
            np.testing.assert_array_equal(model.marginal_kdes[i].samples, sum(cells[i], []))

    def test_rows_are_stochastic_and_positive(self):
        rng = np.random.default_rng(5)
        seqs = [
            (rng.integers(0, 3, 40), rng.normal(size=40))
            for _ in range(4)
        ]
        model = make_model(seqs)
        np.testing.assert_allclose(model.prior.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(model.prior > 0)

    def test_sparse_cells_fall_back_to_marginal(self):
        values = np.arange(32.0)
        model = make_model([([L] * 30 + [M] * 2, values)], min_cell_samples=10)
        # L->M happened once; its KDE must be the L-row marginal
        assert model.conditional_kdes[L][M] is model.marginal_kdes[L]
        # H never appears as predecessor; its marginal is the pooled fallback,
        # fit on every consecutive-frame delta of the corpus
        pooled = model.marginal_kdes[H]
        np.testing.assert_array_equal(np.sort(pooled.samples), np.sort(np.diff(values / 31.0)))
        assert pooled is not model.marginal_kdes[L] and pooled is not model.marginal_kdes[M]
        assert all(kde is pooled for kde in model.conditional_kdes[H])
        assert kde_integral(pooled) == pytest.approx(1.0, abs=1e-3)

    def test_no_pairs_errors(self):
        with pytest.raises(DataError, match="consecutive"):
            make_model([([L], [0.5])])

    def test_no_sequences_errors(self):
        with pytest.raises(DataError, match="consecutive"):
            fit_transition_model([], [])

    def test_deltas_in_unit_interval(self):
        rng = np.random.default_rng(7)
        seqs = [(rng.integers(0, 3, 50), rng.normal(size=50)) for _ in range(3)]
        model = make_model(seqs)
        for row in model.conditional_kdes:
            for kde in row:
                assert np.all(kde.samples >= -1.0) and np.all(kde.samples <= 1.0)

    def test_raw_rank_mode_uses_unnormalized_differences(self, through_bundle):
        rng = np.random.default_rng(9)
        seqs = [(rng.integers(0, 3, 30), rng.normal(size=30)) for _ in range(2)]
        model = make_model(seqs, use_normalized_ranks=False)
        assert not model.use_normalized_ranks
        pooled = np.concatenate(
            [kde.samples for row in model.conditional_kdes for kde in row]
        )
        # raw tied-average rank differences on 30 frames exceed the [-1, 1] band
        assert np.max(np.abs(pooled)) > 1.0
        back = through_bundle(transitions=model).transitions
        assert back.use_normalized_ranks is False


class TestTransitionDistribution:
    def _any_model(self, seed=11, **kwargs):
        rng = np.random.default_rng(seed)
        values = np.cumsum(rng.normal(size=200))
        labels = np.digitize(values, np.percentile(values, [33, 66]))
        return make_model([(labels, values)], **kwargs)

    def test_outputs_are_distributions(self):
        model = self._any_model()
        rng = np.random.default_rng(13)
        for _ in range(50):
            out = transition_distribution(model, int(rng.integers(0, 3)), float(rng.uniform(-1, 1)))
            assert np.all(out >= 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uninformative_likelihood_reduces_to_prior(self):
        model = self._any_model()
        shared = fit_kde(np.linspace(-0.5, 0.5, 30))
        flat = replace(
            model,
            conditional_kdes=tuple(tuple(shared for _ in range(3)) for _ in range(3)),
            marginal_kdes=(shared, shared, shared),
        )
        for prev in range(3):
            out = transition_distribution(flat, prev, 0.123)
            np.testing.assert_allclose(out, model.prior[prev], atol=1e-9)

    def test_matches_bayes_quotient_with_row_marginal(self):
        # the full rule P(d|i,j) P(j|i) / P(d|i), renormalized: dividing by the
        # row marginal scales a whole row, so dropping it changes nothing
        model = self._any_model()
        deltas = np.random.default_rng(17).uniform(-1, 1, 40)
        expected = np.empty((deltas.size, 3, 3))
        for i in range(3):
            marginal = kde_density(model.marginal_kdes[i], deltas)
            for j in range(3):
                expected[:, i, j] = (
                    kde_density(model.conditional_kdes[i][j], deltas) * model.prior[i, j] / marginal
                )
        expected /= expected.sum(axis=2, keepdims=True)
        np.testing.assert_allclose(transition_matrices(model, deltas), expected, rtol=0, atol=1e-12)

    def test_large_negative_delta_boosts_downward_transition(self):
        # construct sequences where high-to-low transitions coincide with large
        # negative rank differences, mirroring the trained-density shape
        rng = np.random.default_rng(19)
        seqs = []
        for _ in range(6):
            values = np.concatenate([rng.uniform(0.8, 1.0, 20), rng.uniform(0.0, 0.2, 20)])
            labels = np.array([H] * 20 + [L] * 20)
            seqs.append((labels, values))
        model = make_model(seqs, min_cell_samples=5)
        out = transition_distribution(model, H, -0.6)
        assert out[L] > model.prior[H, L]

    def test_scalar_matches_batch(self):
        model = self._any_model()
        deltas = np.linspace(-0.9, 0.9, 7)
        batch = transition_matrices(model, deltas)
        for t, d in enumerate(deltas):
            for prev in range(3):
                np.testing.assert_array_equal(
                    transition_distribution(model, prev, d), batch[t, prev]
                )

    def test_round_trip_serialization(self, through_bundle):
        model = self._any_model()
        back = through_bundle(transitions=model).transitions
        np.testing.assert_array_equal(back.prior, model.prior)
        np.testing.assert_array_equal(
            back.conditional_kdes[0][1].samples, model.conditional_kdes[0][1].samples
        )
        def kdes(m):
            return [(k.samples.tolist(), k.bandwidth) for k in [*sum(m.conditional_kdes, ()), *m.marginal_kdes]]

        assert kdes(back) == kdes(model)
        assert back.use_normalized_ranks is model.use_normalized_ranks


class TestDistinctDeltas:
    """transition_matrices evaluates the densities once per distinct rank difference."""

    @staticmethod
    def _model_and_deltas():
        rng = np.random.default_rng(23)
        values = np.cumsum(rng.normal(size=120))
        labels = np.digitize(values, np.percentile(values, [33, 66]))
        model = make_model([(labels, values)])
        utterance = RolSequence.from_ranks("u", rankdata(values, method="average")).deltas(True)
        deltas = np.concatenate([
            np.full(50, 0.125),
            [0.0, -0.0, 0.0, -0.0],
            utterance,
            rng.uniform(-1, 1, 17),
            utterance,
        ])
        return model, deltas

    def test_equals_each_delta_evaluated_alone(self):
        model, deltas = self._model_and_deltas()
        alone = np.empty((deltas.size, 3, 3))
        for t, d in enumerate(deltas):
            for i in range(3):
                for j in range(3):
                    alone[t, i, j] = kde_density(model.conditional_kdes[i][j], d) * model.prior[i, j]
            alone[t] /= alone[t].sum(axis=1, keepdims=True)
        assert np.array_equal(transition_matrices(model, deltas), alone)

    def test_one_density_query_per_distinct_delta(self, monkeypatch):
        model, deltas = self._model_and_deltas()
        distinct = np.unique(deltas).size
        assert distinct < deltas.size / 2
        sizes = []

        def counting(kde, delta):
            sizes.append(np.size(delta))
            return kde_density(kde, delta)

        monkeypatch.setattr("domm.transitions.kde_density", counting)
        transition_matrices(model, deltas)
        assert sizes == [distinct] * 9
