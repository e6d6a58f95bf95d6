import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domm.core import AnnotationSet, AolSequence, DataError, Preprocessing
from domm.labels import (
    BLOCK_ROWS,
    DECREASE,
    INCREASE,
    TIE,
    UNDECIDED,
    ThresholdConfig,
    comparison_matrix,
    consensus_aol,
    convert_annotation_set,
    inter_rater_agreement,
    interval_to_aol,
    label_balance,
    preprocess_annotations,
    qa_consensus,
    ranks_from_consensus,
    sweep_thresholds,
)
from oracles import consensus_vote_loop, dense_consensus_ranks, window_means_loop

L, M, H = 0, 1, 2


def make_annotations(series_list, period=0.04, value_range=(-1.0, 1.0), uid="u"):
    return AnnotationSet(uid, np.asarray(series_list, dtype=float), period, value_range)


def aol(labels, uid="u"):
    return AolSequence(uid, np.asarray(labels))


def tied_series(seed, n_annotators, n_frames, steps):
    """Random walks in [-1, 1] rounded to multiples of 1/steps, so most frames tie."""
    rng = np.random.default_rng(seed)
    walks = np.cumsum(rng.normal(size=(n_annotators, n_frames)), axis=1)
    return np.round(walks / max(1.0, np.abs(walks).max()) * steps) / steps


class TestPreprocess:
    def test_window_count_matches_enumeration(self):
        # 100 samples, window 25, hop 12 -> floor((100-25)/12)+1 = 7 windows
        rng = np.random.default_rng(0)
        series = rng.uniform(-1, 1, 100)
        ann = make_annotations([series], period=0.04)
        out = preprocess_annotations(ann, Preprocessing(0.0, 1.0, 0.52))
        assert out.n_samples == 7
        # independent enumeration oracle
        expected = [series[s : s + 25].mean() for s in range(0, 100 - 25 + 1, 12)]
        np.testing.assert_allclose(out.values[0], expected, atol=1e-12)

    def test_whole_series_window_is_global_mean(self):
        series = np.linspace(-0.5, 0.5, 40)
        ann = make_annotations([series], period=1.0)
        out = preprocess_annotations(ann, Preprocessing(0.0, 40.0, 0.0))
        assert out.n_samples == 1
        np.testing.assert_allclose(out.values[0, 0], series.mean())

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        n_annotators=st.integers(1, 6),
        delay=st.integers(0, 20),
        window=st.integers(1, 400),
        extra=st.integers(0, 500),
        hop_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_window_means_are_bitwise_the_per_window_loop(self, n_annotators, delay, window, extra, hop_share, seed):
        hop = 1 + round(hop_share * (window - 1))  # overlap in [0, 1) keeps the hop within the window
        values = np.random.default_rng(seed).uniform(-1, 1, (n_annotators, delay + window + extra))
        out = preprocess_annotations(make_annotations(values, period=1.0), Preprocessing(delay, window, 1 - hop / window))
        assert out.period_s == hop
        want = np.clip(window_means_loop(values[:, delay:], window, hop), -1.0, 1.0)
        assert out.values.tobytes() == want.tobytes() and out.values.shape == want.shape

    def test_constant_series_stays_constant(self):
        ann = make_annotations([np.full(50, 0.3)], period=1.0)
        out = preprocess_annotations(ann, Preprocessing(3.0, 5.0, 0.5))
        np.testing.assert_allclose(out.values, 0.3)

    def test_delay_drops_leading_samples(self):
        series = np.arange(10) / 10.0
        ann = make_annotations([series], period=1.0)
        out = preprocess_annotations(ann, Preprocessing(4.0, 1.0, 0.0))
        np.testing.assert_allclose(out.values[0], series[4:])

    def test_window_longer_than_series_errors(self):
        ann = make_annotations([np.zeros(10)], period=1.0)
        with pytest.raises(DataError, match="exceeds"):
            preprocess_annotations(ann, Preprocessing(5.0, 6.0, 0.0))

    def test_commutes_with_constant_shift(self):
        rng = np.random.default_rng(1)
        series = rng.uniform(-0.4, 0.4, 80)
        base = preprocess_annotations(
            make_annotations([series], period=0.5), Preprocessing(2.0, 4.0, 0.25)
        )
        shifted = preprocess_annotations(
            make_annotations([series + 0.1], period=0.5), Preprocessing(2.0, 4.0, 0.25)
        )
        np.testing.assert_allclose(shifted.values, base.values + 0.1, atol=1e-12)

    def test_five_minute_trace_window_count(self):
        # 5-minute trace at 40 ms, 4 s delay, 1 s windows, 50% overlap -> 615 windows
        ann = make_annotations([np.zeros(7500)], period=0.04)
        out = preprocess_annotations(ann, Preprocessing(4.0, 1.0, 0.5))
        assert out.n_samples == 615


class TestIntervalToAol:
    def test_table_half_open_boundaries(self):
        cfg = ThresholdConfig(2.5, 3.5, "table-half-open")
        np.testing.assert_array_equal(
            interval_to_aol([1.0, 2.4999, 2.5, 3.4999, 3.5, 5.0], cfg).labels,
            [L, L, M, M, H, H],
        )

    def test_text_rule_boundaries(self):
        cfg = ThresholdConfig(-0.15, 0.15, "text-rule")
        np.testing.assert_array_equal(
            interval_to_aol([-0.15, 0.15, 0.1501], cfg).labels, [L, M, H]
        )

    def test_monotone_in_value(self):
        rng = np.random.default_rng(2)
        values = np.sort(rng.uniform(-1, 1, 200))
        for mode in ("text-rule", "table-half-open"):
            labels = interval_to_aol(values, ThresholdConfig(-0.2, 0.1, mode)).labels
            assert np.all(np.diff(labels) >= 0)


class TestConsensus:
    def test_strict_plurality(self):
        seqs = [aol([x]) for x in (L, L, L, H, H, M)]
        assert consensus_aol(seqs).labels[0] == L

    def test_symmetric_tie_falls_back_to_medium(self):
        seqs = [aol([x]) for x in (L, L, L, H, H, H)]
        assert consensus_aol(seqs).labels[0] == M

    def test_three_way_tie_prefers_closest_to_mean(self):
        seqs = [aol([x]) for x in (L, L, M, M, H, H)]
        assert consensus_aol(seqs).labels[0] == M

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            consensus_aol([aol([L, M]), aol([L])])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        # even annotator counts make tied votes, and equidistant ties, common
        n_annotators=st.sampled_from([1, 2, 3, 4, 6, 8]),
        n_frames=st.integers(1, 200),
        n_codes=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_equals_per_frame_vote_loop(self, n_annotators, n_frames, n_codes, seed):
        rng = np.random.default_rng(seed)
        codes = rng.permutation(3)[:n_codes]
        stack = rng.choice(codes, size=(n_annotators, n_frames))
        out = consensus_aol([aol(row) for row in stack]).labels
        np.testing.assert_array_equal(out, consensus_vote_loop(stack))


class TestBalanceAndAgreement:
    def test_gamma_values(self):
        assert label_balance(aol([L] * 10 + [M] * 10 + [H] * 10)) == 0.0
        assert label_balance(aol([L] * 30)) == 1.0
        assert label_balance(aol([L] * 5 + [M] * 3 + [H] * 2)) == pytest.approx(0.3)

    def test_agreement_values(self):
        identical = [aol([L, M, H])] * 6
        assert inter_rater_agreement(identical) == 1.0
        split_33 = [aol([L])] * 3 + [aol([H])] * 3
        assert inter_rater_agreement(split_33) == 0.0
        votes_411 = [aol([L])] * 4 + [aol([M]), aol([H])]
        assert inter_rater_agreement(votes_411) == 1.0

    def test_empty_errors(self):
        with pytest.raises(DataError):
            label_balance([])


class TestSweep:
    def test_single_config_consistent_with_components(self):
        rng = np.random.default_rng(3)
        ann = make_annotations(rng.uniform(-1, 1, size=(6, 50)))
        cfg = ThresholdConfig(-0.2, 0.2)
        [row] = sweep_thresholds([ann], [cfg])
        per_ann = [interval_to_aol(ann.values[r], cfg) for r in range(6)]
        assert row.gamma_mean == pytest.approx(np.mean([label_balance(s) for s in per_ann]))
        assert row.agreement == pytest.approx(inter_rater_agreement(per_ann))

    def test_symmetric_grid_has_seven_rows(self):
        rng = np.random.default_rng(4)
        ann = make_annotations(rng.uniform(-1, 1, size=(6, 100)))
        grid = [
            ThresholdConfig(-t2, t2) for t2 in np.arange(0.08, 0.2001, 0.02)
        ]
        rows = sweep_thresholds([ann], grid)
        assert len(rows) == 7
        assert all(0 <= r.gamma_mean <= 1 and 0 <= r.agreement <= 1 for r in rows)

    def test_degenerate_threshold_gives_perfect_agreement(self):
        rng = np.random.default_rng(5)
        ann = make_annotations(rng.uniform(-0.9, 0.9, size=(6, 100)))
        [row] = sweep_thresholds([ann], [ThresholdConfig(-0.95, 0.95)])
        assert row.agreement == 1.0
        assert row.gamma_mean == pytest.approx(1.0)

    def test_empty_grid_errors(self):
        with pytest.raises(DataError, match="grid"):
            sweep_thresholds([make_annotations([np.zeros(3)])], [])

    def test_different_annotator_counts_error(self):
        sets = [make_annotations(np.zeros((2, 5))), make_annotations(np.zeros((3, 5)))]
        with pytest.raises(DataError, match=r"annotator counts \[2, 3\]"):
            sweep_thresholds(sets, [ThresholdConfig(-0.2, 0.2)])


class TestComparisonMatrix:
    def test_monotone_series(self):
        m = comparison_matrix([0.1, 0.2, 0.3])
        assert np.all(m[np.triu_indices(3, k=1)] == INCREASE)
        assert np.all(np.diag(m) == TIE)

    def test_constant_series_all_ties(self):
        assert np.all(comparison_matrix([0.4, 0.4, 0.4]) == TIE)

    def test_hand_enumerated_entries(self):
        m = comparison_matrix([0.1, 0.3, 0.2])
        assert m[0, 1] == INCREASE and m[0, 2] == INCREASE and m[1, 2] == DECREASE

    def test_antisymmetry(self):
        rng = np.random.default_rng(6)
        m = comparison_matrix(rng.uniform(size=20), eps_tie=0.05)
        assert np.all((m == -m.T) | ((m == TIE) & (m.T == TIE)))

    def test_row_block_is_slice_of_whole_matrix(self):
        v = np.round(np.random.default_rng(10).uniform(size=30), 1)
        whole = comparison_matrix(v, 0.1)
        for rows in (slice(0, 7), slice(7, 30), slice(25, 40)):
            np.testing.assert_array_equal(comparison_matrix(v, 0.1, rows), whole[rows])

    @pytest.mark.parametrize("eps", [-0.1, float("nan")])
    def test_negative_or_nan_eps_errors(self, eps):
        with pytest.raises(DataError, match="eps_tie"):
            comparison_matrix([0.1, 0.2], eps)


class TestQaConsensus:
    def test_majority_vote_cell(self):
        up = comparison_matrix([0.0, 1.0])
        down = comparison_matrix([1.0, 0.0])
        assert qa_consensus([up, up, down])[0, 1] == INCREASE

    def test_no_majority_is_undecided(self):
        up = comparison_matrix([0.0, 1.0])
        down = comparison_matrix([1.0, 0.0])
        tie = comparison_matrix([0.5, 0.5])
        out = qa_consensus([up, down, tie])
        assert out[0, 1] == UNDECIDED

    def test_identity_on_repeated_decided_matrix(self):
        rng = np.random.default_rng(7)
        m = comparison_matrix(rng.uniform(size=12))
        for k in (1, 3, 5):
            np.testing.assert_array_equal(qa_consensus([m] * k), m)

    def test_three_annotator_hand_example(self):
        series = ([0.1, 0.2, 0.3], [0.1, 0.3, 0.2], [0.2, 0.1, 0.3])
        consensus = qa_consensus([comparison_matrix(s) for s in series])
        assert consensus[0, 1] == INCREASE
        assert consensus[0, 2] == INCREASE
        assert consensus[1, 2] == INCREASE
        ranks = ranks_from_consensus(consensus)
        np.testing.assert_array_equal(ranks.ranks, [1.0, 2.0, 3.0])


class TestRanksFromConsensus:
    def test_strictly_increasing_series_gives_identity_ranks(self):
        rng = np.random.default_rng(8)
        for t in (1, 2, 5, 17):
            values = np.sort(rng.uniform(size=t))
            ranks = ranks_from_consensus(comparison_matrix(values))
            np.testing.assert_array_equal(ranks.ranks, np.arange(1, t + 1))

    def test_all_tie_matrix_gives_average_ranks(self):
        m = np.zeros((4, 4), dtype=np.int8)
        ranks = ranks_from_consensus(m)
        np.testing.assert_array_equal(ranks.ranks, [2.5, 2.5, 2.5, 2.5])

    def test_intransitive_cycle_is_fully_tied(self):
        # a beats b, b beats c, c beats a: entry(i, j) = INCREASE means j > i
        m = np.zeros((3, 3), dtype=np.int8)
        m[1, 0], m[0, 1] = INCREASE, DECREASE  # a > b
        m[2, 1], m[1, 2] = INCREASE, DECREASE  # b > c
        m[0, 2], m[2, 0] = INCREASE, DECREASE  # c > a
        ranks = ranks_from_consensus(m)
        np.testing.assert_array_equal(ranks.ranks, [2.0, 2.0, 2.0])

    def test_undecided_cells_do_not_count(self):
        m = np.full((2, 2), UNDECIDED, dtype=np.int8)
        np.fill_diagonal(m, TIE)
        ranks = ranks_from_consensus(m)
        np.testing.assert_array_equal(ranks.ranks, [1.5, 1.5])

    def test_row_blocks_sum_to_whole_matrix(self):
        series = tied_series(12, 5, 40, steps=3)
        consensus = qa_consensus([comparison_matrix(v) for v in series])
        blocks = (consensus[i : i + 9] for i in range(0, 40, 9))
        whole = ranks_from_consensus(consensus)
        np.testing.assert_array_equal(ranks_from_consensus(blocks).ranks, whole.ranks)
        np.testing.assert_array_equal(ranks_from_consensus(consensus.tolist()).ranks, whole.ranks)


def test_convert_annotation_set_end_to_end():
    rng = np.random.default_rng(9)
    base = np.cumsum(rng.normal(size=60)) / 10
    base = np.clip(base, -1, 1)
    series = [np.clip(base + rng.normal(scale=0.02, size=60), -1, 1) for _ in range(5)]
    ann = make_annotations(series)
    cfg = ThresholdConfig(-0.3, 0.3)
    pre = Preprocessing(0.0, 0.2, 0.0, eps_tie=0.01)
    consensus, ranks, per_annotator = convert_annotation_set(ann, cfg, pre)
    smoothed = preprocess_annotations(ann, pre).values
    np.testing.assert_array_equal(ranks.ranks, dense_consensus_ranks(smoothed, 0.01))
    np.testing.assert_array_equal(
        consensus.labels, consensus_aol([interval_to_aol(v, cfg) for v in smoothed]).labels
    )
    assert [s.labels.tolist() for s in per_annotator] == [
        interval_to_aol(v, cfg).labels.tolist() for v in smoothed
    ]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n_annotators=st.sampled_from(range(1, 8)),
    # at least half the draws span two or three blocks, most with a partial last one
    n_frames=st.one_of(st.integers(1, 600), st.integers(BLOCK_ROWS + 1, 600)),
    steps=st.integers(1, 6),
    eps_tie=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_blocked_ranks_equal_dense_consensus(n_annotators, n_frames, steps, eps_tie, seed):
    values = tied_series(seed, n_annotators, n_frames, steps)
    ann = make_annotations(values, period=1.0)
    _, ranks, _ = convert_annotation_set(ann, ThresholdConfig(-0.3, 0.3), Preprocessing(0.0, 1.0, 0.0, eps_tie))
    np.testing.assert_array_equal(ranks.ranks, dense_consensus_ranks(values, eps_tie))


def test_convert_peak_memory_under_40mb_at_3000_frames():
    """R=6 whole matrices at T=3000 would take 54 MB as int8, before any vote count."""
    assert BLOCK_ROWS < 3000
    ann = make_annotations(tied_series(13, 6, 3000, steps=20), period=1.0)
    tracemalloc.start()
    try:
        convert_annotation_set(ann, ThresholdConfig(-0.3, 0.3), Preprocessing(0.0, 1.0, 0.0, 0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6
