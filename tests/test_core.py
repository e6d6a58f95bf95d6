import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from domm.core import (
    AnnotationSet,
    AolSequence,
    DataError,
    RolSequence,
    average_ranks,
    canonical_json,
    format_float,
    json_numbers,
    later_lower_counts,
    load_manifest,
    parse_annotations,
    parse_features,
    read_aol_csv,
    read_json,
    read_rol_csv,
    write_aol_csv,
    write_csv,
    write_rol_csv,
)
from oracles import later_lower_loop, per_cell_csv_matrix


def test_parse_features_basic(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("#utterance_id=u1\nf0,f1\n1.0,2.0\n3.0,4.0\n0.5,-0.5\n")
    uf = parse_features(path)
    assert uf.utterance_id == "u1"
    assert uf.frames.shape == (3, 2)
    np.testing.assert_array_equal(uf.frames[0], [1.0, 2.0])


def test_parse_features_nan_cell_names_position(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0,NaN\n")
    with pytest.raises(DataError, match="row 2.*'f1'"):
        parse_features(path)


def test_parse_features_ragged_row(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="row 2"):
        parse_features(path)


def test_parse_features_empty_file(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        parse_features(path)


def test_parse_features_88_columns(tmp_path):
    # dimensionality of the standard acoustic feature set this pipeline ingests
    header = ",".join(f"f{i}" for i in range(88))
    row = ",".join("0.0" for _ in range(88))
    path = tmp_path / "u.csv"
    path.write_text(f"{header}\n{row}\n")
    assert parse_features(path).n_dims == 88


def test_parse_annotations_six_raters(tmp_path):
    path = tmp_path / "a.csv"
    rows = "\n".join(",".join("0.1" for _ in range(6)) for _ in range(4))
    path.write_text("#period_s=0.04\n" + ",".join(f"r{i}" for i in range(6)) + "\n" + rows + "\n")
    ann = parse_annotations(path, (-1.0, 1.0))
    assert ann.n_annotators == 6
    assert ann.n_samples == 4
    assert ann.period_s == 0.04


def test_parse_annotations_range_check(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("#period_s=0.04\nr0\n0.5\n1.2\n")
    with pytest.raises(DataError, match="range"):
        parse_annotations(path, (-1.0, 1.0))


def test_parse_annotations_single_column_ok(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("#period_s=1.0\nr0\n0.5\n-0.5\n")
    assert parse_annotations(path, (-1.0, 1.0)).n_annotators == 1


def test_parse_annotations_requires_period(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("r0\n0.5\n")
    with pytest.raises(DataError, match="period_s"):
        parse_annotations(path, (-1.0, 1.0))


def test_rol_sequence_from_ranks():
    rol = RolSequence.from_ranks("u", [1.0, 3.0, 2.0])
    np.testing.assert_allclose(rol.normalized, [0.0, 1.0, 0.5])
    singleton = RolSequence.from_ranks("u", [1.0])
    np.testing.assert_allclose(singleton.normalized, [0.5])


@pytest.mark.parametrize("n", [1, 2, 17, 615, 3000])
def test_average_ranks_equal_scipy_rankdata_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for values in (
        rng.integers(0, 5, n),  # heavy ties
        rng.integers(-n, n + 1, n),  # Copeland-score-like integers
        np.round(rng.normal(size=n), 1),  # tied floats
        rng.normal(size=n),  # almost surely tie-free
        np.zeros(n),  # one block of ties
    ):
        ours = average_ranks(values)
        expected = rankdata(values, method="average")
        assert ours.dtype == expected.dtype
        assert ours.tobytes() == expected.tobytes()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    n=st.one_of(st.integers(0, 70), st.integers(0, 300)),
    levels=st.sampled_from([1, 2, 3, 7, 50, 10**6]),
    signed_zeros=st.booleans(),
    negate=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_later_lower_counts_equal_the_pair_loop(n, levels, signed_zeros, negate, seed):
    """Exact counts across the 64-item direct cutoff, under heavy ties, -0.0 against 0.0 and negated ranks."""
    rng = np.random.default_rng(seed)
    values = average_ranks(rng.integers(0, levels, n))
    if signed_zeros:
        zeroed = rng.random(n) < 0.5
        values[zeroed] = np.where(rng.random(np.count_nonzero(zeroed)) < 0.5, -0.0, 0.0)
    if negate:
        values = -values
    got = later_lower_counts(values)
    assert got.dtype.kind == "i"
    np.testing.assert_array_equal(got, later_lower_loop(values))


def test_rol_sequence_rejects_non_ranking():
    # all but the first have the sum of a ranking of their length
    for ranks in ([1.0, 1.0, 1.0], [-5.0, 5.5, 5.5], [0.5, 2.5, 3.0], [1.0, 1.0, 4.0], [1.5, 1.5, 2.0, 5.0]):
        with pytest.raises(DataError, match="tied-average"):
            RolSequence.from_ranks("u", ranks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rol_sequence_rejects_non_finite_ranks(bad):
    with pytest.raises(DataError, match="non-finite"):
        RolSequence.from_ranks("u", [1.0, bad, 3.0])


def test_rol_sequence_deltas_of_normalized_or_raw_ranks():
    rol = RolSequence.from_ranks("u", [1.0, 5.0, 3.0, 2.0, 4.0])
    np.testing.assert_array_equal(rol.deltas(normalized=True), np.diff(rol.normalized))
    np.testing.assert_array_equal(rol.deltas(normalized=False), [4.0, -2.0, -1.0, 2.0])
    assert RolSequence.from_ranks("u", [1.0]).deltas(normalized=True).size == 0


@pytest.mark.parametrize(
    "rows",
    [["1,0.0", "2,0.5", "3,0.5"], ["1,0.0", "2,0.5", "3,1.0000000000000002"], ["1,0.0"]],
    ids=["wrong", "one-ulp-off", "singleton-not-0.5"],
)
def test_read_rol_csv_rejects_a_normalized_cell_its_rank_does_not_give(tmp_path, rows):
    path = tmp_path / "r.rol.csv"
    path.write_text("\n".join(["rank,normalized", *rows]) + "\n")
    with pytest.raises(DataError, match=f"row {len(rows)} has normalized"):
        read_rol_csv(path)


def test_json_numbers_accepts_only_json_numbers():
    nested = [[1, 0.5], [-2, 3e-300]]
    out = json_numbers(nested)
    assert out.dtype == float
    np.testing.assert_array_equal(out, np.asarray(nested, dtype=float))
    assert json_numbers([3, 1, 1], integral=True).tolist() == [3, 1, 1]
    assert float(json_numbers(2)) == 2.0
    for bad in ("0.5", True, None, [1.0, "2"], [1.0, False], [[1.0], [{}]]):
        with pytest.raises(TypeError, match="expected JSON numbers"):
            json_numbers(bad)
    for bad in (4.0, [2.7, 1, 1], [True, 1, 1]):
        with pytest.raises(TypeError, match="expected JSON integers"):
            json_numbers(bad, integral=True)


def test_aol_sequence_rejects_bad_codes():
    with pytest.raises(DataError):
        AolSequence("u", np.array([0, 3]))


def test_format_float_lossless_and_typed():
    for x in [0.1, 1.0, -0.0, 1e-300, 123456789.123456789, 2.0 / 3.0]:
        s = format_float(x)
        assert float(s) == x
        assert "." in s or "e" in s


def test_canonical_json_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [1.0, 0.5], "c": None, "d": True})
    b = canonical_json({"d": True, "c": None, "a": [1.0, 0.5], "b": 1})
    assert a == b
    assert a == '{"a":[1.0,0.5],"b":1,"c":null,"d":true}'


JSON_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e16, 1e16 + 2, 1e17, -1e17, 5e-324, 2.2250738585072014e-308 / 3]),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(JSON_FLOATS, max_size=12))
def test_canonical_json_float_list_matches_the_per_item_path(values):
    # numpy scalars are not of type float, so they take the per-item recursion
    assert canonical_json(values) == canonical_json([np.float64(v) for v in values])


def test_aol_rol_csv_round_trip(tmp_path):
    aol = AolSequence("utt_3", np.array([0, 1, 2, 1]))
    write_aol_csv(aol, tmp_path / "a.csv")
    back = read_aol_csv(tmp_path / "a.csv")
    assert back.utterance_id == "utt_3"
    np.testing.assert_array_equal(back.labels, aol.labels)

    rol = RolSequence.from_ranks("utt_3", [2.0, 1.0, 4.0, 3.0])
    write_rol_csv(rol, tmp_path / "r.csv")
    back = read_rol_csv(tmp_path / "r.csv")
    np.testing.assert_array_equal(back.ranks, rol.ranks)
    np.testing.assert_array_equal(back.normalized, rol.normalized)


@pytest.mark.parametrize("row", ["2,2,junk", "2,"])
def test_read_aol_csv_rejects_extra_cells(tmp_path, row):
    path = tmp_path / "a.aol.csv"
    path.write_text(f"aol\n0\n{row}\n")
    with pytest.raises(DataError, match="row 2 has [23] cells, expected 1"):
        read_aol_csv(path)


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "n", "x"], [("a", 3, 0.5), ("b", np.int64(4), np.float64(2.0))],
              utterance_id="u", period_s=0.04, skipped=None)
    assert path.read_bytes() == (
        b"#utterance_id=u\n#period_s=0.040000000000000001\nname,n,x\na,3,0.5\nb,4,2.0\n"
    )


EDGE_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 3.0, 0.5, 0.1, 1e-5, 1e16, -1e16, 1e16 + 2, 2.0**53, 1e17, -1e17,
    123456789.5, 2.2250738585072014e-308 / 3, 5e-324, -5e-324, 1.7e308, -1.7e308,
]
EDGE_CELLS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-1000, 1000).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


@settings(
    derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(0, 5)), elements=EDGE_CELLS))
def test_write_csv_float_matrix_writes_the_per_cell_bytes(tmp_path, matrix):
    """A float array takes a row template; the same values as Python lists go cell by cell."""
    header = [f"f{k}" for k in range(matrix.shape[1])]
    outcomes = []
    for name, rows in (("array.csv", matrix), ("cells.csv", matrix.tolist())):
        try:
            write_csv(tmp_path / name, header, rows, utterance_id="u")
            outcomes.append((tmp_path / name).read_bytes())
        except DataError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


CSV_CELLS = st.one_of(
    st.sampled_from(
        ["1_000", "\uff11", " 1.5 ", "\t-2", "\u30003\u3000", "", " ", "nan", "NaN", "inf", "-Infinity",
         "1e309", "-1e309", "-0.0", "#", "1e-320", "0x10", "+.5", "5.", "1 2", "abc"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
)
CSV_ROWS = st.one_of(
    st.lists(CSV_CELLS, min_size=3, max_size=3),
    st.lists(st.floats(-1e3, 1e3).map(repr), min_size=3, max_size=3),
    st.lists(CSV_CELLS, min_size=1, max_size=5),
)


@settings(
    derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.lists(CSV_ROWS, max_size=6))
def test_bulk_parse_matches_the_per_cell_parse(tmp_path, rows):
    """The same matrix, or the same DataError message, as one ``float`` call per stripped cell."""
    path = tmp_path / "u.csv"
    path.write_text("#utterance_id=u\nf0, f1 ,f2\n" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    outcomes = []
    for parse in (lambda p: parse_features(p).frames, per_cell_csv_matrix):
        try:
            matrix = parse(path)
            outcomes.append((matrix.shape, matrix.tobytes()))
        except DataError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_write_csv_keeps_the_point_on_integral_cells(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], np.array([[0.25, -0.0], [1e16, 0.5], [0.5, 1e17]]))
    assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
        "0.25,-0.0", "10000000000000000.0,0.5", "0.5,1e+17"
    ]


def test_non_utf8_inputs_raise_data_error(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(DataError, match="cannot load config"):
        read_json(path, "config")
    with pytest.raises(DataError, match="cannot read"):
        parse_features(path)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_read_json_rejects_non_finite_numbers(tmp_path, number):
    path = tmp_path / "config.json"
    path.write_text('{"window_s": %s}' % number)
    with pytest.raises(DataError, match="non-finite number"):
        read_json(path, "config")


@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
def test_bad_period_metadata_raises_data_error(tmp_path, value):
    # feature files carry the frame period only as an unread note
    features = tmp_path / "f.csv"
    features.write_text(f"#frame_period_s={value}\nf0\n1.0\n")
    np.testing.assert_array_equal(parse_features(features).frames, [[1.0]])
    annotations = tmp_path / "a.csv"
    annotations.write_text(f"#period_s={value}\nr0\n0.0\n")
    with pytest.raises(DataError, match="'#period_s=' must be a finite number"):
        parse_annotations(annotations, (-1.0, 1.0))


def _write_minimal_manifest(tmp_path, split_b="test"):
    (tmp_path / "f0.csv").write_text("f0\n1.0\n")
    (tmp_path / "a0.csv").write_text("#period_s=1.0\nr0\n0.0\n")
    manifest = {
        "dataset_name": "toy",
        "dimension_name": "arousal",
        "value_range": [-1.0, 1.0],
        "preprocessing": {"delay_s": 0.0, "window_s": 1.0, "overlap": 0.0},
        "thresholds": {"theta1": -0.1, "theta2": 0.1, "boundary_mode": "text-rule"},
        "utterances": [
            {"utterance_id": "u0", "features": "f0.csv", "annotations": "a0.csv", "split": "train"},
            {"utterance_id": "u1", "features": "f0.csv", "annotations": "a0.csv", "split": split_b},
        ],
    }
    import json

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_load_manifest(tmp_path):
    m = load_manifest(_write_minimal_manifest(tmp_path))
    assert [u.utterance_id for u in m.split_entries("train")] == ["u0"]
    assert m.split_tags() == ["train", "test"]


def test_empty_split_raises(tmp_path):
    m = load_manifest(_write_minimal_manifest(tmp_path))
    with pytest.raises(DataError, match="no utterances in split 'nosuch'"):
        m.split_entries("nosuch")


def test_load_manifest_duplicate_id(tmp_path):
    path = _write_minimal_manifest(tmp_path)
    import json

    raw = json.loads(path.read_text())
    raw["utterances"][1]["utterance_id"] = "u0"
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="duplicate"):
        load_manifest(path)


@pytest.mark.parametrize("key", ["utterance_id", "split"])
@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b", "a\0b"])
def test_load_manifest_rejects_names_that_are_not_plain_file_names(tmp_path, key, name):
    path = _write_minimal_manifest(tmp_path)
    import json

    raw = json.loads(path.read_text())
    raw["utterances"][1][key] = name
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="is not a plain file name"):
        load_manifest(path)


@pytest.mark.parametrize("value_range", [[1.0, -1.0], [0.5, 0.5]])
def test_load_manifest_rejects_inverted_value_range(tmp_path, value_range):
    path = _write_minimal_manifest(tmp_path)
    import json

    raw = json.loads(path.read_text())
    raw["value_range"] = value_range
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="value_range"):
        load_manifest(path)


def test_annotation_set_validates_shape():
    with pytest.raises(DataError):
        AnnotationSet("u", np.empty((0, 3)), 1.0, (-1, 1))
