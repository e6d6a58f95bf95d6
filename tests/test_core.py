import numpy as np
import pytest
from scipy.stats import rankdata

from domm.core import (
    AnnotationSet,
    AolSequence,
    DataError,
    RolSequence,
    average_ranks,
    canonical_json,
    format_float,
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


def test_rol_sequence_rejects_non_ranking():
    with pytest.raises(DataError, match="tied-average"):
        RolSequence.from_ranks("u", [1.0, 1.0, 1.0])


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


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "n", "x"], [("a", 3, 0.5), ("b", np.int64(4), np.float64(2.0))],
              utterance_id="u", period_s=0.04, skipped=None)
    assert path.read_bytes() == (
        b"#utterance_id=u\n#period_s=0.040000000000000001\nname,n,x\na,3,0.5\nb,4,2.0\n"
    )


def test_non_utf8_inputs_raise_data_error(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(DataError, match="cannot load config"):
        read_json(path, "config")
    with pytest.raises(DataError, match="cannot read"):
        parse_features(path)


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


def test_annotation_set_validates_shape():
    with pytest.raises(DataError):
        AnnotationSet("u", np.empty((0, 3)), 1.0, (-1, 1))
