"""File formats: structures, fields, measures, random variables, reports."""

import json

import numpy as np
import pytest

from starprob import SPStructure
from starprob.errors import FormatError
from starprob.io import (
    dump_json,
    field_to_dict,
    load_field,
    load_measure,
    load_rv,
    load_structure,
    parse_point,
    parse_subspace,
)


def test_structure_round_trip(tmp_path):
    for spec in ({"kind": "classical", "n": 5},
                 {"kind": "ray", "d": 3},
                 {"kind": "explicit", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                  "points": ["a", "b"]}):
        path = tmp_path / "st.json"
        path.write_text(json.dumps(spec))
        st = load_structure(path)
        d = st.to_dict()
        assert d["kind"] == spec["kind"]
        # a dict emitted by the library loads back to the same structure
        path.write_text(dump_json(d))
        again = load_structure(path)
        assert again.to_dict() == d


def test_fixture_structures_load(fixture_dir):
    assert load_structure(fixture_dir / "classical4.json").n == 4
    assert load_structure(fixture_dir / "ray3.json").d == 3
    wheel = load_structure(fixture_dir / "explicit4.json")
    assert wheel.labels == ("r0", "r45", "r90", "r135")


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "st.json"
    path.write_text(json.dumps({"kind": "hilbert", "d": 2}))
    with pytest.raises(FormatError):
        load_structure(path)


@pytest.mark.parametrize("spec", [
    {"kind": "ray", "d": "abc"},
    {"kind": "ray", "d": 2.0},
    {"kind": "ray", "d": True},
    {"kind": "classical", "n": 2.7},
    {"kind": "classical", "n": "4"},
    {"kind": "classical"},
], ids=["ray-d-string", "ray-d-float", "ray-d-bool", "classical-n-float",
        "classical-n-string", "classical-n-missing"])
def test_structure_size_must_be_a_json_integer(tmp_path, spec):
    path = tmp_path / "st.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(FormatError):
        load_structure(path)


def test_missing_file_rejected():
    with pytest.raises(FormatError):
        load_structure("nope/does_not_exist.json")


def test_parse_point_literals():
    ray = SPStructure.ray(2)
    cls = SPStructure.classical(4)
    v = parse_point(ray, [3.0, 4.0])
    assert np.allclose(np.abs(v), [0.6, 0.8])
    assert parse_point(cls, 2) == 2
    with pytest.raises(FormatError):
        parse_point(ray, 1)  # a bare index is not a ray point
    with pytest.raises(FormatError):
        parse_point(cls, 9)


def test_parse_subspace_literals():
    ray = SPStructure.ray(3)
    sub = parse_subspace(ray, [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert sub.dim == 2
    with pytest.raises(FormatError):
        parse_subspace(ray, "not-a-list")
    # every ray vector must be three finite numbers
    for bad in ([1], [[1.0, 0.0]], [[1.0, float("nan"), 0.0]],
                [[1.0, float("inf"), 0.0]], [["r0", 1, 0]], [["1", "0", "0"]],
                [[1.0, 0.0, 0.0], [1.0]], [[[1.0, 0.0, 0.0]]], [None], [{}]):
        with pytest.raises(FormatError, match="bad subspace literal"):
            parse_subspace(ray, bad)


def test_parse_subspace_rejects_a_point_set_no_subspace_contains(fixture_dir):
    # on the broken three-point table no subspace holds two of its points
    bad = load_structure(fixture_dir / "bad3x3.json")
    with pytest.raises(FormatError, match="no subspace contains"):
        parse_subspace(bad, ["a", "b"])


def test_field_round_trip(ray2, fixture_dir, tmp_path):
    fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
    blob = field_to_dict(fld)
    assert len(blob["events"]) == 6
    path = tmp_path / "field.json"
    path.write_text(dump_json({"generators": blob["generators"]}))
    again = load_field(ray2, path)
    assert len(again.events) == len(fld.events)
    for a, b in zip(again.events, fld.events):
        assert a == b


def test_measure_resolves_field_relative_to_its_file(ray2, fixture_dir):
    m = load_measure(ray2, fixture_dir / "measure_table_bad_additivity.json")
    assert m.kind == "table"
    assert len(m.field.events) == 4


@pytest.mark.parametrize("field", [3, None, ["field_ray2_line.json"], {}])
def test_measure_field_must_be_a_path(ray2, tmp_path, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "pure", "field": field, "point": [1, 0]}))
    with pytest.raises(FormatError, match="'field' must be a file path"):
        load_measure(ray2, path)


@pytest.mark.parametrize("doc, message", [
    ({"generators": None}, "'generators' must be a list"),
    ({"generators": 3}, "'generators' must be a list"),
])
def test_field_generators_must_be_a_list(ray2, tmp_path, doc, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        load_field(ray2, path)


def test_explicit_points_must_be_a_list(tmp_path):
    path = tmp_path / "st.json"
    path.write_text(json.dumps({"kind": "explicit", "points": False,
                                "matrix": [[1.0, 0.0], [0.0, 1.0]]}))
    with pytest.raises(FormatError, match="'points' must be a list"):
        load_structure(path)


def test_measure_requires_known_kind(ray2, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(FormatError):
        load_measure(ray2, path)


def test_rv_round_trip(ray2, fixture_dir):
    rv = load_rv(ray2, fixture_dir / "rv_pm45.json")
    assert rv.values == (1.0, -1.0)


def test_dump_json_is_sorted_and_stable():
    a = dump_json({"b": 1, "a": [2, 3]})
    b = dump_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


# ---------------------------------------------------------------------------
# numbers in documents: JSON numbers only, finite, never bools


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


@pytest.mark.parametrize("values", [
    {"x": 0.5},
    {"0.0": 0.0, "1": 0.6, "2": 0.6, "3": 1.0},
    {"0": "0.0", "1": 0.6, "2": 0.6, "3": 1.0},
    {"0": True, "1": 0.6, "2": 0.6, "3": 1.0},
    {"0": None, "1": 0.6, "2": 0.6, "3": 1.0},
    '{"0": NaN, "1": 0.6, "2": 0.6, "3": 1.0}',
    '{"0": 0.0, "1": Infinity, "2": 0.6, "3": 1.0}',
], ids=["key-word", "key-float", "value-string", "value-bool", "value-null",
        "value-nan", "value-inf"])
def test_table_measure_values_must_be_finite_numbers(ray2, fixture_dir, tmp_path,
                                                     values):
    field = (fixture_dir / "field_ray2_line.json").resolve()
    raw = values if isinstance(values, str) else json.dumps(values)
    path = _write(tmp_path, "m.json",
                  f'{{"kind": "table", "field": "{field}", "values": {raw}}}')
    with pytest.raises(FormatError):
        load_measure(ray2, path)


@pytest.mark.parametrize("components", [
    [["half", [1.0, 0.0]], [0.5, [0.0, 1.0]]],
    [[True, [1.0, 0.0]]],
    [[0.5, [1.0, 0.0], "extra"]],
    [0.5],
], ids=["weight-string", "weight-bool", "three-entries", "bare-number"])
def test_mixed_measure_components_are_weight_point_pairs(ray2, tmp_path, components):
    path = _write(tmp_path, "m.json", {"kind": "mixed", "components": components})
    with pytest.raises(FormatError):
        load_measure(ray2, path)


@pytest.mark.parametrize("cap", ["many", 2.5, True, None])
def test_field_cap_must_be_an_integer(ray2, tmp_path, cap):
    path = _write(tmp_path, "f.json", {"generators": [[[1.0, 0.0]]], "cap": cap})
    with pytest.raises(FormatError, match="cap"):
        load_field(ray2, path)


@pytest.mark.parametrize("value", ['"one"', "true", "null", "NaN", "-Infinity"])
def test_rv_values_must_be_finite_numbers(ray2, tmp_path, value):
    path = _write(tmp_path, "rv.json",
                  f'{{"outcomes": [{{"value": {value}, "event": [[1.0, 0.0]]}}]}}')
    with pytest.raises(FormatError):
        load_rv(ray2, path)


def test_rv_outcomes_must_be_objects(ray2, tmp_path):
    path = _write(tmp_path, "rv.json", {"outcomes": [[1.0, [[1.0, 0.0]]]]})
    with pytest.raises(FormatError):
        load_rv(ray2, path)
    # and the outcomes themselves a list of them
    for outcomes in (None, 3):
        path = _write(tmp_path, "rv.json", {"outcomes": outcomes})
        with pytest.raises(FormatError, match="'outcomes' must be a list"):
            load_rv(ray2, path)
