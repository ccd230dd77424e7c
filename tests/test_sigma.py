"""Event-field generation: closure under complement, orthogonal sum, meet."""

import itertools

import numpy as np
import pytest

from starprob import (
    SigmaStarField,
    SPStructure,
    atomic_decomposition,
    atoms,
    distributivity_witness,
    empty,
    from_points,
    from_span,
    full,
    generate_sigma_star,
    is_boolean,
    join,
    meet,
    validate_sigma_star,
)
from starprob.errors import ClosureCapExceeded
from starprob.io import load_field


def test_classical_singletons_generate_the_powerset(classical4):
    fld = generate_sigma_star(classical4, [[0], [1], [2], [3]])
    assert len(fld.events) == 16
    point_sets = {e.points for e in fld.events}
    expected = {
        frozenset(s)
        for k in range(5)
        for s in __import__("itertools").combinations(range(4), k)
    }
    assert point_sets == expected
    assert is_boolean(fld)
    assert [a.points for a in atoms(fld)] == [frozenset({i}) for i in range(4)]


def test_single_line_generates_four_events(ray2, fixture_dir):
    fld = load_field(ray2, fixture_dir / "field_ray2_line.json")
    assert len(fld.events) == 4
    # canonical order: by dimension, then frame
    assert [e.to_literal() for e in fld.events] == [
        [],
        [[0.0, 1.0]],
        [[1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0]],
    ]


def test_two_lines_generate_six_events(ray2, fixture_dir):
    fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
    assert len(fld.events) == 6
    dims = sorted(e.dim for e in fld.events)
    assert dims == [0, 1, 1, 1, 1, 2]


def test_wheel_two_generators_give_diamond(wheel, fixture_dir):
    fld = load_field(wheel, fixture_dir / "field_explicit4_twopoints.json")
    assert [e.to_literal() for e in fld.events] == [
        (),
        ("r0",),
        ("r45",),
        ("r90",),
        ("r135",),
        ("r0", "r45", "r90", "r135"),
    ]


def test_generation_is_idempotent(ray2, fixture_dir):
    fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
    again = generate_sigma_star(ray2, list(fld.events))
    assert len(again.events) == len(fld.events)
    for a, b in zip(again.events, fld.events):
        assert a == b


def test_intersection_closure_rescan(ray2, fixture_dir):
    # every pairwise meet of events must already sit in the family
    fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
    from starprob import meet

    for a in fld.events:
        for b in fld.events:
            assert meet(a, b) in fld


def test_validator_accepts_generated_fields(ray2, fixture_dir):
    fld = load_field(ray2, fixture_dir / "field_ray2_line.json")
    report = validate_sigma_star(fld)
    assert report.ok
    assert [c.law for c in report.checks] == [
        "contains_empty",
        "contains_full",
        "complement_closed",
        "orthogonal_sum_closed",
        "intersection_closed",
        "complement_partition",
        "orthomodular_members",
    ]
    assert all(c.status == "pass" for c in report.checks)


def test_validator_rejects_truncated_family(ray2):
    """Dropping one complement from a valid family must be caught."""
    from starprob.sigma import SigmaStarField

    full_fld = generate_sigma_star(ray2, [[[1.0, 0.0]]])
    broken = SigmaStarField(
        structure=ray2,
        events=tuple(e for e in full_fld.events if e.to_literal() != [[0.0, 1.0]]),
        generators=full_fld.generators,
        closure_meta={},
    )
    report = validate_sigma_star(broken)
    assert not report.ok
    bad = {c.law for c in report.checks if c.status != "pass"}
    assert "complement_closed" in bad


def test_atomic_decomposition_indices(classical4):
    fld = generate_sigma_star(classical4, [[0], [1], [2], [3]])
    target = next(e for e in fld.events if e.points == frozenset({0, 2, 3}))
    assert atomic_decomposition(fld, target) == (0, 2, 3)
    full_event = next(e for e in fld.events if e.is_full)
    assert atomic_decomposition(fld, full_event) == (0, 1, 2, 3)
    empty_event = next(e for e in fld.events if e.is_empty)
    assert atomic_decomposition(fld, empty_event) == ()


def test_ray_field_atoms_are_lines(ray2, fixture_dir):
    fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
    assert all(a.dim == 1 for a in atoms(fld))
    assert len(atoms(fld)) == 4


def test_boolean_classification(classical4, wheel, ray2, fixture_dir):
    c_fld = generate_sigma_star(classical4, [[0], [1]])
    assert is_boolean(c_fld)
    assert distributivity_witness(c_fld) is None

    w_fld = load_field(wheel, fixture_dir / "field_explicit4_twopoints.json")
    assert not is_boolean(w_fld)
    assert distributivity_witness(w_fld) == (1, 2, 3)  # r0, r45, r90

    r_fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
    assert not is_boolean(r_fld)
    assert distributivity_witness(r_fld) is not None


def test_closure_cap_carries_partial_family(ray2):
    gens = [[[1.0, 0.0]], [[0.8660254037844386, 0.5]]]
    with pytest.raises(ClosureCapExceeded) as exc:
        generate_sigma_star(ray2, gens, cap=3)
    assert exc.value.partial.capped
    assert len(exc.value.partial.events) > 3


def test_generators_recorded(ray2):
    fld = generate_sigma_star(ray2, [[[1.0, 0.0]]])
    assert len(fld.generators) == 1
    assert fld.generators[0].dim == 1


def test_unknown_event_rejected(ray2, fixture_dir):
    from starprob.errors import EventNotInField

    fld = load_field(ray2, fixture_dir / "field_ray2_line.json")
    diag = from_span(ray2, [[1.0, 1.0]])
    assert diag not in fld
    with pytest.raises(EventNotInField):
        fld.index_of(diag)


def test_three_orthogonal_lines_in_d3():
    st = SPStructure.ray(3)
    fld = generate_sigma_star(
        st, [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]]
    )
    # powerset of three orthogonal atoms: 8 events
    assert len(fld.events) == 8
    assert is_boolean(fld)
    assert validate_sigma_star(fld).ok


def test_field_finds_an_event_built_in_the_other_order():
    # the frames of a + b and b + a (or a & b and b & a) can round apart at
    # CANON_DECIMALS while the subspaces are equal: the canonical key is a
    # hint and the field must fall back to ==
    st = SPStructure.ray(16)
    rng = np.random.default_rng(56)
    spans = [from_span(st, rng.standard_normal((int(rng.integers(1, 16)), 16)))
             for _ in range(24)]
    split = 0
    for a, b in itertools.combinations(spans, 2):
        for op in (join, meet):
            ab, ba = op(a, b), op(b, a)
            if ab.is_empty or ab.is_full:
                continue
            fld = SigmaStarField(st, (empty(st), ab, full(st)))
            assert fld.index_of(ba) == 1
            split += ab.canonical_key() != ba.canonical_key()
    assert split > 0  # the fallback was needed
