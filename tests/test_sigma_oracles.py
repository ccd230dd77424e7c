"""Field structure decided by theorem against the searches it replaced.

The superseded implementations live here as oracles:

* ``old_distributivity_witness`` tests every event triple in order and
  returns the first that fails to distribute.  The library skips each row
  whose event commutes with every event (Foulis-Holland) and must return
  the same first triple.
* ``old_atomic_decomposition`` backs the greedy orthogonal choice with an
  exhaustive subset search.  The library keeps only the greedy pass (the
  orthomodular law makes it enough on a closed field) and must return the
  same decomposition.
* ``old_index_of`` scans the events with ``==``.  The library looks an event
  up by its canonical key and must return the same index.

The fields are the bundled fixtures, the wheel, the fields the property
suites build, and small generated ones: classical partitions and ray line
fields in two and three dimensions.
"""

import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from starprob import (
    SPStructure,
    atomic_decomposition,
    atoms,
    commutes,
    distributivity_witness,
    from_points,
    from_span,
    generate_sigma_star,
    join,
    lattice,
    ortho_complement,
)
from starprob import sigma as sig
from starprob.errors import EventNotInField
from starprob.io import load_field, load_structure
from starprob.sigma import SigmaStarField
from starprob.suites import run_property_suite

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

BUNDLED = [
    ("classical4.json", "field_classical4_singletons.json"),
    ("explicit4.json", "field_explicit4_twopoints.json"),
    ("ray2.json", "field_ray2_line.json"),
    ("ray2.json", "field_ray2_twolines.json"),
]


def old_distributivity_witness(fld):
    events = fld.events
    for i, a in enumerate(events):
        for j, b in enumerate(events):
            for k, c in enumerate(events):
                if not lattice.distributes(a, b, c):
                    return (i, j, k)
    return None


def old_atomic_decomposition(fld, event, atom_list):
    below = [(i, a) for i, a in enumerate(atom_list) if lattice.is_subset(a, event)]
    if event.is_empty:
        return []
    chosen = []
    for i, a in below:
        if all(lattice.is_orthogonal(a, c) for _, c in chosen):
            chosen.append((i, a))
    if chosen and join(*[c for _, c in chosen]) == event:
        return [i for i, _ in chosen]
    if len(below) <= 16:
        for mask in range(1, 1 << len(below)):
            sel = [below[k] for k in range(len(below)) if mask >> k & 1]
            if all(lattice.is_orthogonal(sel[i][1], sel[j][1])
                   for i in range(len(sel)) for j in range(i + 1, len(sel))):
                if join(*[s for _, s in sel]) == event:
                    return [i for i, _ in sel]
    return None


def old_index_of(fld, event):
    return next((i for i, e in enumerate(fld.events) if e == event), None)


def bundled_field(structure_file, field_file):
    st = load_structure(FIXTURES / structure_file)
    return load_field(st, FIXTURES / field_file)


def assert_matches_oracles(fld):
    """Witness, decompositions, commutation symmetry and lookups agree."""
    with mock.patch.object(lattice, "distributes", wraps=lattice.distributes) as spy:
        witness = distributivity_witness(fld)
        calls = spy.call_count
    assert witness == old_distributivity_witness(fld)
    if witness is None:
        assert calls == 0  # Boolean: decided by commutation alone

    ats = atoms(fld)
    for event in fld.events:
        old = old_atomic_decomposition(fld, event, ats)  # a list, or None
        assert atomic_decomposition(fld, event, ats) == (None if old is None else tuple(old))

    for a in fld.events:
        for b in fld.events:
            assert commutes(a, b) == commutes(b, a)

    assert_index_of_matches(fld)


def assert_index_of_matches(fld):
    for i, event in enumerate(fld.events):
        assert fld.index_of(event) == old_index_of(fld, event) == i
        # a fresh construction of the same event takes the same index
        again = ortho_complement(ortho_complement(event))
        assert fld.index_of(again) == old_index_of(fld, again) == i


@pytest.mark.parametrize("structure_file, field_file", BUNDLED,
                         ids=[f for _, f in BUNDLED])
def test_bundled_fields_match_the_oracles(structure_file, field_file):
    assert_matches_oracles(bundled_field(structure_file, field_file))


def test_wheel_fields_match_the_oracles(wheel):
    for gens in (["r0"], ["r0", "r45"], ["r0", "r45", "r90", "r135"]):
        fld = generate_sigma_star(wheel, [from_points(wheel, [g]) for g in gens])
        assert_matches_oracles(fld)


def test_suite_fields_match_the_linear_index_scan():
    built = []

    def recording(*args, **kwargs):
        built.append(generate_sigma_star(*args, **kwargs))
        return built[-1]

    with mock.patch.object(sig, "generate_sigma_star", recording):
        for suite_id in ("sigma", "prob"):
            run_property_suite(suite_id, seed=0, scale=2)
    assert len(built) >= 10
    for fld in built:
        assert_index_of_matches(fld)


def test_index_of_rejects_events_outside_the_field(ray2):
    fld = bundled_field("ray2.json", "field_ray2_line.json")
    diag = from_span(ray2, [[1.0, 1.0]])
    assert old_index_of(fld, diag) is None
    with pytest.raises(EventNotInField):
        fld.index_of(diag)


@hs.composite
def classical_partition_fields(draw):
    """The field of a partition of at most 6 points into at most 4 blocks
    (at most 16 events, so the triple scan stays cheap)."""
    n = draw(hs.integers(min_value=1, max_value=6))
    labels = draw(hs.lists(hs.integers(min_value=0, max_value=3),
                           min_size=n, max_size=n))
    blocks = [[p for p in range(n) if labels[p] == b] for b in sorted(set(labels))]
    return generate_sigma_star(SPStructure.classical(n), blocks)


SMALL = hs.integers(min_value=-2, max_value=2)
VECTORS3 = hs.tuples(SMALL, SMALL, SMALL).filter(any).map(np.array)


@hs.composite
def ray_line_fields(draw):
    """Two or three lines: in the plane at multiples of 15 degrees, or in
    R^3 as two integer lines plus, optionally, a line in their plane or
    their normal (so the closure stays finite)."""
    if draw(hs.booleans()):
        steps = draw(hs.lists(hs.integers(min_value=0, max_value=11),
                              min_size=2, max_size=3))
        lines = [[math.cos(s * math.pi / 12), math.sin(s * math.pi / 12)]
                 for s in steps]
        st = SPStructure.ray(2)
    else:
        u, v = draw(VECTORS3), draw(VECTORS3)
        third = draw(hs.sampled_from(["none", "in_plane", "normal"]))
        extra = (draw(SMALL) * u + draw(SMALL) * v if third == "in_plane"
                 else np.cross(u, v) if third == "normal" else np.zeros(3))
        lines = [u, v] + ([extra] if extra.any() else [])
        st = SPStructure.ray(3)
    return generate_sigma_star(st, [[[float(x) for x in line]] for line in lines])


@given(classical_partition_fields())
def test_classical_partition_fields_match_the_oracles(fld):
    assert distributivity_witness(fld) is None
    assert_matches_oracles(fld)


@settings(max_examples=30)
@given(ray_line_fields())
def test_ray_line_fields_match_the_oracles(fld):
    assert_matches_oracles(fld)


def test_orthogonal_lines_are_boolean_without_a_triple_test():
    st = SPStructure.ray(3)
    fld = generate_sigma_star(st, [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]])
    assert len(fld.events) == 8
    assert_matches_oracles(fld)


def test_hand_built_family_scans_past_a_non_commuting_row():
    """Without ``b'`` in the family, the first non-commuting row may hold no
    failing triple; the scan goes on to the next one."""
    st = SPStructure.ray(3)
    events = tuple(from_span(st, [v]) for v in
                   ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [1.0, -1.0, 1.0]))
    fld = SigmaStarField(structure=st, events=events)
    assert not all(commutes(events[0], b) for b in events)
    assert distributivity_witness(fld) == old_distributivity_witness(fld) == (1, 2, 3)


def test_every_sub_family_of_a_non_boolean_field_matches_the_triple_scan(wheel):
    """Hand-built families that are not closed, from the wheel and two
    planar lines: every order-preserving choice of events."""
    for fld in (bundled_field("ray2.json", "field_ray2_twolines.json"),
                generate_sigma_star(wheel, [from_points(wheel, ["r0"]),
                                            from_points(wheel, ["r45"])])):
        events = fld.events
        for mask in range(1 << len(events)):
            family = SigmaStarField(
                structure=fld.structure,
                events=tuple(e for i, e in enumerate(events) if mask >> i & 1))
            assert (distributivity_witness(family)
                    == old_distributivity_witness(family)), mask


def test_commutes_on_planar_lines(ray2):
    x_axis = from_span(ray2, [[1.0, 0.0]])
    y_axis = from_span(ray2, [[0.0, 1.0]])
    diag = from_span(ray2, [[1.0, 1.0]])
    assert commutes(x_axis, y_axis)
    assert commutes(x_axis, x_axis)
    assert not commutes(x_axis, diag)
    for sub in (x_axis, diag):
        assert commutes(sub, lattice.empty(ray2))
        assert commutes(sub, lattice.full(ray2))
