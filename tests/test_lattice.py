"""Event lattice: complements, sums, intersections, and their laws.

Ray subspaces are carried by canonical orthonormal frames so that every
construction route for the same subspace yields the same object; classical
and explicit subspaces are carried by point sets.  The lattice is
orthomodular but deliberately NOT distributive once two non-orthogonal,
non-nested lines exist.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from starprob import (
    SPStructure,
    check_de_morgan,
    check_orthomodular,
    distributes,
    empty,
    from_basis,
    from_points,
    from_span,
    full,
    is_orthogonal,
    is_subset,
    join,
    meet,
    ortho_complement,
    project,
    similarity_to_subspace,
)
from starprob.errors import EmptySubspace
from starprob.structures import as_point, random_frame


def line(st, *coords):
    return from_basis(st, [as_point(st, list(coords))])


# ---------------------------------------------------------------------------
# construction and canonical frames


def test_span_routes_agree(ray3):
    # the same plane reached via two different spanning sets lands on the
    # same canonical frame (up to float noise below the rounding grid)
    a = from_span(ray3, [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    b = from_span(ray3, [[2.0, -1.0, 0.0], [0.0, 3.0, 0.0], [1.0, 1.0, 0.0]])
    assert a == b
    assert a.canonical_key() == b.canonical_key()
    np.testing.assert_allclose(a.frame, b.frame, atol=1e-12)


def test_rank_deficient_span_collapses(ray3):
    a = from_span(ray3, [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    assert a.dim == 1


def test_empty_and_full(ray3):
    assert empty(ray3).dim == 0
    assert empty(ray3).is_empty
    assert full(ray3).dim == 3
    assert full(ray3).is_full


def test_classical_subspaces_are_subsets(classical4):
    a = from_points(classical4, [0, 2])
    assert a.points == frozenset({0, 2})
    assert a.dim == 2


def test_frame_is_read_only(ray2):
    a = line(ray2, 1.0, 0.0)
    with pytest.raises(ValueError):
        a.frame[0, 0] = 5.0


# ---------------------------------------------------------------------------
# complement / join / meet on pinned inputs


def test_complement_of_axis_line(ray2):
    xaxis = line(ray2, 1.0, 0.0)
    yaxis = line(ray2, 0.0, 1.0)
    assert ortho_complement(xaxis) == yaxis
    assert ortho_complement(ortho_complement(xaxis)) == xaxis


def test_complement_partitions_dimension(ray3):
    plane = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    perp = ortho_complement(plane)
    assert plane.dim + perp.dim == 3
    assert is_orthogonal(plane, perp)
    assert join(plane, perp) == full(ray3)
    assert meet(plane, perp) == empty(ray3)


def test_join_of_two_lines_is_their_plane(ray3):
    a = line(ray3, 1.0, 0.0, 0.0)
    b = line(ray3, 1.0, 1.0, 0.0)
    ab = join(a, b)
    assert ab.dim == 2
    assert is_subset(a, ab) and is_subset(b, ab)
    assert ab == from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_meet_of_two_planes_is_a_line():
    st = SPStructure.ray(3)
    p = from_span(st, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # z = 0
    q = from_span(st, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # x = 0
    assert meet(p, q) == line(st, 0.0, 1.0, 0.0)


def test_meet_of_skew_lines_is_empty(ray2):
    a = line(ray2, 1.0, 0.0)
    b = line(ray2, 1.0, 1.0)
    assert meet(a, b).is_empty


def test_classical_operations_are_set_operations(classical4):
    a = from_points(classical4, [0, 1])
    b = from_points(classical4, [1, 2])
    assert join(a, b).points == frozenset({0, 1, 2})
    assert meet(a, b).points == frozenset({1})
    assert ortho_complement(a).points == frozenset({2, 3})
    # the set algebra the classical model reduces to, as an oracle over
    # every pair of subsets of four points
    subsets = [frozenset(s) for r in range(5)
               for s in itertools.combinations(range(4), r)]
    everything = frozenset(range(4))
    for p in subsets:
        a = from_points(classical4, p)
        assert a.points == p
        assert a.basis == tuple(sorted(p))
        assert ortho_complement(a).points == everything - p
        for q in subsets:
            b = from_points(classical4, q)
            assert join(a, b).points == p | q
            assert meet(a, b).points == p & q
            assert is_orthogonal(a, b) == p.isdisjoint(q)


def test_wheel_complements(wheel):
    # in the four-spoke table each line's complement is the perpendicular one
    r0 = from_points(wheel, ["r0"])
    r90 = from_points(wheel, ["r90"])
    assert ortho_complement(r0) == r90
    assert join(r0, r90) == full(wheel)


# ---------------------------------------------------------------------------
# the laws


def test_orthomodular_on_nested_pair(ray3):
    a = line(ray3, 1.0, 0.0, 0.0)
    c = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
    assert is_subset(a, c)
    assert check_orthomodular(a, c)


def test_orthomodular_vacuous_when_not_nested(ray2):
    a = line(ray2, 1.0, 1.0)
    c = line(ray2, 1.0, 0.0)
    assert check_orthomodular(a, c)  # no containment, nothing to check


def test_de_morgan_on_pinned_pair(ray3):
    a = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = from_span(ray3, [[0.0, 1.0, 1.0]])
    assert check_de_morgan(a, b)


def test_absorption_and_idempotence(ray3):
    a = from_span(ray3, [[1.0, 2.0, 0.0]])
    b = from_span(ray3, [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    assert join(a, a) == a
    assert meet(a, a) == a
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a


def test_three_coplanar_lines_break_distributivity(ray2):
    """The canonical small counterexample.

    With lines at 0, 45 and 90 degrees: meet(a, join(b, c)) is all of `a`
    because b + c spans the plane, while join(meet(a,b), meet(a,c)) is
    empty because distinct lines intersect trivially.  Orthomodularity
    still holds on the very same structure.
    """
    a = line(ray2, 1.0, 0.0)
    b = line(ray2, 1.0, 1.0)
    c = line(ray2, 0.0, 1.0)
    assert not distributes(a, b, c)
    lhs = meet(a, join(b, c))
    rhs = join(meet(a, b), meet(a, c))
    assert lhs == a and rhs.is_empty
    # the orthomodular law is untouched by the failure
    for x in (a, b, c):
        assert check_orthomodular(x, full(ray2))
        assert check_orthomodular(empty(ray2), x)


def test_wheel_breaks_distributivity(wheel):
    a = from_points(wheel, ["r0"])
    b = from_points(wheel, ["r45"])
    c = from_points(wheel, ["r90"])
    assert not distributes(a, b, c)


def test_classical_lattice_is_distributive(classical4):
    subs = [from_points(classical4, s) for s in ([], [0], [1, 2], [0, 3], [0, 1, 2, 3])]
    for a in subs:
        for b in subs:
            for c in subs:
                assert distributes(a, b, c)


# ---------------------------------------------------------------------------
# point-subspace interaction


def test_similarity_to_subspace_is_projection_mass(ray3):
    plane = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = as_point(ray3, [1.0, 2.0, 2.0])
    assert similarity_to_subspace(x, plane) == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert similarity_to_subspace(x, empty(ray3)) == 0.0
    assert similarity_to_subspace(x, full(ray3)) == 1.0


def test_project_onto_plane(ray3):
    plane = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x = as_point(ray3, [3.0, 4.0, 5.0])
    y = project(x, plane)
    np.testing.assert_allclose(np.abs(y), [0.6, 0.8, 0.0], atol=1e-12)


def test_project_onto_empty_raises(ray3):
    x = as_point(ray3, [1.0, 0.0, 0.0])
    with pytest.raises(EmptySubspace):
        project(x, empty(ray3))


def test_membership_iff_similarity_one(ray3):
    plane = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    inside = as_point(ray3, [2.0, -1.0, 0.0])
    outside = as_point(ray3, [0.0, 1.0, 1.0])
    assert similarity_to_subspace(inside, plane) == pytest.approx(1.0, abs=1e-12)
    assert similarity_to_subspace(outside, plane) < 1.0 - 1e-9


# ---------------------------------------------------------------------------
# randomized law coverage


@given(hs.integers(min_value=0, max_value=2 ** 31 - 1), hs.integers(min_value=2, max_value=5))
def test_random_subspace_laws(seed, d):
    rng = np.random.default_rng(seed)
    st = SPStructure.ray(d)
    ka = int(rng.integers(0, d + 1))
    kb = int(rng.integers(0, d + 1))
    a = from_basis(st, list(random_frame(d, ka, rng).T)) if ka else empty(st)
    b = from_basis(st, list(random_frame(d, kb, rng).T)) if kb else empty(st)

    ac = ortho_complement(a)
    assert a.dim + ac.dim == d
    assert ortho_complement(ac) == a
    assert join(a, ac) == full(st)
    assert meet(a, ac) == empty(st)

    assert is_subset(meet(a, b), a)
    assert is_subset(a, join(a, b))
    assert check_de_morgan(a, b)
    assert check_orthomodular(meet(a, b), a)  # meet(a,b) is nested in a
