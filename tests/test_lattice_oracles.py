"""Fast ray lattice kernels against the slower paths they replaced.

The superseded implementations live here as oracles:

* ``old_canonical_frame`` rebuilds the residual from a copy of the projector
  at every rank step and fixes signs with a Python scan; the library carries
  one residual and must produce byte-identical frames.
* ``complement_route_meet`` is the complement of the sum of complements;
  the library's ray ``meet`` takes the common nullspace of the residual maps from one SVD
  and must agree on dimension and, within ``TOL_EQ``, on the projector.
* ``old_discrete_similarity`` takes the minimum of ``tau`` point by point;
  the structures' one-pass kernels must give the same value and witness bit
  for bit, and raise the same error on tables that break an axiom.
* ``old_closure`` sums one table row per point; the explicit ``closure``
  sums every row in one pass and must give the same point set.
* ``old_cliques`` grows every pairwise-orthogonal point set from the table's
  entries, and ``old_least_carrier`` takes the smallest closure of one that
  contains a point set; ``explicit_lattice`` and ``least_carrier`` must agree,
  on plane tables past 12 points too.
* ``old_subspace_similarity`` answers the ray pairs past the line branch
  through the two cross meets ``A' & B`` and ``B' & A``, then an ``eigh``
  of ``S = (P_A P_B + P_B P_A)/2``; the library reads one SVD of
  ``F_A^T F_B`` and must give the same value bits and certainty, and a
  witness whenever the oracle has one.
* ``old_column_span``, ``old_join``, ``old_meet`` and ``old_complement``
  build every ray result through an SVD and a canonical frame, with no
  shortcut for the empty and the full subspace; the library decides 0 and 1
  from dimensions and must give the same dimension, ``==`` both ways and
  canonical key, with the frame of 1 exactly the identity.  Replayed in
  step with the library's shortcuts over every subspace ``lattice_run``
  builds, they also give the bytes of every frame the library builds on
  first read, whether it is read at once, after the relations, or at once
  for a seeded half (so joins and meets see operands with and without
  frames), and at the end of chains 5,000 operations deep.  The relations
  read the carried basis and must agree with relations on the frames.
* ``principal_sin2`` and ``principal_cos2`` compute principal angles with
  numpy from the raw spanning vectors; every ray relation must agree with
  them on pairs swept through ``TOL_EQ``, and the lattice laws must hold
  there.
"""

import gc
import importlib.util
import itertools
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from starprob import (
    SPStructure,
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
    points_equal,
    project,
    similarity_to_subspace,
)
from starprob import lattice
from starprob import sigma
from starprob import similarity as sim
from starprob import structures as core
from starprob.errors import BudgetRequired, SPError
from starprob.io import load_structure
from starprob.suites import wheel_structure
from starprob.structures import TOL_EQ, as_point, random_frame

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def old_canonical_sign(v):
    for c in v:
        if abs(c) > 1e-12:
            return -v if c < 0 else +v
    return v


def old_canonical_frame(proj, rank):
    d = proj.shape[0]
    cols = []
    for _ in range(rank):
        residual = proj.copy()
        for c in cols:
            residual -= np.outer(c, c)
        norms = np.linalg.norm(residual, axis=0)
        pick = int(np.argmax(np.round(norms, 12)))
        v = residual[:, pick]
        v = v / float(np.linalg.norm(v))
        for c in cols:
            v = v - np.dot(c, v) * c
        v = v / float(np.linalg.norm(v))
        cols.append(old_canonical_sign(v))
    if not cols:
        return np.zeros((d, 0))
    return np.stack(cols, axis=1)


def complement_route_meet(*subs):
    return ortho_complement(join(*[ortho_complement(s) for s in subs]))


def _basis(rng, d, k, shape):
    """A ``d x k`` orthonormal basis: random, axis-aligned, or axes mixed
    with random directions in the remaining coordinates."""
    if shape == "random":
        return random_frame(d, k, rng)
    axes = rng.permutation(d)
    if shape == "axes":
        return np.eye(d)[:, axes[:k]]
    n_axes = k // 2
    out = np.zeros((d, k))
    out[axes[:n_axes], np.arange(n_axes)] = 1.0
    rest = axes[n_axes:]
    out[np.ix_(rest, np.arange(n_axes, k))] = random_frame(len(rest), k - n_axes, rng)
    return out


# ---------------------------------------------------------------------------
# canonical frame: byte-identical to the per-step-copy oracle


@given(hs.integers(min_value=0, max_value=2 ** 31 - 1),
       hs.integers(min_value=1, max_value=32),
       hs.floats(min_value=0.0, max_value=1.0),
       hs.sampled_from(["random", "axes", "mixed"]))
def test_canonical_frame_is_byte_identical_to_the_oracle(seed, d, frac, shape):
    rng = np.random.default_rng(seed)
    k = min(d, int(frac * (d + 1)))
    b = _basis(rng, d, k, shape)
    proj = b @ b.T
    for p, rank in ((proj, k), (np.eye(d) - proj, d - k)):
        got = lattice._canonical_frame(p, rank)
        assert got.tobytes() == old_canonical_frame(p, rank).tobytes()
        assert got.shape == (d, rank)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
def test_canonical_frame_of_every_axis_prefix(d):
    # all-ties inputs: every candidate column has the same residual norm
    for k in range(d + 1):
        proj = np.diag([1.0] * k + [0.0] * (d - k))
        want = old_canonical_frame(proj, k)
        assert lattice._canonical_frame(proj, k).tobytes() == want.tobytes()
        np.testing.assert_array_equal(want, np.eye(d)[:, :k])


def test_canonical_sign_matches_the_scan():
    below, above = np.nextafter(core.TOL_UNIT, 0.0), np.nextafter(core.TOL_UNIT, 1.0)
    vectors = [np.array(v, dtype=float) for v in (
        [0.0, -0.6, 0.8], [1e-13, -1.0, 0.0], [0.0, 0.0, 0.0],
        [-1e-12, 0.5, 0.5], [-2e-12, 1.0, 0.0], [0.3, -0.4, 0.0],
        # all zero, signed zeros, entries exactly at the cut and beside it
        [-0.0, -0.0, -0.0], [-0.0, -0.5, 0.5], [0.0, -0.0, -1.0],
        [core.TOL_UNIT, -core.TOL_UNIT, 0.0], [-core.TOL_UNIT, core.TOL_UNIT, -0.5],
        [-below, -0.3, 0.4], [below, -0.3, 0.4], [-above, 0.3, 0.4],
        [-below, -below, -above], [-below, below, 0.0])]
    for v in vectors:
        assert core._canonical_sign(v).tobytes() == old_canonical_sign(v).tobytes()


# ---------------------------------------------------------------------------
# meet: the one-SVD nullspace route against the complement route


def _assert_same_subspace(got, want):
    assert got.dim == want.dim
    if got.dim:
        diff = np.max(np.abs(got.projector() - want.projector()))
        assert diff <= TOL_EQ


def _tilt(frame, angle, rng):
    """``frame`` with its last column turned by ``angle`` towards a
    direction orthogonal to the whole frame, and that direction."""
    d, k = frame.shape
    q, _ = np.linalg.qr(np.concatenate([frame, rng.standard_normal((d, 1))], axis=1))
    out = frame.copy()
    out[:, -1] = math.cos(angle) * frame[:, -1] + math.sin(angle) * q[:, k]
    return out, q[:, k]


def _tilted(st, frame, angle, rng):
    return from_span(st, _tilt(frame, angle, rng)[0].T)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_meet_matches_the_complement_route_on_structured_pairs(d):
    rng = np.random.default_rng(d)
    st = SPStructure.ray(d)
    big = random_frame(d, d - 1, rng)
    a = from_span(st, big.T)
    nested = from_span(st, big[:, : d // 2].T)
    same = from_span(st, (big @ random_frame(d - 1, d - 1, rng)).T)
    perp = ortho_complement(a)
    # tilts with sin^2 1e-6, outside TOL_EQ, and 1e-12, inside it
    near = _tilted(st, big, 1e-3, rng)
    equal = _tilted(st, big, 1e-6, rng)
    cases = [
        (a, nested), (nested, a), (a, same), (a, perp), (a, near),
        (a, a), (a, empty(st)), (a, full(st)), (full(st), full(st)),
        (empty(st), empty(st)), (a, equal),
    ]
    for x, y in cases:
        _assert_same_subspace(meet(x, y), complement_route_meet(x, y))
    # the nearly equal pair shares all but the tilted direction
    assert meet(a, near).dim == d - 2
    assert meet(a, same) == a
    assert meet(a, perp).is_empty
    assert meet(a, nested) == nested
    # a tilt within the tolerance keeps every direction
    assert equal == a
    assert meet(a, equal) == a == join(a, equal)
    assert meet(a, equal).dim == join(a, equal).dim == d - 1


@pytest.mark.parametrize("d", [3, 4, 6])
def test_meet_matches_the_complement_route_on_triples(d):
    rng = np.random.default_rng(100 + d)
    st = SPStructure.ray(d)
    big = random_frame(d, d - 1, rng)
    a = from_span(st, big.T)
    b = _tilted(st, big, 1e-6, rng)
    c = from_span(st, big[:, :1].T)
    triples = [(a, b, c), (a, a, a), (a, b, ortho_complement(c)),
               (full(st), a, c), (a, empty(st), b)]
    for x, y, z in triples:
        _assert_same_subspace(meet(x, y, z), complement_route_meet(x, y, z))


@given(hs.integers(min_value=0, max_value=2 ** 31 - 1),
       hs.integers(min_value=2, max_value=8),
       hs.integers(min_value=2, max_value=3))
def test_meet_matches_the_complement_route_on_random_operands(seed, d, count):
    rng = np.random.default_rng(seed)
    st = SPStructure.ray(d)
    subs = []
    for _ in range(count):
        k = int(rng.integers(0, d + 1))
        subs.append(from_span(st, random_frame(d, k, rng).T) if k else empty(st))
    _assert_same_subspace(meet(*subs), complement_route_meet(*subs))


# ---------------------------------------------------------------------------
# one tolerance scale: every ray relation on principal angles


def _orthonormal(rows):
    return np.linalg.qr(np.asarray(rows, dtype=float).T)[0]


def principal_sin2(va, vb):
    """The largest principal ``sin^2`` of ``span(va)`` against ``span(vb)``
    (rows are spanning vectors), from numpy's QR and SVD."""
    qa, qb = _orthonormal(va), _orthonormal(vb)
    return float(np.linalg.svd(qa - qb @ (qb.T @ qa), compute_uv=False)[0] ** 2)


def principal_cos2(va, vb):
    """The largest principal ``cos^2`` of the two spans."""
    qa, qb = _orthonormal(va), _orthonormal(vb)
    return float(np.linalg.svd(qa.T @ qb, compute_uv=False)[0] ** 2)


# sin^2 of the tilt: a sweep through the decades, and points around TOL_EQ
# that a factor of 2 in the cut would misplace.  At TOL_EQ itself the last
# bits of each route decide which side a relation lands on, so there (and
# just beside it) only the symmetry of == is asserted: equality reads sin^2
# both ways round, so a == b and b == a land on the same side
SWEEP = [10.0 ** -e for e in (3, 4, 5, 6, 7, 8, 10)]
BOUNDARY = [f * TOL_EQ for f in (0.5, 0.9, 1.1, 1.5, 1.9, 2.5, 4.0)]
AT_TOL = [f * TOL_EQ for f in (0.999, 1.0, 1.001)]
# lines and planes of R^3, then tilted frames of R^4 to R^8
SHAPES = [(3, 1), (3, 2)] + [(d, k) for d in range(4, 9) for k in (2, d - 1)]


def _swept_pair(d, k, s2):
    """Raw spanning rows of ``A`` (a frame), ``B`` (it with the last column
    tilted by ``sin^2 = s2``), ``C`` (that column) and ``Q`` (the direction
    it tilts to)."""
    rng = np.random.default_rng(1000 * d + k)
    frame = np.eye(3)[:, :2] if (d, k) == (3, 2) else random_frame(d, k, rng)
    tilted, q = _tilt(frame, math.asin(math.sqrt(s2)), rng)
    return frame.T, tilted.T, frame[:, -1:].T, q[None, :]


@pytest.mark.parametrize("d,k", SHAPES)
@pytest.mark.parametrize("s2", SWEEP + BOUNDARY)
def test_ray_relations_follow_the_principal_angles(d, k, s2):
    st = SPStructure.ray(d)
    raw = _swept_pair(d, k, s2)
    a, b, c, q = (from_span(st, v) for v in raw)
    subs = dict(zip("abcq", zip((a, b, c, q), raw)))
    inside = s2 <= TOL_EQ
    assert principal_sin2(raw[0], raw[1]) == pytest.approx(s2, rel=1e-6)
    assert (a == b) is (b == a) is inside
    assert is_subset(c, b) is inside
    assert is_orthogonal(q, b) is inside
    assert (meet(a, b).dim, join(a, b).dim) == ((k, k) if inside else (k - 1, k + 1))
    # three operands: the meet inside each, each inside the join
    lo, hi = meet(a, b, c), join(a, b, q)
    assert all(is_subset(lo, x) for x in (a, b, c))
    assert all(is_subset(x, hi) for x in (a, b, q))
    for (x, vx), (y, vy) in itertools.permutations(subs.values(), 2):
        # the oracle decides: every sweep point is 10 % or more off TOL_EQ
        sub = x.dim <= y.dim and principal_sin2(vx, vy) <= TOL_EQ
        assert is_subset(x, y) is sub, (x, y)
        assert is_orthogonal(x, y) is (principal_cos2(vx, vy) <= TOL_EQ), (x, y)
        # the orthomodular identity: x <= y exactly when x is orthogonal to y'
        assert is_subset(x, y) is is_orthogonal(x, ortho_complement(y))
        lo, hi = meet(x, y), join(x, y)
        assert is_subset(lo, x) and is_subset(lo, y)
        assert is_subset(x, hi) and is_subset(y, hi)
        assert lo.dim + hi.dim == x.dim + y.dim
        if x == y:
            assert lo == x == hi
        ident = sim.check_similarity_theorems(x, y, a).check("similarity.identity_iff_equal")
        assert ident.status == core.PASS, ident.detail


@pytest.mark.parametrize("d,k", SHAPES)
@pytest.mark.parametrize("s2", AT_TOL)
def test_ray_equality_is_symmetric_at_the_tolerance(d, k, s2):
    st = SPStructure.ray(d)
    a, b = (from_span(st, v) for v in _swept_pair(d, k, s2)[:2])
    assert (a == b) is (b == a)


def _swept_points(d, s2):
    """Unit rows ``u`` and ``v`` (``u`` tilted by ``sin^2 = s2``)."""
    rng = np.random.default_rng(d)
    u = random_frame(d, 1, rng)
    return u.T, _tilt(u, math.asin(math.sqrt(s2)), rng)[0].T


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("s2", SWEEP + BOUNDARY)
def test_points_are_equal_exactly_when_their_lines_are(d, s2):
    st = SPStructure.ray(d)
    u, v = _swept_points(d, s2)
    x, y = as_point(st, u[0]), as_point(st, v[0])
    lines = from_span(st, u), from_span(st, v)
    assert points_equal(st, x, y) is points_equal(st, y, x) is (s2 <= TOL_EQ)
    assert (lines[0] == lines[1]) is (s2 <= TOL_EQ)


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("s2", AT_TOL)
def test_point_equality_is_symmetric_at_the_tolerance(d, s2):
    st = SPStructure.ray(d)
    x, y = (as_point(st, w[0]) for w in _swept_points(d, s2))
    assert points_equal(st, x, y) is points_equal(st, y, x)


def test_orthogonality_reads_the_spectral_norm():
    # every entry of F_A^T F_B has square 7.5e-10, within TOL_EQ, but the
    # principal cos^2 is twice that: the pair is not orthogonal
    st = SPStructure.ray(4)
    c = math.sqrt(7.5e-10)
    a = from_span(st, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    b = from_span(st, [[c, c, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    cross = a.frame.T @ b.frame
    assert float(np.max(cross ** 2)) == pytest.approx(7.5e-10, rel=1e-6)
    assert principal_cos2(a.frame.T, b.frame.T) == pytest.approx(1.5e-9, rel=1e-6)
    assert not is_orthogonal(a, b) and not is_orthogonal(b, a)
    assert not is_subset(b, ortho_complement(a))
    assert not is_subset(a, ortho_complement(b))


# ---------------------------------------------------------------------------
# the complement memo


def test_complement_is_computed_once_per_object(ray3, wheel):
    for a in (from_span(ray3, [[1.0, 2.0, 0.0]]), from_points(wheel, ["r0"])):
        ca = ortho_complement(a)
        assert ortho_complement(a) is ca
        # the memo never points back, so the involution is recomputed
        cca = ortho_complement(ca)
        assert cca is not a
        assert cca == a


def test_complement_memo_does_not_leak_between_equal_objects(ray3):
    a = from_span(ray3, [[1.0, 0.0, 0.0]])
    b = from_span(ray3, [[2.0, 0.0, 0.0]])
    assert a == b
    assert ortho_complement(a) is not ortho_complement(b)
    assert ortho_complement(a) == ortho_complement(b)


def _count_as_point(monkeypatch):
    calls = []
    real = core.RayStructure.as_point

    def counted(self, raw):
        calls.append(raw)
        return real(self, raw)

    monkeypatch.setattr(core.RayStructure, "as_point", counted)
    return calls


def test_own_basis_is_built_once_per_object(monkeypatch, ray3):
    plane = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    x = as_point(ray3, [1.0, 2.0, 2.0])
    fresh = tuple(as_point(ray3, p) for p in plane.basis_points())
    calls = _count_as_point(monkeypatch)
    values = {similarity_to_subspace(x, plane) for _ in range(5)}
    # basis_points and _own_basis each canonicalize every frame column once
    assert len(calls) == 2 * plane.dim and len(values) == 1
    projections = {project(x, plane).tobytes() for _ in range(5)}
    assert len(calls) == 2 * plane.dim + 5 and len(projections) == 1  # one per result
    basis = plane._own_basis()
    assert plane._own_basis() is basis
    assert [p.tobytes() for p in basis] == [p.tobytes() for p in fresh]


def test_own_basis_memo_does_not_leak_between_equal_objects(ray3):
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
    a, b = from_span(ray3, rows), from_span(ray3, rows)
    assert a == b and a is not b
    assert a._own_basis() is not b._own_basis()
    assert [p.tobytes() for p in a._own_basis()] == [p.tobytes() for p in b._own_basis()]


# ---------------------------------------------------------------------------
# a subspace's own basis is not re-validated


def _outcome(fn, *args):
    """``fn``'s result, or the class of the error it raised."""
    try:
        return fn(*args)
    except SPError as exc:
        return type(exc)


def test_lattice_point_queries_skip_the_pair_check(monkeypatch, ray3, wheel,
                                                   classical4):
    plane = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    x = as_point(ray3, [1.0, 2.0, 2.0])
    want_s = core.similarity_to_ortho_set(ray3, x, plane.basis_points())
    want_t = core.project_point(ray3, x, plane.basis_points())
    # every subspace of the wheel and of classical(4), from every point: the
    # validating structures functions are the oracle for the lattice queries
    discrete = []
    subsets = [c for r in range(5) for c in itertools.combinations(range(4), r)]
    for st, carriers in ((wheel, wheel.explicit_lattice()["carrier_list"]),
                         (classical4, subsets)):
        for carrier in carriers:
            sub = from_points(st, sorted(carrier))
            for p in range(st.n):
                discrete.append((
                    sub, p,
                    _outcome(core.similarity_to_ortho_set, st, p, sub.basis_points()),
                    _outcome(core.project_point, st, p, sub.basis_points())))
    assert len(discrete) == 4 * 6 + 4 * 16  # six wheel carriers, 16 subsets

    def no_pair_check(st, points):
        raise AssertionError("a subspace's own basis was re-validated")

    monkeypatch.setattr(core, "ensure_ortho_set", no_pair_check)
    # same bits as the validating path
    assert similarity_to_subspace(x, plane) == want_s
    assert project(x, plane).tobytes() == want_t.tobytes()
    for sub, p, want_s, want_t in discrete:
        assert _outcome(similarity_to_subspace, p, sub) == want_s, (sub, p)
        assert _outcome(project, p, sub) == want_t, (sub, p)


# ---------------------------------------------------------------------------
# discrete subspace similarity and explicit closure: one pass per call

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)


def old_discrete_similarity(st, a, b):
    """``s(A, B)`` as the minimum of ``tau`` over every point, in order."""
    best = None
    arg = None
    for x in range(st.n):
        v = sim.tau(x, a, b)
        if best is None or v < best:
            best, arg = v, x
    return best, st.labels[arg]


def old_closure(st, pts):
    return frozenset(p for p in range(st.n)
                     if abs(st.raw_ortho_sum(p, pts) - 1.0) <= TOL_EQ)


def _bits(outcome):
    """A result with its float as bits (``-0.0`` differs from ``0.0``), or
    the type and message of the error raised."""
    if isinstance(outcome, SPError):
        return type(outcome), str(outcome)
    value, witness = outcome
    return float(value).hex(), witness


def _kernel(a, b):
    try:
        est = sim.subspace_similarity(a, b)
    except SPError as exc:
        return exc
    assert est.is_exact
    return est.value, est.witness


def _oracle(st, a, b):
    try:
        return old_discrete_similarity(st, a, b)
    except SPError as exc:
        return exc


def _carriers(st):
    """Every subspace: the enumerated carriers of a table, every point set
    of a classical model."""
    if st.kind == core.CLASSICAL:
        sets = [c for r in range(st.n + 1) for c in itertools.combinations(range(st.n), r)]
        return [from_points(st, c) for c in sets]
    lat = st.explicit_lattice()
    return [lattice.DiscreteSubspace(st, c, lat["carriers"][c]) for c in lat["carrier_list"]]


def _assert_kernel_matches_the_loop(st, subs, monkeypatch):
    """Every ordered pair of distinct subspaces; returns how many valid and
    how many erroneous pairs were compared.  The kernel calls ``tau`` once
    per erroneous pair, to raise, and never on a valid one."""
    pairs = [(a, b) for a, b in itertools.permutations(subs, 2) if a != b]
    want = [_bits(_oracle(st, a, b)) for a, b in pairs]
    calls = []
    real_tau = sim.tau

    def counted_tau(x, a, b):
        calls.append(x)
        return real_tau(x, a, b)

    with monkeypatch.context() as mp:
        mp.setattr(sim, "tau", counted_tau)
        got = [_bits(_kernel(a, b)) for a, b in pairs]
    for pair, g, w in zip(pairs, got, want):
        assert g == w, pair
    errors = sum(isinstance(w[0], type) for w in want)
    assert len(calls) == errors
    return len(want) - errors, errors


PLANE_TABLES = [SPStructure.explicit(workloads.plane_table(k)) for k in range(3, 13)]
# past 12 points, yet within the enumeration budget: 1 + k + k/2 orthogonal sets
LARGE_PLANE_TABLES = [SPStructure.explicit(workloads.plane_table(k)) for k in (14, 24, 60)]


@pytest.mark.parametrize("st", [load_structure(FIXTURES / "explicit4.json")]
                         + PLANE_TABLES + [SPStructure.classical(n) for n in range(1, 6)],
                         ids=["explicit4"] + [f"plane{k}" for k in range(3, 13)]
                         + [f"classical{n}" for n in range(1, 6)])
def test_discrete_similarity_matches_the_loop(st, monkeypatch):
    valid, errors = _assert_kernel_matches_the_loop(st, _carriers(st), monkeypatch)
    assert errors == 0
    assert valid == len(_carriers(st)) * (len(_carriers(st)) - 1)


def test_classical_similarity_visits_no_point(monkeypatch):
    st = SPStructure.classical(5)
    a, b = from_points(st, [3, 1]), from_points(st, [1, 4])

    def no_visit(*args):
        raise AssertionError("a point was visited")

    monkeypatch.setattr(st, "similarity_to_basis", no_visit)
    est = sim.subspace_similarity(a, b)
    assert (est.value, est.witness) == (0.0, "3")  # the least of {3, 4}


def _random_tables(seed, count):
    """Seeded symmetric tables that are mostly not similarity-projection
    spaces: entries from a few quarters, some nudged below 1e-12 out of
    symmetry, so the upper triangle is the one read."""
    rng = np.random.default_rng(seed)
    tables = []
    while len(tables) < count:
        n = int(rng.integers(3, 8))
        m = np.triu(rng.choice([0.0, 0.0, 0.25, 0.5, 0.75], size=(n, n)), 1)
        m = m + m.T + np.eye(n)
        if len(tables) % 3 == 0:
            m = np.clip(m + np.triu(rng.uniform(-4e-13, 4e-13, (n, n)), 1), 0.0, 1.0)
        try:
            tables.append(SPStructure.explicit(m))
        except SPError:  # identical rows
            continue
    return tables


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_discrete_similarity_raises_what_the_loop_raises(seed, monkeypatch):
    valid = errors = 0
    for st in _random_tables(seed, 12):
        v, e = _assert_kernel_matches_the_loop(st, _carriers(st), monkeypatch)
        valid, errors = valid + v, errors + e
    assert valid > 100 and errors > 100


def test_discrete_similarity_on_bases_of_eight_points_and_more(monkeypatch):
    # nine orthogonal points, two that each see eight of them a little and
    # one that sees none: row sums of eight or more entries are summed
    # pairwise, as one row is
    rng = np.random.default_rng(7)
    m = np.eye(12)
    m[9, :8] = rng.uniform(0.0, 0.1, 8)
    m[10, 1:9] = rng.uniform(0.0, 0.1, 8)
    m[:9, 9:] = m[9:, :9].T
    st = SPStructure.explicit(m)
    subs = _carriers(st)
    big = [s for s in subs if s.dim >= 8]
    assert len(big) > 10
    # the point that sees none of the nine, and the empty subspace, keep
    # every pair with a big subspace valid
    small = [from_points(st, ["p11"]), empty(st)]
    valid, errors = _assert_kernel_matches_the_loop(st, big + small, monkeypatch)
    assert valid >= 4 * len(big) and errors > 100


def _closure_structures():
    bundled = [load_structure(path) for path in sorted(FIXTURES.glob("*.json"))
               if path.name.startswith(("classical", "explicit"))]
    suite = [wheel_structure()] + [SPStructure.classical(n) for n in (4, 6)]
    eye13 = SPStructure.explicit(np.eye(13))
    return bundled + suite + PLANE_TABLES + LARGE_PLANE_TABLES + [eye13]


def _kronecker_closure(st, pts):
    return frozenset(p for p in range(st.n)
                     if abs(sum(st.similarity(p, q) for q in pts) - 1.0) <= TOL_EQ)


def test_closure_matches_the_row_by_row_sums():
    rng = np.random.default_rng(11)
    for st in _closure_structures():
        oracle = old_closure if st.kind == core.EXPLICIT else _kronecker_closure
        cliques = _enumerated_cliques(st)
        drawn = [tuple(rng.permutation(st.n)[:int(rng.integers(0, st.n + 1))].tolist())
                 for _ in range(40)]
        for pts in list(cliques) + drawn + [frozenset(d) for d in drawn]:
            assert st.closure(pts) == oracle(st, pts), (st, pts)
        assert st.closure(()) == st.closure(frozenset()) == frozenset()


def _enumerated_cliques(st):
    """The cliques of an explicit table; none for a classical model or a
    table past the enumeration budget."""
    if st.kind != core.EXPLICIT:
        return ()
    try:
        return st.explicit_lattice()["cliques"]
    except BudgetRequired:
        return ()


def old_cliques(st):
    """Every pairwise-orthogonal point set, grown from the table's entries."""
    found = [()]
    for p in range(st.n):
        found += [c + (p,) for c in found if all(st.matrix[p, q] <= TOL_EQ for q in c)]
    return found


def old_least_carrier(closures, pts):
    """The smallest closure containing ``pts``, checked to lie inside every
    other one that does; None when none does."""
    containing = [c for c in closures if pts <= c]
    if not containing:
        return None
    least = min(containing, key=len)
    assert all(least <= c for c in containing)
    return least


@pytest.mark.parametrize("st", [load_structure(FIXTURES / "explicit4.json"), wheel_structure()]
                         + PLANE_TABLES + LARGE_PLANE_TABLES,
                         ids=["explicit4", "wheel"] + [f"plane{k}" for k in range(3, 13)]
                         + [f"plane{k}" for k in (14, 24, 60)])
def test_least_carrier_matches_the_smallest_closure_of_a_clique(st):
    cliques = old_cliques(st)
    assert sorted(st.explicit_lattice()["cliques"]) == sorted(cliques)
    closures = {old_closure(st, c) for c in cliques}
    assert set(st.explicit_lattice()["carrier_list"]) == closures
    rng = np.random.default_rng(st.n)
    drawn = [frozenset(rng.permutation(st.n)[:int(rng.integers(0, 4))].tolist())
             for _ in range(60)]
    pairs = [frozenset(c) for c in itertools.combinations(range(st.n), 2)]
    for pts in closures | set(drawn) | set(pairs):
        assert st.least_carrier(pts) == old_least_carrier(closures, pts), (st, pts)


def test_row_sums_have_the_bits_of_one_row():
    # from eight columns on, numpy sums a column-major slice in another order
    rng = np.random.default_rng(13)
    m = np.triu(rng.random((13, 13)), 1)
    st = SPStructure.explicit(m + m.T + np.eye(13))
    for k in range(14):
        for _ in range(5):
            pts = tuple(rng.permutation(13)[:k].tolist())
            want = [st.raw_ortho_sum(x, pts) for x in range(13)]
            assert [float(v).hex() for v in st.row_sums(pts)] == [v.hex() for v in want]


# ---------------------------------------------------------------------------
# ray subspace similarity: one SVD of the principal cosines


def old_zero_witness(a, b):
    """A ``tau = 0`` vantage point from one ``eigh`` of ``S``, or ``None``."""
    fa, fb = a.frame, b.frame
    cross = a.projector() @ b.projector()
    lam, w = np.linalg.eigh((cross + cross.T) / 2.0)
    for i in np.flatnonzero(lam < 0.0):
        for j in np.flatnonzero(lam > 0.0)[::-1]:
            x = math.sqrt(lam[j]) * w[:, i] + math.sqrt(-lam[i]) * w[:, j]
            x /= np.linalg.norm(x)
            if min(np.sum((x @ fa) ** 2), np.sum((x @ fb) ** 2)) <= TOL_EQ:
                continue
            pt = a.structure.as_point(x)
            if sim.tau(pt, a, b) <= TOL_EQ:
                return pt
    return None


def old_subspace_similarity(a, b):
    """``s(A, B)`` on rays by the cross-meet route, and the branch that
    answered: ``"closed"``, ``"cross"`` or ``"eigh"``."""
    if a == b:
        return sim.exact(1.0), "closed"
    if a.is_empty or b.is_empty:
        return sim.exact(0.0), "closed"
    if a.is_full or b.is_full:
        other = b if a.is_full else a
        wit = ortho_complement(other).basis_points()[0]
        return sim.exact(0.0, witness=np.asarray(wit).tolist()), "closed"
    if is_orthogonal(a, b):
        return sim.exact(0.0, witness=np.asarray(a.basis_points()[0]).tolist()), "closed"
    if a.dim == 1 and b.dim == 1:
        dot = float(np.dot(a.frame[:, 0], b.frame[:, 0]))
        return sim.exact(min(1.0, dot * dot)), "closed"
    for side, other in ((b, a), (a, b)):
        cross = meet(ortho_complement(other), side)
        if not cross.is_empty:
            return sim.exact(0.0, witness=np.asarray(cross.basis_points()[0]).tolist()), "cross"
    witness = old_zero_witness(a, b)
    return sim.exact(0.0, witness=None if witness is None else witness.tolist()), "eigh"


def _assert_similarity_matches_the_old_route(a, b, at_tol=False):
    """Returns the oracle's branch and whether the library gave a witness.
    ``at_tol``: the smallest principal ``cos^2`` is ``TOL_EQ`` itself, where
    the last bits decide whether a cross point is taken on either route."""
    got = sim.subspace_similarity(a, b)
    want, branch = old_subspace_similarity(a, b)
    assert (float(got.value).hex(), got.certainty) == (float(want.value).hex(), want.certainty)
    if branch == "closed":
        assert got == want
    elif want.witness is not None or got.witness is not None:
        assert got.witness is not None, "the old route found a witness"
        x = as_point(a.structure, got.witness)
        assert sim.tau(x, a, b) <= TOL_EQ
        if branch == "cross" and not at_tol:
            # a point of one side orthogonal to the other: the larger side,
            # or B for equal dimensions
            side, other = (a, b) if a.dim > b.dim else (b, a)
            assert similarity_to_subspace(x, side) >= 1.0 - TOL_EQ
            assert similarity_to_subspace(x, other) <= TOL_EQ
    return branch, got.witness is not None


@pytest.mark.parametrize("d", range(2, 9))
def test_similarity_matches_the_old_route_on_every_dimension_pair(d):
    st = SPStructure.ray(d)
    rng = np.random.default_rng(20 + d)
    branches = set()
    for ka, kb in itertools.product(range(d + 1), repeat=2):
        for _ in range(3):
            a = from_span(st, rng.standard_normal((ka, d)))
            b = from_span(st, rng.standard_normal((kb, d)))
            branch, has_witness = _assert_similarity_matches_the_old_route(a, b)
            branches.add(branch)
            if branch != "closed":
                assert has_witness
    assert branches == ({"closed"} if d == 2 else {"closed", "cross", "eigh"})


def _principal_pair(st, k, cosines, rng):
    """A random ``k``-plane and one whose principal cosines against it are
    ``cosines``, tilted into ``k`` directions orthogonal to it."""
    q = random_frame(st.d, 2 * k, rng)
    c = np.asarray(cosines)
    tilted = q[:, :k] * c + q[:, k:] * np.sqrt(1.0 - c * c)
    return from_span(st, q[:, :k].T), from_span(st, tilted.T)


@pytest.mark.parametrize("f", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d,k", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 2), (8, 4)])
def test_similarity_matches_the_old_route_at_the_orthogonal_edge(d, k, f):
    # the smallest principal cos^2 at f x TOL_EQ: generic other angles, or
    # the others shared (cos 1), as a tilt of one frame column
    st = SPStructure.ray(d)
    rng = np.random.default_rng(100 * d + k)
    last = math.sqrt(f * TOL_EQ)
    pairs = [_principal_pair(st, k, list(rng.uniform(0.2, 0.95, k - 1)) + [last], rng)
             for _ in range(4)]
    frame = random_frame(d, k, rng)
    pairs.append((from_span(st, frame.T), _tilted(st, frame, math.acos(last), rng)))
    for a, b in pairs:
        assert principal_cos2(a.frame.T, b.frame.T) > TOL_EQ  # not orthogonal
        for x, y in ((a, b), (b, a)):
            _, has_witness = _assert_similarity_matches_the_old_route(x, y, f == 1.0)
            assert has_witness


def test_similarity_matches_the_old_route_in_the_near_equal_band():
    # planes 3.5e-5 and 4e-5 apart on every principal plane: unequal, value
    # 0 with no witness on both routes
    for g in (3.5e-5, 4e-5):
        r3, r4 = SPStructure.ray(3), SPStructure.ray(4)
        pairs = [
            (from_span(r4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
             from_span(r4, [[math.cos(g), 0, math.sin(g), 0],
                            [0, math.cos(g), 0, math.sin(g)]])),
            (from_span(r3, [[1, 0, 0], [0, 1, 0]]), from_span(r3, [[1, 0, 0], [0, 1, g]])),
        ]
        for a, b in pairs:
            assert a != b
            for x, y in ((a, b), (b, a)):
                assert _assert_similarity_matches_the_old_route(x, y) == ("eigh", False)
                assert old_subspace_similarity(x, y)[0].witness is None


def test_similarity_reads_no_meet_and_no_complement(monkeypatch):
    st = SPStructure.ray(5)
    rng = np.random.default_rng(3)
    pairs = [(from_span(st, rng.standard_normal((ka, 5))),
              from_span(st, rng.standard_normal((kb, 5))))
             for ka, kb in ((2, 2), (3, 3), (2, 3), (4, 1), (3, 2))]

    def forbidden(*args):
        raise AssertionError("a lattice operation ran")

    monkeypatch.setattr(lattice.RaySubspace, "meet", forbidden)
    monkeypatch.setattr(lattice.RaySubspace, "complement", forbidden)
    for a, b in pairs:
        assert sim.subspace_similarity(a, b).witness is not None


# ---------------------------------------------------------------------------
# top and bottom from dimensions: the route that always built a frame


def old_column_span(st, m, frames=False):
    if not m.shape[1]:
        return lattice.RaySubspace.empty(st)
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    if sv[0] < core.TOL_UNIT:
        return lattice.RaySubspace.empty(st)
    sq = sv * sv
    keep = (sq >= 1.0) | (sq * (2.0 - sq) > TOL_EQ) if frames else sq > TOL_EQ * sq[0]
    rank = int(np.sum(keep))
    basis = u[:, :rank]
    return lattice.RaySubspace(st, lattice._canonical_frame(basis @ basis.T, rank))


def old_join(*subs):
    return old_column_span(subs[0].structure, np.concatenate(
        [s.frame for s in subs], axis=1), frames=True)


def old_meet(*subs):
    st = subs[0].structure
    _, sv, vt = np.linalg.svd(np.vstack([np.eye(st.d) - s.projector() for s in subs]))
    sq = sv * sv
    return old_column_span(st, vt[(sq < 1.0) & (sq * (2.0 - sq) <= TOL_EQ)].T)


def old_complement(a):
    st = a.structure
    return lattice.RaySubspace(st, lattice._canonical_frame(
        np.eye(st.d) - a.projector(), st.d - a.dim))


def _assert_same_route(got, want, operands=()):
    """Same dimension, ``==`` both ways and canonical key.  Where the library
    returned an operand as it is, the old route rebuilt that operand's frame
    from its projector: the same frame up to its last bits, whose keys at 12
    decimals can round apart (15 of the 1,251 pairs at ``d = 16, 32``)."""
    assert got.dim == want.dim
    assert got == want and want == got
    if any(got is s for s in operands):
        assert np.max(np.abs(got.frame - want.frame), initial=0.0) <= 1e-13
    else:
        assert got.canonical_key() == want.canonical_key()
    if got.is_full:
        assert got.frame.tobytes() == np.eye(got.structure.d).tobytes()


def _assert_ops_match_the_old_route(*subs):
    _assert_same_route(join(*subs), old_join(*subs), subs)
    _assert_same_route(meet(*subs), old_meet(*subs), subs)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16, 32])
def test_lattice_ops_match_the_old_route_on_every_dimension_pair(d):
    st = SPStructure.ray(d)
    rng = np.random.default_rng(40 + d)
    spans = []
    for k in range(d + 1):
        rows = rng.standard_normal((k, d))
        spans.append(from_span(st, rows))
        _assert_same_route(spans[-1], old_column_span(st, rows.T))
        _assert_same_route(ortho_complement(spans[-1]), old_complement(spans[-1]))
    for a, b in itertools.product(spans, repeat=2):
        _assert_ops_match_the_old_route(a, b)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_lattice_ops_match_the_old_route_on_triples_with_empty_and_full(d):
    st = SPStructure.ray(d)
    rng = np.random.default_rng(60 + d)
    pool = [empty(st), full(st)] + [from_span(st, rng.standard_normal((k, d)))
                                    for k in sorted({1, d // 2, d - 1})]
    for subs in itertools.product(pool, repeat=3):
        _assert_ops_match_the_old_route(*subs)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_empty_and_full_operands_return_the_other_operand(d):
    st = SPStructure.ray(d)
    rng = np.random.default_rng(d)
    zero, one = empty(st), full(st)
    for k in range(1, d):
        x = from_span(st, rng.standard_normal((k, d)))
        assert join(x, zero) is x and join(zero, x) is x and join(x, zero, zero) is x
        assert meet(x, one) is x and meet(one, x) is x and meet(x, one, one) is x
        assert meet(x, zero).is_empty and meet(zero, x, one).is_empty
        for top in (join(x, one), join(one, x, zero)):
            assert top.frame.tobytes() == np.eye(d).tobytes()


def _count_frames(monkeypatch):
    calls = []
    real = lattice._canonical_frame

    def counted(proj, rank):
        calls.append(rank)
        return real(proj, rank)

    monkeypatch.setattr(lattice, "_canonical_frame", counted)
    return calls


@pytest.mark.parametrize("d", [3, 5, 32])
def test_top_and_bottom_build_no_frame(monkeypatch, d):
    st = SPStructure.ray(d)
    rng = np.random.default_rng(80 + d)
    a = from_span(st, rng.standard_normal((d // 2, d)))
    ca = ortho_complement(a)
    basis = random_frame(d, d, rng).T
    line = from_span(st, rng.standard_normal((1, d)))
    # frames are built on first read: read the operands' frames here, so
    # the count sees only what 0, 1 and the proper join build
    for s in (a, ca, line):
        assert s.frame.shape == (d, s.dim)
    calls = _count_frames(monkeypatch)
    results = [join(a, ca), ortho_complement(empty(st)), ortho_complement(full(st)),
               from_basis(st, basis), join(ca, a, empty(st))]
    assert calls == []
    assert [r.dim for r in results] == [d, d, 0, d, d]
    for r in results:
        if r.is_full:
            assert r.frame.tobytes() == np.eye(d).tobytes()
    # a proper subspace still builds its frame, on first read
    proper = join(a, line)
    assert proper.dim == d // 2 + 1 and calls == []
    assert proper.frame.shape == (d, d // 2 + 1) and len(calls) == 1


# ---------------------------------------------------------------------------
# frames on first read: the bytes of the eager builders, relations on onb


OLD_BUILDERS = {lattice.join: old_join, lattice.meet: old_meet,
                lattice.ortho_complement: old_complement}


def _record_ops(monkeypatch, read_now):
    """Record every ``from_span``, ``join``, ``meet`` and
    ``ortho_complement`` the library makes, as ``(op, operands, result)``;
    a result's frame is read as soon as it is built where ``read_now()``."""
    log = []

    def recording(op):
        def run(*args):
            got = op(*args)
            log.append((op, args, got))
            if read_now():
                assert got.frame.shape == (got.structure.d, got.dim)
            return got
        return run

    for name in ("from_span", "join", "meet", "ortho_complement"):
        monkeypatch.setattr(lattice, name, recording(getattr(lattice, name)))
    return log


def _replay_eagerly(log):
    """Each recorded result next to its eager twin: the old builder applied
    to the twins of the operands, or the library's own shortcut where it
    took one (an operand returned as it is, 0 and 1 from dimensions), so
    both routes stay in step.  The old builder runs in every case and must
    agree on the dimension."""
    twins = {}
    pairs = []
    for op, args, got in log:
        st = got.structure
        if op is lattice.from_span:
            want = old_column_span(st, np.asarray(args[1], dtype=float).reshape(-1, st.d).T)
        else:
            want = OLD_BUILDERS[op](*(twins[id(s)] for s in args))
        assert want.dim == got.dim
        shortcut = [twins[id(s)] for s in args if s is got]
        if shortcut:
            want = shortcut[0]
        elif got.is_empty or got.is_full:
            want = lattice.RaySubspace.empty(st) if got.is_empty else lattice.RaySubspace.full(st)
        twins[id(got)] = want
        pairs.append((got, want))
    return pairs


def _lattice_data(d, seed):
    rng = np.random.default_rng(seed)
    return {"d": d, "frames": [random_frame(d, int(k), rng) if k else np.zeros((d, 0))
                               for k in rng.integers(0, d + 1, 3)]}


LAZY_CASES = ([(d, seed) for d in (2, 3, 4, 5) for seed in range(6)]
              + [(d, seed) for d in (4, 8, 16, 32) for seed in range(3)])


@pytest.mark.parametrize("read", ["read-at-once", "read-after", "read-half"])
@pytest.mark.parametrize("d,seed", LAZY_CASES)
def test_lazy_frames_have_the_bytes_of_the_eager_builders(monkeypatch, d, seed, read):
    # every subspace lattice_run builds, its frame read as soon as it is
    # built, only after the run's relations, or at once for a seeded half
    # of the results, so that joins and meets see operands with and
    # without frames; against the eager route
    data = _lattice_data(d, seed)
    coin = np.random.default_rng(seed + 1000 * d)
    read_now = {"read-at-once": lambda: True, "read-after": lambda: False,
                "read-half": lambda: coin.random() < 0.5}[read]
    with monkeypatch.context() as mp:
        log = _record_ops(mp, read_now)
        workloads.lattice_run(data)
    assert len(log) > 20
    for got, want in _replay_eagerly(log):
        assert got.frame.tobytes() == want.frame.tobytes(), (got, want)
        assert not got.frame.flags.writeable


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 32])
def test_complements_build_their_frames_from_the_operands_canonical_frame(d):
    rng = np.random.default_rng(120 + d)
    st = SPStructure.ray(d)
    for k in range(1, d):
        rows = rng.standard_normal((k, d))
        eager = old_column_span(st, rows.T)
        # the complement's frame read before its operand's, then the second
        # complement's after a relation
        a = from_span(st, rows)
        ca = ortho_complement(a)
        cca = ortho_complement(ca)
        assert ca.frame.tobytes() == old_complement(eager).frame.tobytes()
        assert a.frame.tobytes() == eager.frame.tobytes()
        assert cca == a and is_orthogonal(cca, ca)
        assert cca.frame.tobytes() == old_complement(old_complement(eager)).frame.tobytes()


def _fresh_results(d, seed):
    """Spans, their complements, joins and meets, none of whose frames is
    built (the operations read their operands' frames)."""
    rng = np.random.default_rng(seed)
    st = SPStructure.ray(d)
    spans = [from_span(st, rng.standard_normal((k, d))) for k in (1, d // 2, d - 1)]
    spans.append(_tilted(st, spans[1]._slot.onb, 1e-6, rng))  # equal to spans[1]
    comps = [ortho_complement(s) for s in spans]
    ops = [join(spans[0], spans[1]), meet(spans[1], spans[2]), join(comps[0], spans[0]),
           meet(comps[2], spans[2])]
    return spans + comps + ops


@pytest.mark.parametrize("d", [3, 4, 5, 8, 16, 32])
def test_relations_on_fresh_results_build_no_frame(monkeypatch, d):
    subs = _fresh_results(d, 140 + d)
    calls = _count_frames(monkeypatch)
    seen = {(x == y, is_subset(x, y), is_orthogonal(x, y))
            for x, y in itertools.product(subs, repeat=2)}
    assert subs[1] == subs[3] and subs[3] == subs[1]  # the tilt is within TOL_EQ
    assert calls == []
    assert len(seen) >= 3


def frame_subset(x, y):
    return lattice._within_tol(x.frame - y.frame @ (y.frame.T @ x.frame))


def frame_orthogonal(x, y):
    return lattice._within_tol(x.frame.T @ y.frame)


@pytest.mark.parametrize("d,k", SHAPES)
@pytest.mark.parametrize("s2", BOUNDARY)
def test_relations_on_onb_agree_with_relations_on_frames(d, k, s2):
    st = SPStructure.ray(d)
    a, b, c, q = (from_span(st, v) for v in _swept_pair(d, k, s2))
    base = [a, b, c, q]
    subs = base + [ortho_complement(s) for s in base] + [join(a, b), meet(a, b),
                                                          join(c, q), meet(b, c)]
    for x, y in itertools.product(subs, repeat=2):
        sub = frame_subset(x, y)
        assert is_subset(x, y) is sub, (x, y)
        assert is_orthogonal(x, y) is frame_orthogonal(x, y), (x, y)
        assert (x == y) is (x.dim == y.dim and sub and frame_subset(y, x)), (x, y)


@pytest.mark.parametrize("name", ["ray_lattice", "ray_similarity", "discrete_fields"])
def test_a_workload_batch_leaves_no_reference_cycle(name):
    work = workloads.WORKLOADS[name]
    batch = work.items(np.random.default_rng(5), work.size)
    gc.collect()
    gc.disable()
    try:
        for item in batch:
            work.check(item.data, work.run(item.data))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_ray_lattice_batch_builds_half_the_frames(monkeypatch):
    # seed 5: 745 frames, 47,670 sweep steps and 1,212 SVDs when every
    # result built its frame; relations on onb leave 391 and 24,940
    work = workloads.WORKLOADS["ray_lattice"]
    batch = work.items(np.random.default_rng(5), work.size)
    calls = _count_frames(monkeypatch)
    svds = []
    real_svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svds.append(1)
        return real_svd(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "svd", counted_svd)
        for item in batch:
            work.run(item.data)
    assert len(calls) <= 400
    assert sum(r * (r - 1) // 2 for r in calls) <= 25_000
    assert len(svds) <= 1_212


def _count_svds(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def test_a_ray_lattice_batch_builds_no_frame(monkeypatch):
    # joins and meets read carried bases: the batch reads no frame, so it
    # builds none, with no more SVDs than when every operand had a frame
    work = workloads.WORKLOADS["ray_lattice"]
    batch = work.items(np.random.default_rng(5), work.size)
    calls = _count_frames(monkeypatch)
    svds = _count_svds(monkeypatch)
    for item in batch:
        work.run(item.data)
    assert calls == []
    assert len(svds) <= 1_212


def _ray(text):
    """A ray of ``R^4`` written as in the Cabello bases: ``1-100`` is
    ``(1, -1, 0, 0)``."""
    return [float(c) * (-1.0 if text[i - 1:i] == "-" else 1.0)
            for i, c in enumerate(text) if c != "-"]


def test_a_ray_closure_does_the_eager_work(monkeypatch):
    # the closure reads every event's key, so every operand has its frame
    # and each join and meet carries the eager basis, with no replay
    st = SPStructure.ray(4)
    calls = _count_frames(monkeypatch)
    svds = _count_svds(monkeypatch)
    gens = [from_span(st, [_ray(r)]) for r in ("0001", "0010", "1100", "1-100", "0100")]
    fld = sigma.generate_sigma_star(st, gens)
    assert len(fld) == 24
    assert (len(svds), len(calls)) == (869, 399)


DEPTH = 5_000


def test_deep_chains_replay_without_recursion():
    # a plane complemented DEPTH times, and a line joined with one line and
    # met with one plane in turn (a plane and a line in turn), each step
    # next to its eager twin
    st = SPStructure.ray(3)
    rng = np.random.default_rng(11)

    def twins(k):
        rows = rng.standard_normal((k, 3))
        return from_span(st, rows), old_column_span(st, rows.T)

    (x, ex), (y, ey) = twins(1), twins(2)
    complements = [(ortho_complement, old_complement)]
    turns = [(lambda a: join(a, x), lambda a: old_join(a, ex)),
             (lambda a: meet(a, y), lambda a: old_meet(a, ey))]
    for (got, want), steps in ((twins(2), complements), (twins(1), turns)):
        chain = []
        for i in range(DEPTH):
            op, old_op = steps[i % len(steps)]
            got, want = op(got), old_op(want)
            chain.append((got, want))
        # the last result first: every frame of the chain replays under it
        assert got.canonical_key() == want.canonical_key()
        for got, want in chain:
            assert got.dim == want.dim
            assert got.frame.tobytes() == want.frame.tobytes()
