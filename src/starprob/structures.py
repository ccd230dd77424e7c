"""Concrete similarity-projection sample spaces.

A sample space here is a set of points together with a similarity function
``s(x, y)`` taking values in ``[0, 1]``, with ``s(x, y) = 1`` exactly when
the points coincide.  Three models are provided:

* ``classical`` -- ``n`` labelled points, similarity is the Kronecker delta.
* ``ray``       -- rays of ``R^d`` (unit vectors modulo sign), similarity is
  the squared dot product.
* ``explicit``  -- ``n`` labelled points with the full similarity matrix
  given up front.  Nothing beyond the matrix shape is assumed; deeper
  structural properties are checked by :mod:`starprob.axioms`.

Points are plain values: an ``int`` index for the discrete models, a
canonicalized unit ``numpy`` vector for the ray model.  Structures are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    BoundednessViolated,
    BudgetRequired,
    CompletionNotFound,
    EmptySubspace,
    FormatError,
    InvalidPoint,
    MixedStructures,
    NotASubspace,
    NotOrthoSet,
    OrthogonalProjectionUndefined,
    ProjectionNotFound,
)

# Tolerances, pinned once and reused everywhere.
TOL_EQ = 1e-9  # similarity comparisons and orthogonality tests
TOL_UNIT = 1e-12  # unit-norm, canonical-sign and weight-sum checks
SV_RTOL = 1e-10  # relative singular-value cutoff for rank decisions
GS_DISCARD = 1e-10  # residual cutoff when completing a basis
CANON_DECIMALS = 12  # rounding applied to canonical dedup keys
EXPLICIT_ENUM_MAX = 12  # largest explicit model enumerated exhaustively
COMPLETION_MAX_NODES = 200_000  # search budget of explicit basis completion

# Verdicts, pinned once and ranked on one ladder:
# pass < sampled-pass / inconclusive < fail / fail-certified.
PASS = "pass"
SAMPLED_PASS = "sampled-pass"
INCONCLUSIVE = "inconclusive"
FAIL = "fail"
FAIL_CERTIFIED = "fail-certified"
_VERDICT_RANK = {PASS: 0, SAMPLED_PASS: 1, INCONCLUSIVE: 1,
                 FAIL: 2, FAIL_CERTIFIED: 2}


def worst(statuses) -> str:
    """The highest verdict on the ladder (the first on a tie); ``pass`` if none."""
    return max(statuses, key=_VERDICT_RANK.__getitem__, default=PASS)


MAX_WITNESSES = 3  # witnesses kept per check


@dataclass
class Check:
    """The record of one law, as every validator and suite reports it.

    ``status`` starts where the law's evidence starts (``pass`` for exact
    checks, ``sampled-pass`` for seeded ones) and moves up the ladder as
    trials come in; a validator that decides a law in one step sets it
    directly.  ``witnesses`` keeps the first few failures, so a ``fail``
    can be re-checked by hand.
    """

    law: str
    status: str = PASS
    trials: int = 0
    failures: int = 0
    inconclusive: int = 0
    max_residual: float = 0.0
    witnesses: list = field(default_factory=list)
    detail: dict | None = None

    @property
    def witness(self):
        """The first witness, or ``None``."""
        return self.witnesses[0] if self.witnesses else None

    def hit(self, ok: bool, residual: float = 0.0, witness=None,
            trials: int = 1) -> None:
        """Record ``trials`` trials that held (``ok``) or failed together."""
        self.trials += trials
        if residual > self.max_residual:
            self.max_residual = residual
        if not ok:
            self.fail(witness)

    def soft(self, verdict: str, witness=None) -> None:
        """Record one direction-aware verdict; ``fail-certified`` counts as
        a failure and ``inconclusive`` as an uncertified trial."""
        self.trials += 1
        if verdict == FAIL_CERTIFIED:
            self.fail(witness)
        elif verdict == INCONCLUSIVE:
            self.inconclusive += 1
            self.status = worst((self.status, INCONCLUSIVE))

    def fail(self, witness=None, count: int = 1) -> None:
        """Count ``count`` failures (trials are counted by the caller)."""
        self.failures += count
        self.status = FAIL
        if witness is not None and len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(witness)


@dataclass
class Report:
    """The checks of one validator or suite, in the order they ran."""

    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return worst(c.status for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.overall == PASS

    def check(self, law: str) -> Check:
        """The check recorded for ``law``; ``KeyError`` if there is none."""
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)


Point = Union[int, np.ndarray]

CLASSICAL = "classical"
RAY = "ray"
EXPLICIT = "explicit"


@dataclass(eq=False)
class SPStructure:
    """One sample space.  Use the ``classical`` / ``ray`` / ``explicit`` constructors."""

    kind: str
    n: int = 0
    d: int = 0
    labels: tuple[str, ...] = ()
    matrix: np.ndarray | None = None
    _cache: dict | None = field(default=None, init=False, repr=False)
    # explicit models: for each point, the points orthogonal to it
    orthogonal: tuple[frozenset, ...] = field(default=(), init=False, repr=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def classical(n: int) -> "SPStructure":
        if n < 1:
            raise FormatError("classical model needs at least one point")
        return SPStructure(kind=CLASSICAL, n=int(n),
                           labels=tuple(str(i) for i in range(n)))

    @staticmethod
    def ray(d: int) -> "SPStructure":
        if d < 1:
            raise FormatError("ray model needs dimension >= 1")
        return SPStructure(kind=RAY, d=int(d))

    @staticmethod
    def explicit(matrix, labels: Sequence[str] | None = None) -> "SPStructure":
        try:
            m = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError):
            raise FormatError("similarity matrix must be a square table of numbers") from None
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise FormatError("similarity matrix must be square")
        n = m.shape[0]
        if n < 1:
            raise FormatError("explicit model needs at least one point")
        if not np.all(np.isfinite(m)):
            raise FormatError("similarity matrix entries must be finite")
        if np.max(np.abs(m - m.T)) > TOL_UNIT:
            raise FormatError("similarity matrix must be symmetric (within 1e-12)")
        if np.max(np.abs(np.diag(m) - 1.0)) > TOL_UNIT:
            raise FormatError("similarity matrix diagonal must be 1 (within 1e-12)")
        if m.min() < -TOL_UNIT or m.max() > 1.0 + TOL_UNIT:
            raise FormatError("similarity entries must lie in [0, 1]")
        for i in range(n):
            for j in range(i + 1, n):
                if np.max(np.abs(m[i] - m[j])) <= TOL_UNIT:
                    raise FormatError(
                        f"points {i} and {j} have identical similarity rows; "
                        "the space would not be standard")
        if labels is None:
            labels = tuple(f"p{i}" for i in range(n))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n or len(set(labels)) != n:
                raise FormatError("labels must be distinct and match the matrix size")
        m = m.copy()
        m.flags.writeable = False
        st = SPStructure(kind=EXPLICIT, n=n, labels=labels, matrix=m)
        st.orthogonal = tuple(frozenset(np.flatnonzero(m[:, q] <= TOL_EQ).tolist())
                              for q in range(n))
        return st

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise InvalidPoint(f"unknown point label {label!r}") from None


def same_structure(a: SPStructure, b: SPStructure) -> bool:
    if a is b:
        return True
    if a.kind != b.kind:
        return False
    if a.kind == RAY:
        return a.d == b.d
    if a.kind == CLASSICAL:
        return a.n == b.n
    return a.n == b.n and a.labels == b.labels and np.array_equal(a.matrix, b.matrix)


def ensure_same_structure(a: SPStructure, b: SPStructure) -> None:
    if not same_structure(a, b):
        raise MixedStructures("operands belong to different sample spaces")


# ---------------------------------------------------------------------------
# points


def as_point(st: SPStructure, raw) -> Point:
    """Canonicalize ``raw`` into a point of ``st``.

    Discrete models accept an index or a label.  The ray model accepts any
    non-zero vector, which is normalized and sign-canonicalized (the first
    component larger than 1e-12 in magnitude is made positive) so equal rays
    compare equal entrywise.
    """
    if st.kind == RAY:
        v = _ray_vector(st, raw)
        if not np.all(np.isfinite(v)):
            raise InvalidPoint("vector has non-finite entries")
        norm = float(np.linalg.norm(v))
        if not TOL_UNIT <= norm < np.inf:
            raise InvalidPoint("a zero or overflowing vector does not define a ray")
        v = v / norm
        v = _canonical_sign(v)
        v.flags.writeable = False
        return v
    if isinstance(raw, str):
        idx = st.label_index(raw)
    else:
        try:
            idx = int(raw)
        except (TypeError, ValueError, OverflowError):
            idx = None
        # an index is an integral number; int() would truncate 2.7 and take True
        if idx is None or isinstance(raw, (bool, np.bool_)) or idx != raw:
            raise InvalidPoint(f"not a point of a discrete model: {raw!r}")
    if not 0 <= idx < st.n:
        raise InvalidPoint(f"point index {idx} out of range [0, {st.n})")
    return idx


def _ray_vector(st: SPStructure, raw) -> np.ndarray:
    """``raw`` as ``d`` floats (ray model), not yet normalized.  Finiteness is
    the caller's check, so a span checks its whole stack of vectors at once."""
    try:
        v = np.asarray(raw)
        ok = v.dtype.kind in "iuf" and v.shape == (st.d,)
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise InvalidPoint(f"expected a vector of {st.d} numbers, got {raw!r}")
    return v.astype(float, copy=False)


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    lead = np.flatnonzero(np.abs(v) > TOL_UNIT)
    if not lead.size:
        return v
    return -v if v[lead[0]] < 0 else +v


def check_point(st: SPStructure, x: Point) -> Point:
    """Validate that ``x`` already is a point of ``st`` (cheap; no copying)."""
    if st.kind == RAY:
        if not isinstance(x, np.ndarray) or x.shape != (st.d,):
            raise InvalidPoint(f"expected a length-{st.d} vector")
        if abs(float(np.linalg.norm(x)) - 1.0) > TOL_EQ:
            raise InvalidPoint("ray points must be unit vectors")
        return x
    if isinstance(x, (bool, float)) or not isinstance(x, (int, np.integer)):
        raise InvalidPoint(f"expected a point index, got {x!r}")
    if not 0 <= int(x) < st.n:
        raise InvalidPoint(f"point index {int(x)} out of range [0, {st.n})")
    return int(x)


def points_equal(st: SPStructure, x: Point, y: Point) -> bool:
    """Equality as rays / labels, i.e. similarity indistinguishable from 1."""
    return similarity(st, x, y) >= 1.0 - TOL_EQ


# ---------------------------------------------------------------------------
# similarity


def similarity(st: SPStructure, x: Point, y: Point) -> float:
    """The similarity ``s(x, y)``: symmetric, in ``[0, 1]``, and 1 iff ``x = y``.

    Classical points compare by the Kronecker delta, rays by the squared dot
    product, explicit points by their matrix entry.  The result is clamped to
    ``[0, 1]`` so downstream comparisons never see stray rounding.
    """
    x = check_point(st, x)
    y = check_point(st, y)
    if st.kind == CLASSICAL:
        return 1.0 if x == y else 0.0
    if st.kind == RAY:
        dot = float(np.dot(x, y))
        return min(1.0, dot * dot)
    i, j = (x, y) if x <= y else (y, x)  # one code path for both orders
    return float(min(1.0, max(0.0, st.matrix[i, j])))


# the package re-exports the point similarity under a name that cannot shadow
# the similarity module
point_similarity = similarity


def ensure_ortho_set(st: SPStructure, points: Iterable) -> tuple[Point, ...]:
    """Canonicalize ``points`` and verify pairwise orthogonality.

    Raises :class:`NotOrthoSet` when any pair has similarity above 1e-9, or
    when a point is repeated.
    """
    pts = tuple(as_point(st, p) for p in points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            s = similarity(st, pts[i], pts[j])
            if s > TOL_EQ:
                raise NotOrthoSet(
                    f"points {i} and {j} have similarity {s:.3g} > 1e-9")
    return pts


def similarity_to_ortho_set(st: SPStructure, x: Point, ortho: Sequence[Point]) -> float:
    """``s(x, A)``: the total similarity of ``x`` against an orthogonal set.

    The sum is bounded by one on any genuine similarity-projection space;
    the explicit model raises :class:`BoundednessViolated` when the input
    matrix breaks that bound.
    """
    return similarity_to_basis(st, x, ensure_ortho_set(st, ortho))


def similarity_to_basis(st: SPStructure, x: Point, pts: Sequence[Point]) -> float:
    """:func:`similarity_to_ortho_set` for canonical points already known to
    be pairwise orthogonal, such as a subspace's own basis: no pair check."""
    x = check_point(st, x)
    raw = _raw_ortho_sum(st, x, pts)
    if st.kind == EXPLICIT and raw > 1.0 + TOL_EQ:
        raise BoundednessViolated(
            f"similarity to orthogonal set sums to {raw:.6g} > 1")
    return float(min(1.0, max(0.0, raw)))


def _raw_ortho_sum(st: SPStructure, x: Point, pts: Sequence[Point]) -> float:
    if not pts:
        return 0.0
    if st.kind == RAY:
        mat = np.stack(pts)  # k x d
        return float(np.sum((mat @ x) ** 2))
    if st.kind == CLASSICAL:
        return 1.0 if x in pts else 0.0
    return float(np.sum(st.matrix[x, list(pts)]))


# ---------------------------------------------------------------------------
# projection onto the span of an orthogonal set


def project_point(st: SPStructure, x: Point, basis: Sequence[Point],
                  carrier: frozenset | None = None) -> Point:
    """The representative ``t(x, A)`` of ``x`` inside the span of ``A``.

    ``t`` is the unique point of the span with ``s(x, t) = s(x, A)`` that
    factorizes every similarity into the span:
    ``s(x, z) = s(x, t) * s(t, z)``.

    Raises :class:`OrthogonalProjectionUndefined` when ``x`` is orthogonal to
    the span and :class:`EmptySubspace` when ``A`` is empty.
    """
    return project_onto_basis(st, x, ensure_ortho_set(st, basis), carrier)


def project_onto_basis(st: SPStructure, x: Point, pts: Sequence[Point],
                       carrier: frozenset | None = None) -> Point:
    """:func:`project_point` for canonical points already known to be
    pairwise orthogonal, such as a subspace's own basis: no pair check."""
    x = check_point(st, x)
    if not pts:
        raise EmptySubspace("cannot project onto the empty subspace")
    sxa = similarity_to_basis(st, x, pts)
    if sxa <= TOL_EQ:
        raise OrthogonalProjectionUndefined(
            "the point is orthogonal to the subspace")
    if st.kind == RAY:
        mat = np.stack(pts)
        proj = mat.T @ (mat @ x)
        return as_point(st, proj)
    members = carrier if carrier is not None else closure_of_ortho_set(st, pts)
    for p in sorted(members):
        if abs(similarity(st, x, p) - sxa) <= TOL_EQ:
            return p
    raise ProjectionNotFound(
        "no member of the subspace attains the projection similarity; "
        "the matrix is not a similarity-projection space")


def closure_of_ortho_set(st: SPStructure, ortho: Sequence[Point]) -> frozenset:
    """All points with total similarity 1 against ``ortho`` (discrete models)."""
    if st.kind == RAY:
        raise FormatError("ray subspaces are carried by frames, not point sets")
    pts = ensure_ortho_set(st, ortho)
    if st.kind == CLASSICAL:
        return frozenset(int(p) for p in pts)
    out = []
    for p in range(st.n):
        if abs(_raw_ortho_sum(st, p, pts) - 1.0) <= TOL_EQ:
            out.append(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# basis completion


def extend_to_basis(st: SPStructure, ortho: Sequence[Point]) -> tuple[Point, ...]:
    """Complete an orthogonal set to a basis of the whole space.

    A basis is an orthogonal set whose total similarity against every point
    is one.  Deterministic: the ray model runs Gram-Schmidt over standard
    basis candidates in index order (residuals below 1e-10 are discarded);
    discrete models search candidates in index order.

    Raises :class:`CompletionNotFound` when no completion exists or the
    search budget of ``COMPLETION_MAX_NODES`` nodes runs out (the two cases
    are distinguished on the error).
    """
    pts = ensure_ortho_set(st, ortho)
    if st.kind == CLASSICAL:
        return tuple(range(st.n))  # the only basis is the whole point set
    if st.kind == RAY:
        return _complete_ray_basis(st, pts)
    return _complete_explicit_basis(st, pts)


def _complete_ray_basis(st: SPStructure, pts: Sequence[Point]) -> tuple[Point, ...]:
    frame = [np.asarray(p, dtype=float) for p in pts]
    for i in range(st.d):
        v = np.zeros(st.d)
        v[i] = 1.0
        for c in frame:
            v = v - np.dot(c, v) * c
        norm = float(np.linalg.norm(v))
        if norm < GS_DISCARD:
            continue
        v = v / norm
        for c in frame:  # second sweep tightens orthogonality
            v = v - np.dot(c, v) * c
        v = v / float(np.linalg.norm(v))
        frame.append(v)
    assert len(frame) == st.d
    return tuple(as_point(st, v) for v in frame)


def _complete_explicit_basis(st: SPStructure, pts: Sequence[Point]) -> tuple[Point, ...]:
    base = tuple(sorted(int(p) for p in pts))
    matrix = st.matrix
    nodes = 0

    def is_basis(sel: tuple[int, ...]) -> bool:
        cols = list(sel)
        sums = matrix[:, cols].sum(axis=1)
        return bool(np.all(np.abs(sums - 1.0) <= TOL_EQ))

    def orthogonal_to_all(p: int, sel: tuple[int, ...]) -> bool:
        return all(matrix[p, q] <= TOL_EQ for q in sel)

    candidates = [p for p in range(st.n)
                  if p not in base and orthogonal_to_all(p, base)]

    def search(sel: tuple[int, ...], start: int):
        nonlocal nodes
        nodes += 1
        if nodes > COMPLETION_MAX_NODES:
            raise CompletionNotFound(
                "basis completion search budget exhausted", exhausted=False)
        if is_basis(sel):
            return sel
        for k in range(start, len(candidates)):
            p = candidates[k]
            if orthogonal_to_all(p, sel):
                found = search(sel + (p,), k + 1)
                if found is not None:
                    return found
        return None

    found = search(base, 0)
    if found is None:
        raise CompletionNotFound(
            "no orthogonal completion spans the whole space; "
            "the matrix is not a similarity-projection space", exhausted=True)
    return found


# ---------------------------------------------------------------------------
# explicit-model subspace enumeration


def explicit_lattice(st: SPStructure) -> dict:
    """Enumerate every subspace of an explicit model (cached on the structure).

    Returns a dict with ``cliques`` (all pairwise-orthogonal point sets, in
    deterministic DFS order), ``carriers`` (closure -> canonical basis) and
    ``carrier_list`` (closures in canonical sorted order).  Feasible for
    ``n <= 12``; larger models raise :class:`BudgetRequired`.
    """
    if st.kind != EXPLICIT:
        raise FormatError("subspace enumeration applies to explicit models only")
    if st._cache is not None:
        return st._cache
    if st.n > EXPLICIT_ENUM_MAX:
        raise BudgetRequired(
            f"explicit model has {st.n} > {EXPLICIT_ENUM_MAX} points; "
            "exhaustive subspace enumeration is out of budget")
    cliques: list[tuple[int, ...]] = [()]

    def grow(clique: tuple[int, ...], start: int) -> None:
        for v in range(start, st.n):
            if st.orthogonal[v].issuperset(clique):
                nxt = clique + (v,)
                cliques.append(nxt)
                grow(nxt, v + 1)

    grow((), 0)

    carriers: dict[frozenset, tuple[int, ...]] = {}
    for clique in cliques:
        carriers.setdefault(closure_of_ortho_set(st, clique), clique)
    cache = {
        "cliques": tuple(cliques),
        "carriers": carriers,
        "carrier_list": sorted(carriers, key=lambda c: (len(c), sorted(c))),
    }
    st._cache = cache
    return cache


# ---------------------------------------------------------------------------
# discrete subspaces, carried by point sets
#
# The classical model is the Kronecker case of the explicit one: every point
# set is the closure of itself, so nothing is enumerated.  These three
# helpers are the only place the two discrete models differ in the lattice.


def carrier_basis(st: SPStructure, carrier: frozenset) -> tuple[int, ...]:
    """The canonical orthogonal basis of a carrier (discrete models).

    A carrier is the point set of a subspace, the closure of an orthogonal
    set.  Classical: every set is one, with its sorted points as basis.
    Explicit: looked up in :func:`explicit_lattice`; raises
    :class:`NotASubspace` when the set is no closure.
    """
    if st.kind == CLASSICAL:
        return tuple(sorted(carrier))
    basis = explicit_lattice(st)["carriers"].get(carrier)
    if basis is None:
        raise NotASubspace(
            f"point set {sorted(carrier)} is not the closure of any "
            "orthogonal set")
    return basis


def least_carrier(st: SPStructure, points: frozenset) -> frozenset | None:
    """The least carrier containing ``points``; None when no carrier does."""
    if st.kind == CLASSICAL:
        return points
    carriers = [c for c in explicit_lattice(st)["carrier_list"] if points <= c]
    return frozenset.intersection(*carriers) if carriers else None


def orthogonal_points(st: SPStructure, points) -> frozenset:
    """Every point orthogonal to all of ``points`` (discrete models)."""
    if st.kind == CLASSICAL:
        return frozenset(range(st.n)).difference(points)
    return frozenset(range(st.n)).intersection(*(st.orthogonal[q] for q in points))


# ---------------------------------------------------------------------------
# seeded sampling helpers (shared by the validator and the property suites)


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(d)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


def random_frame(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random orthonormal ``d x k`` frame (deterministic per rng state)."""
    if k == 0:
        return np.zeros((d, 0))
    g = rng.standard_normal((d, k))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
