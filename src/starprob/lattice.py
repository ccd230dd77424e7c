"""The complete orthocomplemented lattice of subspaces.

A subspace is the closure of a pairwise-orthogonal point set: everything
with total similarity one against the set.  There are two routes.  Discrete
models carry a subspace as its point set (its carrier) plus a canonical
basis; every discrete operation computes a carrier and hands it to one
constructor.  The classical model is the Kronecker case of that route, in
which every point set is its own closure; the three places where it differs
from an explicit table (a carrier's basis, the least carrier over a point
set, the points orthogonal to a set) live in :mod:`starprob.structures`.
The ray model carries subspaces as canonical orthonormal frames
(column-pivoted, largest-residual-first, sign-canonical), so equal subspaces
have byte-identical canonical forms after rounding to 12 decimal places.
Equality is additionally backed by projector comparison.

The lattice operations are sum (least upper bound), intersection (greatest
lower bound) and orthocomplement.  For rays the sum is one SVD of the
operands' stacked frames, the intersection one SVD of their stacked residual
maps ``I - P`` (the common nullspace), and the complement the frame of
``I - P``, kept on the subspace after its first use.  The lattice is
orthomodular but not distributive; ``check_orthomodular`` and
``distributes`` exercise both laws.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import structures as core
from .errors import EmptySubspace, NotASubspace
from .structures import (
    CANON_DECIMALS,
    SV_RTOL,
    TOL_EQ,
    Point,
    SPStructure,
    as_point,
    ensure_same_structure,
)


class Subspace:
    """A closed subspace of one sample space.

    Immutable.  Use :func:`from_points`, :func:`from_span`,
    :func:`from_basis`, :func:`empty` or :func:`full` to build one.
    """

    __slots__ = ("structure", "points", "basis", "frame", "_complement")

    def __init__(self, structure: SPStructure, *, points=None, basis=None,
                 frame=None):
        self.structure = structure
        self.points: frozenset | None = points
        self.basis: tuple[int, ...] | None = basis
        self.frame: np.ndarray | None = frame
        # filled by the first ortho_complement call
        self._complement: Subspace | None = None
        if frame is not None:
            frame.flags.writeable = False

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        if self.frame is not None:
            return self.frame.shape[1]
        return len(self.basis)

    @property
    def is_empty(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        st = self.structure
        if st.kind == core.RAY:
            return self.dim == st.d
        return len(self.points) == st.n

    def basis_points(self) -> tuple[Point, ...]:
        """One orthogonal basis of the subspace, canonical per subspace."""
        if self.frame is not None:
            return tuple(as_point(self.structure, self.frame[:, i])
                         for i in range(self.frame.shape[1]))
        return self.basis

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.T

    # -- identity ----------------------------------------------------------

    def canonical_key(self):
        """Hashable dedup and sort key; ties are broken by projector comparison."""
        if self.frame is not None:
            return (self.dim, tuple(np.round(self.frame, CANON_DECIMALS).ravel()))
        return (self.dim, tuple(sorted(self.points)))

    def to_literal(self):
        """JSON-ready form: point labels for discrete models, frame columns for rays."""
        st = self.structure
        if st.kind == core.CLASSICAL:
            return sorted(int(p) for p in self.points)
        if st.kind == core.EXPLICIT:
            return [st.labels[p] for p in sorted(self.points)]
        return [[float(v) for v in self.frame[:, i]]
                for i in range(self.frame.shape[1])]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if not core.same_structure(self.structure, other.structure):
            return False
        if self.points is not None:
            return self.points == other.points
        if self.dim != other.dim:
            return False
        diff = self.projector() - other.projector()
        return float(np.max(np.abs(diff))) <= TOL_EQ if diff.size else True

    __hash__ = None  # tolerance-based equality does not hash

    def __repr__(self) -> str:
        st = self.structure
        if st.kind == core.RAY:
            return f"Subspace(ray d={st.d}, dim={self.dim})"
        names = ",".join(st.labels[p] for p in sorted(self.points))
        return f"Subspace({st.kind}, {{{names}}})"


# ---------------------------------------------------------------------------
# constructors


def empty(st: SPStructure) -> Subspace:
    if st.kind == core.RAY:
        return Subspace(st, frame=np.zeros((st.d, 0)))
    return Subspace(st, points=frozenset(), basis=())


def full(st: SPStructure) -> Subspace:
    if st.kind == core.RAY:
        return Subspace(st, frame=np.eye(st.d))
    return _from_carrier(st, frozenset(range(st.n)))


def from_basis(st: SPStructure, ortho) -> Subspace:
    """The closure of a pairwise-orthogonal point set."""
    pts = core.ensure_ortho_set(st, ortho)
    if st.kind == core.RAY:
        if not pts:
            return empty(st)
        return _ray_from_projector(st, sum(np.outer(p, p) for p in pts), len(pts))
    return _from_carrier(st, core.closure_of_ortho_set(st, pts))


def from_points(st: SPStructure, points: Iterable) -> Subspace:
    """The least subspace containing the given points (discrete models)."""
    if st.kind == core.RAY:
        return from_span(st, points)
    pts = frozenset(as_point(st, p) for p in points)
    return _least_containing(st, pts, "the given points")


def from_span(st: SPStructure, vectors) -> Subspace:
    """The span of arbitrary vectors (ray model); rank decided by SVD."""
    if st.kind != core.RAY:
        return from_points(st, vectors)
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if not rows:
        return empty(st)
    m = np.stack(rows, axis=1)  # d x m
    if m.shape[0] != st.d:
        raise core.InvalidPoint(f"vectors must have length {st.d}")
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    if sv.size == 0 or sv[0] < core.TOL_UNIT:
        return empty(st)
    rank = int(np.sum(sv > SV_RTOL * sv[0]))
    basis = u[:, :rank]
    return _ray_from_projector(st, basis @ basis.T, rank)


def _from_carrier(st: SPStructure, carrier: frozenset) -> Subspace:
    """The discrete subspace whose point set is exactly ``carrier``."""
    return Subspace(st, points=carrier, basis=core.carrier_basis(st, carrier))


def _least_containing(st: SPStructure, pts: frozenset, what: str) -> Subspace:
    """The least discrete subspace containing ``pts``."""
    carrier = core.least_carrier(st, pts)
    if carrier is None:
        raise NotASubspace(f"no subspace contains {what}")
    return _from_carrier(st, carrier)


def _ray_from_projector(st: SPStructure, proj: np.ndarray, rank: int) -> Subspace:
    return Subspace(st, frame=_canonical_frame(proj, rank))


def _canonical_frame(proj: np.ndarray, rank: int) -> np.ndarray:
    """Deterministic orthonormal frame of a projector.

    Picks, at each step, the standard-basis column with the largest residual
    after removing the columns already chosen, normalizes it, and fixes the
    sign so the first component above 1e-12 is positive.  The outcome depends
    only on the projector, so every construction route for the same subspace
    lands on the same frame.

    One residual is carried through the steps and each step subtracts only
    the newest column's outer product, so a step costs O(d^2); the
    subtractions run in column order, which fixes the frame's bits.
    """
    d = proj.shape[0]
    cols: list[np.ndarray] = []
    residual = proj.copy()
    for _ in range(rank):
        norms = np.sqrt(np.add.reduce(residual * residual, axis=0))
        # round before the argmax so exact ties (axis-aligned subspaces)
        # resolve to the lowest column index instead of to float noise
        pick = int(norms.round(CANON_DECIMALS).argmax())
        # a contiguous copy: sqrt(v.v) on it equals np.linalg.norm bit for
        # bit, on the strided column view it does not
        v = residual[:, pick].copy()
        v = v / math.sqrt(v.dot(v))
        for c in cols:  # one more sweep for tight orthonormality
            v = v - np.dot(c, v) * c
        v = core._canonical_sign(v / math.sqrt(v.dot(v)))
        cols.append(v)
        residual -= v[:, None] * v  # np.outer(v, v), without its wrapper
    if not cols:
        return np.zeros((d, 0))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# lattice operations


def ortho_complement(a: Subspace) -> Subspace:
    """Everything orthogonal to the subspace; an involution.

    Computed once per subspace object and kept on it.  The result does not
    point back at ``a``, so ``ortho_complement(ortho_complement(a))`` is
    computed afresh and the involution law compares two constructions.
    """
    if a._complement is None:
        st = a.structure
        if st.kind == core.RAY:
            proj = np.eye(st.d) - a.projector()
            a._complement = _ray_from_projector(st, proj, st.d - a.dim)
        else:
            a._complement = _from_carrier(st, core.orthogonal_points(st, a.points))
    return a._complement


def join(first: Subspace, *rest: Subspace) -> Subspace:
    """Sum of subspaces: the least subspace containing every operand."""
    subs = (first,) + rest
    st = first.structure
    for s in subs[1:]:
        ensure_same_structure(st, s.structure)
    if st.kind == core.RAY:
        frames = [s.frame for s in subs if s.dim]
        if not frames:
            return empty(st)
        return from_span(st, np.concatenate(frames, axis=1).T)
    union = frozenset().union(*(s.points for s in subs))
    return _least_containing(st, union, "the union")


def meet(first: Subspace, *rest: Subspace) -> Subspace:
    """Intersection of subspaces: the greatest subspace inside every operand."""
    subs = (first,) + rest
    st = first.structure
    for s in subs[1:]:
        ensure_same_structure(st, s.structure)
    if st.kind == core.RAY:
        return _nullspace_meet(*subs)
    return _from_carrier(st, frozenset.intersection(*(s.points for s in subs)))


def is_orthogonal(a: Subspace, b: Subspace) -> bool:
    """Every point of one orthogonal to every point of the other."""
    ensure_same_structure(a.structure, b.structure)
    st = a.structure
    if st.kind == core.RAY:
        if a.is_empty or b.is_empty:
            return True
        cross = (a.frame.T @ b.frame) ** 2
        return float(np.max(cross)) <= TOL_EQ
    return a.points <= core.orthogonal_points(st, b.points)


def is_subset(a: Subspace, b: Subspace) -> bool:
    ensure_same_structure(a.structure, b.structure)
    if a.points is not None:
        return a.points <= b.points
    if a.is_empty:
        return True
    residual = b.projector() @ a.frame - a.frame
    return float(np.max(np.abs(residual))) <= TOL_EQ


def similarity_to_subspace(x: Point, b: Subspace) -> float:
    """``s(x, B)`` computed through any basis of ``B`` (basis-independent)."""
    return core.similarity_to_basis(b.structure, x, _own_basis(b))


def project(x: Point, b: Subspace) -> Point:
    """The projection ``t(x, B)``; undefined when ``x`` is orthogonal to ``B``."""
    if b.is_empty:
        raise EmptySubspace("cannot project onto the empty subspace")
    return core.project_onto_basis(b.structure, x, _own_basis(b),
                                   carrier=b.points)


def _own_basis(b: Subspace) -> tuple[Point, ...]:
    """``b``'s basis as canonical points; orthogonal by construction, so the
    pairwise check of :func:`structures.ensure_ortho_set` is not repeated."""
    return tuple(as_point(b.structure, p) for p in b.basis_points())


# ---------------------------------------------------------------------------
# law checkers


def check_orthomodular(a: Subspace, c: Subspace) -> bool:
    """The orthomodular law ``C = A + (A' & C)`` for a nested pair ``A <= C``.

    Vacuously true when the pair is not nested; callers can screen with
    :func:`is_subset`.
    """
    if not is_subset(a, c):
        return True
    return join(a, meet(ortho_complement(a), c)) == c


def check_de_morgan(a: Subspace, b: Subspace) -> bool:
    """Both De Morgan identities, each side computed by a different route.

    For the ray model the intersections come from the common-nullspace
    construction (which :func:`meet` also uses) and the sums from the span of
    the operands' frames, so ``(A & B)' = A' + B'`` and
    ``(A + B)' = A' & B'`` each compare an SVD of stacked residual maps with
    an SVD of stacked frames.  Rewriting the intersection as the complement
    of a sum of complements would reduce the first identity to
    ``((A' + B')')' = A' + B'``, which only tests the involution.
    """
    ensure_same_structure(a.structure, b.structure)
    st = a.structure
    if st.kind == core.RAY:
        inter_ab = _nullspace_meet(a, b)
        inter_comp = _nullspace_meet(ortho_complement(a), ortho_complement(b))
    else:
        inter_ab = meet(a, b)
        inter_comp = meet(ortho_complement(a), ortho_complement(b))
    first = ortho_complement(inter_ab) == join(ortho_complement(a),
                                               ortho_complement(b))
    second = ortho_complement(join(a, b)) == inter_comp
    return first and second


def _nullspace_meet(*subs: Subspace) -> Subspace:
    """Intersection as the common nullspace of the residual maps ``I - P``,
    from one SVD of the stacked maps."""
    st = subs[0].structure
    d = st.d
    eye = np.eye(d)
    stacked = np.vstack([eye - s.projector() for s in subs])
    _, sv, vt = np.linalg.svd(stacked)
    cutoff = max(SV_RTOL * (sv[0] if sv.size else 0.0), core.TOL_UNIT)
    null_rows = [vt[i] for i in range(d) if (i >= sv.size or sv[i] <= cutoff)]
    if not null_rows:
        return empty(st)
    return from_span(st, null_rows)


def distributes(a: Subspace, b: Subspace, c: Subspace) -> bool:
    """Whether ``a & (b + c) == (a & b) + (a & c)`` for this triple."""
    return meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
