"""The complete orthocomplemented lattice of subspaces.

A subspace is the closure of a pairwise-orthogonal point set: everything
with total similarity one against the set.  The model is chosen once, when a
subspace is built; the public functions check that their operands share one
sample space and make one method call.  A :class:`DiscreteSubspace` carries
its point set (its carrier) plus a canonical basis, and every discrete
operation computes a carrier.  The classical model is the Kronecker case of
that route, in which every point set is its own closure; where it differs
from an explicit table (a carrier's basis and literal, the least carrier
over a point set, the points orthogonal to a set) the structure's class
answers.  A :class:`RaySubspace` carries the orthonormal basis its
construction produced (``onb``, the carried basis: the leading left singular
vectors of a span, sum or intersection, the trailing columns of a complete
QR for a complement) and builds its canonical frame (column-pivoted,
largest-residual-first, sign-canonical) on first read of ``frame``.
Equal subspaces built by different routes, even ``a + b`` and ``b + a``, can
round apart at 12 decimals, so ``==`` decides equality and the canonical key
is only a hint.  Ray relations are decided on the principal angles (Bjorck
& Golub 1973) against ``TOL_EQ``, read from sines where small (Knyazev &
Argentati 2002): ``A`` is orthogonal to ``B`` when every principal
``cos^2`` is within it, ``A <= B`` (orthogonality to ``B'``) when every
``sin^2`` is, and ``A == B`` when ``A <= B`` and the dimensions agree.
Principal angles are the same for any orthonormal basis, so the relations
read ``onb`` and build no frame, and so do the operations where an
operand's frame is not built yet; the canonical key, literals, basis points
and similarity read the frame.

The lattice operations are sum (least upper bound), intersection (greatest
lower bound) and orthocomplement, kept on the subspace after its first use.
For rays the sum is one SVD of the operands' stacked bases, the
intersection one SVD of their stacked residual maps ``I - B B^T`` (the
common nullspace), each operand given by its frame if built and else by
its ``onb``, and the complement the trailing columns of a complete QR of
the operand's ``onb``.  A result's frame is the one the eager route gives,
in which every operand had its frame: on first read a result replays that
route on its operands' frames, built first (see :class:`_FrameSlot`), and
keeps the dimension it was built with.  So the frame, the key and every
printed value keep their bits whichever frames were read before.  Ray 0
and 1 are decided from dimensions: a span of rank ``d`` is 1, with the
identity frame; ``0' = 1``, ``1' = 0``, and 0 and 1 drop out of sums and
intersections (``x + 0 = x``, ``x + 1 = 1``, ``x & 1 = x``, ``x & 0 = 0``).
The lattice is orthomodular but not distributive; ``check_orthomodular``
and ``distributes`` exercise both laws.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import structures as core
from .errors import EmptySubspace, NotASubspace
from .structures import (
    CANON_DECIMALS,
    TOL_EQ,
    Point,
    SPStructure,
    ensure_same_structure,
)


class Subspace:
    """A closed subspace of one sample space.

    Immutable.  Use :func:`from_points`, :func:`from_span`,
    :func:`from_basis`, :func:`empty` or :func:`full` to build one; they
    return the model's subclass, which sets ``dim`` and ``is_full`` and whose
    hooks ``_key`` and ``_same`` sit behind :meth:`canonical_key` and ``==``.
    """

    # _complement is filled by the first ortho_complement call
    __slots__ = ("structure", "dim", "is_full", "_complement")

    @property
    def is_empty(self) -> bool:
        return self.dim == 0

    def canonical_key(self):
        """Hashable sort key and dedup hint; ``==`` decides equality, as
        equal ray subspaces built by different routes can differ in it."""
        return self._key()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if not core.same_structure(self.structure, other.structure):
            return False
        return self._same(other)

    __hash__ = None  # tolerance-based equality does not hash


# ---------------------------------------------------------------------------
# constructors


def _model(st: SPStructure) -> type:
    return RaySubspace if st.kind == core.RAY else DiscreteSubspace


def empty(st: SPStructure) -> Subspace:
    return _model(st).empty(st)


def full(st: SPStructure) -> Subspace:
    return _model(st).full(st)


def from_basis(st: SPStructure, ortho) -> Subspace:
    """The closure of a pairwise-orthogonal point set."""
    return _model(st).from_basis(st, core.ensure_ortho_set(st, ortho))


def from_points(st: SPStructure, points: Iterable) -> Subspace:
    """The least subspace containing the given points (discrete models)."""
    return _model(st).span(st, points)


def from_span(st: SPStructure, vectors) -> Subspace:
    """The span of arbitrary vectors (ray model); rank decided by SVD."""
    return _model(st).span(st, vectors)


# ---------------------------------------------------------------------------
# lattice operations


def ortho_complement(a: Subspace) -> Subspace:
    """Everything orthogonal to the subspace; an involution.

    Computed once per subspace object and kept on it.  The result does not
    point back at ``a``, so ``ortho_complement(ortho_complement(a))`` is
    computed afresh and the involution law compares two constructions.
    """
    if a._complement is None:
        a._complement = a.complement()
    return a._complement


def join(first: Subspace, *rest: Subspace) -> Subspace:
    """Sum of subspaces: the least subspace containing every operand."""
    for s in rest:
        ensure_same_structure(first.structure, s.structure)
    return first.join(rest)


def meet(first: Subspace, *rest: Subspace) -> Subspace:
    """Intersection of subspaces: the greatest subspace inside every operand."""
    for s in rest:
        ensure_same_structure(first.structure, s.structure)
    return first.meet(rest)


def is_orthogonal(a: Subspace, b: Subspace) -> bool:
    """Every point of one orthogonal to every point of the other."""
    ensure_same_structure(a.structure, b.structure)
    return a.is_orthogonal_to(b)


def is_subset(a: Subspace, b: Subspace) -> bool:
    ensure_same_structure(a.structure, b.structure)
    return a.is_subset_of(b)


def similarity_to_subspace(x: Point, b: Subspace) -> float:
    """``s(x, B)`` computed through any basis of ``B`` (basis-independent)."""
    return b.similarity_to(x)


def project(x: Point, b: Subspace) -> Point:
    """The projection ``t(x, B)``; undefined when ``x`` is orthogonal to ``B``."""
    if b.is_empty:
        raise EmptySubspace("cannot project onto the empty subspace")
    return b.project(x)


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
    construction of :func:`meet` and the sums from the span of the operands'
    bases, so ``(A & B)' = A' + B'`` and ``(A + B)' = A' & B'`` each compare
    an SVD of stacked residual maps with an SVD of stacked bases.  Rewriting
    the intersection as the complement of a sum of complements would reduce
    the first identity to ``((A' + B')')' = A' + B'``, which only tests the
    involution.
    """
    ca, cb = ortho_complement(a), ortho_complement(b)
    first = ortho_complement(meet(a, b)) == join(ca, cb)
    second = ortho_complement(join(a, b)) == meet(ca, cb)
    return first and second


def distributes(a: Subspace, b: Subspace, c: Subspace) -> bool:
    """Whether ``a & (b + c) == (a & b) + (a & c)`` for this triple."""
    return meet(a, join(b, c)) == join(meet(a, b), meet(a, c))


def commutes(a: Subspace, b: Subspace) -> bool:
    """Whether ``a = (a & b) + (a & b')``; symmetric in an orthomodular lattice."""
    return a == join(meet(a, b), meet(a, ortho_complement(b)))


# ---------------------------------------------------------------------------
# discrete models: subspaces carried by point sets (classical and explicit)


class DiscreteSubspace(Subspace):
    """The classical or explicit subspace whose point set is exactly ``points``."""

    __slots__ = ("points", "basis")

    def __init__(self, st: SPStructure, points: frozenset, basis=None):
        self.structure = st
        self.points = points
        self.basis = st.carrier_basis(points) if basis is None else basis
        self.dim = len(self.basis)
        self.is_full = len(points) == st.n
        self._complement = None

    @staticmethod
    def empty(st):
        return DiscreteSubspace(st, frozenset(), ())

    @staticmethod
    def full(st):
        return DiscreteSubspace(st, frozenset(range(st.n)))

    @staticmethod
    def from_basis(st, pts):
        return DiscreteSubspace(st, st.closure(pts))

    @staticmethod
    def span(st, points):
        pts = frozenset(st.as_point(p) for p in points)
        return _least_containing(st, pts, "the given points")

    def basis_points(self) -> tuple[Point, ...]:
        """The canonical basis of the carrier."""
        return self.basis

    def _key(self):
        return (self.dim, tuple(sorted(self.points)))

    def _same(self, other) -> bool:
        return self.points == other.points

    def to_literal(self):
        """Point labels: indices for the classical model."""
        return self.structure.carrier_literal(self.points)

    def __repr__(self) -> str:
        names = ",".join(self.structure.labels[p] for p in sorted(self.points))
        return f"Subspace({self.structure.kind}, {{{names}}})"

    def complement(self):
        st = self.structure
        return DiscreteSubspace(st, st.orthogonal_points(self.points))

    def join(self, rest):
        union = self.points.union(*(s.points for s in rest))
        return _least_containing(self.structure, union, "the union")

    def meet(self, rest):
        return DiscreteSubspace(self.structure,
                                self.points.intersection(*(s.points for s in rest)))

    def is_orthogonal_to(self, other) -> bool:
        return self.points <= self.structure.orthogonal_points(other.points)

    def is_subset_of(self, other) -> bool:
        return self.points <= other.points

    # the basis is orthogonal by construction: no pairwise check
    def similarity_to(self, x: Point) -> float:
        return self.structure.similarity_to_basis(x, self.basis)

    def project(self, x: Point) -> Point:
        return self.structure.project_onto_basis(x, self.basis, self.points)

    @staticmethod
    def sum_gap(parts) -> float:  # orthogonal point sets add exactly
        return 0.0


def _least_containing(st: SPStructure, pts: frozenset, what: str) -> DiscreteSubspace:
    """The least discrete subspace containing ``pts``."""
    carrier = st.least_carrier(pts)
    if carrier is None:
        raise NotASubspace(f"no subspace contains {what}")
    return DiscreteSubspace(st, carrier)


# ---------------------------------------------------------------------------
# the ray model: subspaces carried by orthonormal bases and canonical frames


class _FrameSlot:
    """A ray subspace's carried basis ``onb``, its canonical ``frame`` once
    built, and the recipe that builds the frame from what the eager route
    used: ``op`` applied to the canonical frames of the operands' slots
    ``of``.  With no ``op`` the frame is that of ``onb onb^T``.  A
    ``"complement"`` takes ``I - F F^T`` of its operand's frame; a
    ``"join"`` or ``"meet"`` runs the eager SVDs again on the operands'
    frames (stacked, or stacked as ``I - F F^T``), keeps ``dim`` leading
    left singular vectors ``u`` and takes the frame of ``u u^T``.  A join or
    meet whose operands all had frames carries the eager basis already and
    keeps no recipe.  The recipe is dropped once the frame is built.

    Slots point at slots, never at subspaces: an operand keeps its
    complement as its memo, so pointing back would make a reference cycle."""

    __slots__ = ("onb", "frame", "op", "of")

    def __init__(self, onb: np.ndarray, frame: np.ndarray | None = None,
                 op: str | None = None, of: tuple[_FrameSlot, ...] = ()):
        onb.flags.writeable = False
        self.onb, self.frame, self.op, self.of = onb, frame, op, of

    def basis(self) -> np.ndarray:
        """The canonical frame if it is built, else the carried basis."""
        return self.onb if self.frame is None else self.frame

    def canonical(self) -> np.ndarray:
        """The canonical frame, building it and every missing operand frame
        first, operands before results, on an explicit stack: a chain of
        operations any number deep replays without recursion."""
        stack = [self] if self.frame is None else []
        while stack:
            slot = stack[-1]
            if slot.frame is not None:
                stack.pop()
                continue
            waiting = [s for s in slot.of if s.frame is None]
            if waiting:
                stack += waiting
            else:
                stack.pop()
                slot._replay()
        return self.frame

    def _replay(self) -> None:
        d, k = self.onb.shape
        frames = [s.frame for s in self.of]
        if self.op == "complement":
            proj = np.eye(d) - frames[0] @ frames[0].T
        else:
            u = self.onb
            if self.op == "join":
                u = _leading(np.concatenate(frames, axis=1), k)
            elif self.op == "meet":  # sv^2 descend: the meet keeps trailing rows
                u = _leading(_residual_svd(frames)[1][d - k:].T, k)
            proj = u @ u.T
        frame = _canonical_frame(proj, k)
        frame.flags.writeable = False
        self.frame, self.op, self.of = frame, None, ()


class RaySubspace(Subspace):
    """A subspace of ``R^d``, one column per dimension: the orthonormal
    basis its construction produced (``_slot.onb``, not canonical) and the
    canonical ``frame``, built on first read.  The relations and a
    complement's carried basis read ``onb``; joins and meets read each
    operand's frame if it is built and its ``onb`` otherwise; everything
    else reads the frame (``projector``, ``sum_gap``, the canonical key,
    literals, basis points and similarity)."""

    # _basis is filled by the first _own_basis call
    __slots__ = ("_slot", "_basis")

    def __init__(self, st: SPStructure, frame: np.ndarray | None = None, *,
                 onb: np.ndarray | None = None, op: str | None = None,
                 of: tuple[_FrameSlot, ...] = ()):
        """From its canonical ``frame``, or from an orthonormal ``onb`` with
        the frame left to first read, by the recipe ``op`` on the operands'
        slots ``of`` (see :class:`_FrameSlot`)."""
        self._slot = _FrameSlot(frame, frame) if onb is None else _FrameSlot(onb, op=op, of=of)
        self.structure = st
        self.dim = self._slot.onb.shape[1]
        self.is_full = self.dim == st.d
        self._complement = self._basis = None

    @property
    def frame(self) -> np.ndarray:
        """The canonical frame (read-only), built on first read."""
        return self._slot.canonical()

    @staticmethod
    def empty(st):
        return RaySubspace(st, np.zeros((st.d, 0)))

    @staticmethod
    def full(st):
        return RaySubspace(st, np.eye(st.d))

    @staticmethod
    def from_basis(st, pts):
        if not pts:
            return RaySubspace.empty(st)
        if len(pts) == st.d:  # d orthogonal points span R^d
            return RaySubspace.full(st)
        return RaySubspace(st, _canonical_frame(sum(np.outer(p, p) for p in pts),
                                                len(pts)))

    @staticmethod
    def span(st, vectors):
        rows = [st.vector(v) for v in vectors]
        m = np.stack(rows, axis=1) if rows else np.zeros((st.d, 0))
        if not np.isfinite(m).all():
            raise core.InvalidPoint("vectors have non-finite entries")
        return _column_span(st, m)

    def basis_points(self) -> tuple[Point, ...]:
        """The frame's columns as points."""
        return tuple(self.structure.as_point(self.frame[:, i])
                     for i in range(self.dim))

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.T

    def _key(self):
        return (self.dim, tuple(np.round(self.frame, CANON_DECIMALS).ravel()))

    def _same(self, other) -> bool:  # sin^2 read both ways, so == is symmetric
        return (self.dim == other.dim and self.is_subset_of(other)
                and other.is_subset_of(self))

    def to_literal(self):
        """The frame's columns."""
        return [[float(v) for v in self.frame[:, i]] for i in range(self.dim)]

    def __repr__(self) -> str:
        return f"Subspace(ray d={self.structure.d}, dim={self.dim})"

    def complement(self):
        st = self.structure
        if self.is_empty or self.is_full:  # 0' = 1 and 1' = 0
            return RaySubspace.full(st) if self.is_empty else RaySubspace.empty(st)
        q = np.linalg.qr(self._slot.onb, mode="complete")[0]
        return RaySubspace(st, onb=q[:, self.dim:], op="complement", of=(self._slot,))

    # On a principal plane (angle g), the stacked bases [B_A B_B] and residual
    # maps [I - P_A; I - P_B] have one sv^2 = 1 - cos g: sin^2 g = sv^2 (2 - sv^2).
    # Other sv^2 are >= 1, or 0 (bases) and 2 (maps) off both sides.  The sum
    # keeps sv^2 >= 1 and sin^2 g > TOL_EQ; the meet sv^2 < 1, sin^2 g <= TOL_EQ.
    # For n operands sv^2 sums cos^2 or sin^2: operands lie in the join, the meet in each.

    def join(self, rest):
        subs = [s for s in (self,) + rest if not s.is_empty] or [self]  # x + 0 = x
        most = max(subs, key=lambda s: s.dim)
        if len(subs) == 1 or most.is_full:  # x + 1 = 1
            return most
        slots = [s._slot for s in subs]
        return _column_span(self.structure, np.concatenate(
            [s.basis() for s in slots], axis=1), frames=True, **_recipe("join", slots))

    def meet(self, rest):
        """The common nullspace of the residual maps ``I - P``, from one SVD
        of the stacked maps."""
        subs = [s for s in (self,) + rest if not s.is_full] or [self]  # x & 1 = x
        least = min(subs, key=lambda s: s.dim)
        if len(subs) == 1 or least.is_empty:  # x & 0 = 0
            return least
        slots = [s._slot for s in subs]
        sq, vt = _residual_svd([s.basis() for s in slots])
        return _column_span(self.structure, vt[(sq < 1.0) & (sq * (2.0 - sq) <= TOL_EQ)].T,
                            **_recipe("meet", slots))

    def is_orthogonal_to(self, other) -> bool:  # principal cos^2
        return _within_tol(self._slot.onb.T @ other._slot.onb)

    def is_subset_of(self, other) -> bool:  # principal sin^2
        a, b = self._slot.onb, other._slot.onb
        return _within_tol(a - b @ (b.T @ a))

    def _own_basis(self) -> tuple[Point, ...]:
        # orthogonal by construction: no pairwise check.  as_point runs again
        # on basis_points, which fixes the last bits of what is computed here
        if self._basis is None:
            self._basis = tuple(map(self.structure.as_point, self.basis_points()))
        return self._basis

    def similarity_to(self, x: Point) -> float:
        return self.structure.similarity_to_basis(x, self._own_basis())

    def project(self, x: Point) -> Point:
        return self.structure.project_onto_basis(x, self._own_basis())

    @staticmethod
    def sum_gap(parts) -> float:
        """A bound on ``||P_J - sum P_i||_2`` for the join ``J`` of ``parts``
        that are orthogonal within ``TOL_EQ``, from the parts alone.

        With the parts' frames stacked as ``F``, ``sum P_i = F F^T``, whose
        nonzero eigenvalues are those of ``F^T F``; ``P_J`` is the identity
        on the range of ``F``, so the gap is at most ``||F^T F - I||_2``,
        the cross cosines of the parts (0 when they are exactly
        orthogonal)."""
        frames = np.hstack([s.frame for s in parts])
        return float(np.linalg.norm(frames.T @ frames - np.eye(frames.shape[1]), 2))


def _column_span(st: SPStructure, m: np.ndarray, frames: bool = False,
                 op: str | None = None, of: tuple[_FrameSlot, ...] = ()) -> RaySubspace:
    """The span of the columns of a finite ``d x m`` matrix; rank by SVD:
    ``sv^2 > TOL_EQ sv_0^2``, or the sum's rule for stacked ``frames``.  A
    proper result builds its frame by the recipe ``op`` on ``of``."""
    if not m.shape[1]:
        return RaySubspace.empty(st)
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    if sv[0] < core.TOL_UNIT:
        return RaySubspace.empty(st)
    sq = sv * sv
    keep = (sq >= 1.0) | (sq * (2.0 - sq) > TOL_EQ) if frames else sq > TOL_EQ * sq[0]
    rank = int(np.sum(keep))
    if rank == st.d:  # a span of rank d is 1
        return RaySubspace.full(st)
    return RaySubspace(st, onb=u[:, :rank], op=op, of=of)


def _recipe(op: str, slots: list[_FrameSlot]) -> dict:
    """``op`` on ``slots`` when an operand's frame is missing; nothing when
    every frame is built, as the result then carries the eager basis."""
    if all(s.frame is not None for s in slots):
        return {}
    return {"op": op, "of": tuple(slots)}


def _residual_svd(bases: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``sv^2`` and ``V^T`` of the full SVD of the stacked ``I - B B^T``."""
    eye = np.eye(bases[0].shape[0])
    _, sv, vt = np.linalg.svd(np.vstack([eye - b @ b.T for b in bases]))
    return sv * sv, vt


def _leading(m: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` leading left singular vectors of ``m``."""
    return np.linalg.svd(m, full_matrices=False)[0][:, :k]


def _within_tol(m: np.ndarray) -> bool:
    """``||m||_2^2 <= TOL_EQ``, by SVD only where the Frobenius norm cannot
    tell, as ``||m||_2^2 <= ||m||_F^2 <= min(m.shape) ||m||_2^2``."""
    frob = float(np.sum(m * m))
    if frob <= TOL_EQ or frob > min(m.shape) * TOL_EQ:
        return frob <= TOL_EQ
    return float(np.linalg.norm(m, 2)) ** 2 <= TOL_EQ


def _canonical_frame(proj: np.ndarray, rank: int) -> np.ndarray:
    """Deterministic orthonormal frame of a projector.

    Picks, at each step, the standard-basis column with the largest residual
    after removing the columns already chosen, normalizes it, and fixes the
    sign so the first component above 1e-12 is positive.  The outcome depends
    only on the projector, so every construction route for the same subspace
    lands on the same frame up to its last bits; for 0 and 1, which never
    reach this function, it holds byte for byte.

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
