"""Concrete similarity-projection sample spaces.

A sample space here is a set of points together with a similarity function
``s(x, y)`` taking values in ``[0, 1]``, with ``s(x, y) = 1`` exactly when
the points coincide.  Three models are provided, one class each:

* :class:`ClassicalStructure` -- ``n`` labelled points, similarity is the
  Kronecker delta.
* :class:`RayStructure` -- rays of ``R^d`` (unit vectors modulo sign),
  similarity is the squared dot product.
* :class:`ExplicitStructure` -- ``n`` labelled points with the full
  similarity matrix given up front.  Nothing beyond the matrix shape is
  assumed; deeper structural properties are checked by
  :mod:`starprob.axioms`.

The model is decided once, by the constructors on :class:`SPStructure`,
and its class owns every model-specific step of the point layer; the module
functions do what the models share and make one method call.  Classical is
the Kronecker case of explicit: both are a :class:`DiscreteStructure`, and
classical answers each table scan in closed form.

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
TOL_EQ = 1e-9  # similarity; every ray relation, on principal sin^2 and cos^2
TOL_UNIT = 1e-12  # unit-norm, canonical-sign and weight-sum checks
CANON_DECIMALS = 12  # rounding applied to canonical dedup keys
ENUM_MAX_SETS = 2 ** 12  # cliques one explicit_lattice may hold: every subset of 12 points
COMPLETION_MAX_NODES = 200_000  # search budget of explicit basis completion

# Verdicts, pinned once and ranked on one ladder:
# pass < sampled-pass < fail / fail-certified.
PASS = "pass"
SAMPLED_PASS = "sampled-pass"
FAIL = "fail"
FAIL_CERTIFIED = "fail-certified"
_VERDICT_RANK = {PASS: 0, SAMPLED_PASS: 1, FAIL: 2, FAIL_CERTIFIED: 2}


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


class SPStructure:
    """One sample space.  The ``classical`` / ``ray`` / ``explicit``
    constructors return the model's subclass; ``kind`` names the model."""

    # -- constructors ------------------------------------------------------

    @staticmethod
    def classical(n: int) -> "ClassicalStructure":
        if n < 1:
            raise FormatError("classical model needs at least one point")
        return ClassicalStructure(int(n), tuple(str(i) for i in range(n)))

    @staticmethod
    def ray(d: int) -> "RayStructure":
        if d < 1:
            raise FormatError("ray model needs dimension >= 1")
        return RayStructure(int(d))

    @staticmethod
    def explicit(matrix, labels: Sequence[str] | None = None) -> "ExplicitStructure":
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
        return ExplicitStructure(n, labels, m, tuple(
            frozenset(np.flatnonzero(m[:, q] <= TOL_EQ).tolist()) for q in range(n)))

    # -- steps the models share --------------------------------------------

    def project_onto_basis(self, x: Point, pts: Sequence[Point],
                           carrier: frozenset | None = None) -> Point:
        """:func:`project_point` for canonical points already known to be
        pairwise orthogonal, such as a subspace's own basis: no pair check."""
        x = self.check_point(x)
        if not pts:
            raise EmptySubspace("cannot project onto the empty subspace")
        sxa = self.similarity_to_basis(x, pts)
        if sxa <= TOL_EQ:
            raise OrthogonalProjectionUndefined(
                "the point is orthogonal to the subspace")
        return self._project(x, pts, sxa, carrier)

    def explicit_lattice(self) -> dict:
        raise FormatError("subspace enumeration applies to explicit models only")


# ---------------------------------------------------------------------------
# discrete models: indexed, labelled points


@dataclass(eq=False)
class DiscreteStructure(SPStructure):
    """``n`` labelled points, addressed by index or label."""

    n: int
    labels: tuple[str, ...]

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise InvalidPoint(f"unknown point label {label!r}") from None

    def as_point(self, raw) -> int:
        if isinstance(raw, str):
            idx = self.label_index(raw)
        else:
            try:
                idx = int(raw)
            except (TypeError, ValueError, OverflowError):
                idx = None
            # an index is an integral number; int() would truncate 2.7 and take True
            if idx is None or isinstance(raw, (bool, np.bool_)) or idx != raw:
                raise InvalidPoint(f"not a point of a discrete model: {raw!r}")
        return self.check_point(idx)

    def check_point(self, x) -> int:
        if isinstance(x, (bool, float)) or not isinstance(x, (int, np.integer)):
            raise InvalidPoint(f"expected a point index, got {x!r}")
        if not 0 <= int(x) < self.n:
            raise InvalidPoint(f"point index {int(x)} out of range [0, {self.n})")
        return int(x)

    def o_witness(self, x: int, pts, sxa: float) -> int:
        """The witness of :func:`starprob.axioms.o_projection_point`: the
        first point orthogonal to ``pts`` that completes ``sxa`` to one."""
        for y in sorted(self.orthogonal_points(pts)):
            if abs(sxa + self.similarity(x, y) - 1.0) <= TOL_EQ:
                return y
        raise ProjectionNotFound(
            "no orthogonal witness completes the similarity sum to one")

    def points_equal(self, x, y) -> bool:
        return self.similarity(x, y) >= 1.0 - TOL_EQ

    def point_literal(self, x: int) -> str:
        return self.labels[int(x)]

    def carrier_literal(self, points: frozenset) -> tuple:
        """A subspace literal: the labels of its points.  Literals are tuples,
        one allocation each, as reports and witnesses keep many of them."""
        return tuple(self.labels[p] for p in sorted(points))

    def summary(self) -> dict:
        """Kind and size, as a validation report names the structure."""
        return {"kind": self.kind, "n": self.n}

    to_dict = summary  # the JSON document; explicit adds its table

    def random_span(self, rng: np.random.Generator) -> list[int]:
        """Seeded points whose least subspace is a random event."""
        size = int(rng.integers(0, self.n + 1))
        return sorted(rng.permutation(self.n)[:size].tolist())


@dataclass(eq=False)
class ClassicalStructure(DiscreteStructure):
    """Similarity is the Kronecker delta: every point set is a subspace
    carrier, with its sorted points as basis."""

    kind = CLASSICAL

    def similarity(self, x, y) -> float:
        return 1.0 if self.check_point(x) == self.check_point(y) else 0.0

    def similarity_to_basis(self, x, pts) -> float:
        return 1.0 if self.check_point(x) in pts else 0.0

    def _project(self, x: int, pts, sxa: float, carrier) -> int:
        return x  # s(x, A) > 0 only for the members of A

    def closure(self, pts) -> frozenset:
        return frozenset(int(p) for p in pts)

    def vantage_minimum(self, a, b) -> tuple[float, int]:
        """``s(A, B)`` for distinct subspaces and the first point attaining
        it, in closed form: a point of one side only is orthogonal to the
        other, so it compares the two at ``1 - 1 = 0``."""
        return 0.0, min(a.points.symmetric_difference(b.points))

    def complete_basis(self, pts) -> tuple[int, ...]:
        return tuple(range(self.n))  # the only basis is the whole point set

    def carrier_basis(self, carrier: frozenset) -> tuple[int, ...]:
        return tuple(sorted(carrier))

    def least_carrier(self, points: frozenset) -> frozenset:
        return points

    def orthogonal_points(self, points) -> frozenset:
        return frozenset(range(self.n)).difference(points)

    def carrier_literal(self, points: frozenset) -> tuple[int, ...]:
        """A subspace literal: indices (a point literal is its label)."""
        return tuple(sorted(int(p) for p in points))


@dataclass(eq=False)
class ExplicitStructure(DiscreteStructure):
    """Similarity is read off a tabulated matrix."""

    kind = EXPLICIT
    matrix: np.ndarray
    # for each point, the points orthogonal to it
    orthogonal: tuple[frozenset, ...] = field(repr=False)
    _lattice: dict | None = field(default=None, init=False, repr=False)
    # the similarity of every pair, clamped to [0, 1]; both orders read the
    # upper triangle, so s(x, y) = s(y, x) holds bit for bit
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        upper = np.triu(self.matrix) + np.triu(self.matrix, 1).T
        self.table = _clamp01(upper)
        self.table.flags.writeable = False

    def similarity(self, x, y) -> float:
        return float(self.table[self.check_point(x), self.check_point(y)])

    def raw_ortho_sum(self, x: int, pts) -> float:
        return float(np.sum(self.matrix[x, list(pts)])) if pts else 0.0

    def similarity_to_basis(self, x, pts) -> float:
        raw = self.raw_ortho_sum(self.check_point(x), pts)
        if raw > 1.0 + TOL_EQ:
            raise BoundednessViolated(
                f"similarity to orthogonal set sums to {raw:.6g} > 1")
        return float(min(1.0, max(0.0, raw)))

    def _project(self, x: int, pts, sxa: float, carrier) -> int:
        for p in sorted(carrier if carrier is not None else self.closure(pts)):
            if abs(self.similarity(x, p) - sxa) <= TOL_EQ:
                return p
        raise ProjectionNotFound(
            "no member of the subspace attains the projection similarity; "
            "the matrix is not a similarity-projection space")

    def row_sums(self, pts) -> np.ndarray:
        """:meth:`raw_ortho_sum` of every point against ``pts``, in one pass
        and with the same bits: ``take`` keeps each row contiguous, so each
        row sums pairwise as one row does (``matrix[:, pts]`` is column-major
        and sums in another order from eight columns on)."""
        return self.matrix.take(list(pts), axis=1).sum(axis=1)

    def closure(self, pts) -> frozenset:
        return frozenset(np.flatnonzero(np.abs(self.row_sums(pts) - 1.0) <= TOL_EQ).tolist())

    def vantage_minimum(self, a, b) -> tuple[float | None, int]:
        """``s(A, B)`` and the first point attaining it, from the table in one
        pass: the vantage comparison of :func:`starprob.similarity.tau` at
        every point at once, bit for bit.

        Where the table breaks an axiom (a similarity sum above one, or no
        member of a side attaining the projection similarity of a point that
        sees both sides) the value is ``None`` and the point is the first
        such point, at which ``tau`` raises."""
        raw_a, raw_b = self.row_sums(a.basis), self.row_sums(b.basis)
        sxa, sxb = _clamp01(raw_a), _clamp01(raw_b)
        orth_a, orth_b = sxa <= TOL_EQ, sxb <= TOL_EQ
        ta, found_a = self._projections(a.points, sxa)
        tb, found_b = self._projections(b.points, sxb)
        bad = ((raw_a > 1.0 + TOL_EQ) | (raw_b > 1.0 + TOL_EQ)
               | ~(orth_a | orth_b | (found_a & found_b)))
        if bad.any():
            return None, int(bad.argmax())
        values = np.where(orth_a, np.where(orth_b, 1.0, 1.0 - sxb),
                          np.where(orth_b, 1.0 - sxa, self.table[ta, tb]))
        x = int(values.argmin())
        return float(values[x]), x

    def _projections(self, carrier: frozenset, sxa: np.ndarray):
        """:meth:`_project` of every point onto the subspace ``carrier``:
        the first member, in sorted order, whose similarity is within
        ``TOL_EQ`` of ``sxa``, and whether one is."""
        members = np.array(sorted(carrier), dtype=int)
        near = np.abs(self.table[:, members] - sxa[:, None]) <= TOL_EQ
        found = near.any(axis=1)
        if not members.size:  # the empty subspace, orthogonal to every point
            return np.zeros(self.n, dtype=int), found
        return members[near.argmax(axis=1)], found

    def complete_basis(self, pts) -> tuple[int, ...]:
        base = tuple(sorted(int(p) for p in pts))
        found = _complete(self, sorted(self.orthogonal_points(base)), base, 0, [0])
        if found is None:
            raise CompletionNotFound(
                "no orthogonal completion spans the whole space; "
                "the matrix is not a similarity-projection space", exhausted=True)
        return found

    def explicit_lattice(self) -> dict:
        """Enumerate every subspace of the model (cached on the structure).

        Returns a dict with ``cliques`` (all pairwise-orthogonal point sets,
        in deterministic DFS order), ``carriers`` (closure -> canonical
        basis) and ``carrier_list`` (closures in canonical sorted order).
        More than ``ENUM_MAX_SETS`` cliques raise :class:`BudgetRequired`.
        """
        if self._lattice is not None:
            return self._lattice
        cliques: list[tuple[int, ...]] = [()]
        _grow_cliques(self.orthogonal, cliques, (), 0)

        # a clique is pairwise orthogonal by construction: no pair check
        carriers: dict[frozenset, tuple[int, ...]] = {}
        for clique in cliques:
            carriers.setdefault(self.closure(clique), clique)
        self._lattice = {
            "cliques": tuple(cliques),
            "carriers": carriers,
            "carrier_list": sorted(carriers, key=lambda c: (len(c), sorted(c))),
        }
        return self._lattice

    def carrier_basis(self, carrier: frozenset) -> tuple[int, ...]:
        """The canonical basis of a carrier, the point set of a subspace;
        :class:`NotASubspace` when the set is no closure."""
        basis = self.explicit_lattice()["carriers"].get(carrier)
        if basis is None:
            raise NotASubspace(
                f"point set {sorted(carrier)} is not the closure of any "
                "orthogonal set")
        return basis

    def least_carrier(self, points: frozenset) -> frozenset | None:
        """The least carrier containing ``points``; None when no carrier does."""
        carriers = [c for c in self.explicit_lattice()["carrier_list"] if points <= c]
        return frozenset.intersection(*carriers) if carriers else None

    def orthogonal_points(self, points) -> frozenset:
        return frozenset(range(self.n)).intersection(*(self.orthogonal[q] for q in points))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "points": list(self.labels),
                "matrix": [[float(v) for v in row] for row in self.matrix]}


def _grow_cliques(orthogonal, cliques: list, clique: tuple[int, ...], start: int) -> None:
    """Append to ``cliques``, depth first, every pairwise-orthogonal point set
    that extends ``clique`` by points from ``start`` on; ``orthogonal[v]`` is
    the set of points orthogonal to ``v``.  A module function: a nested one
    that calls itself is a reference cycle, which holds the structure and its
    cache until the cyclic collector runs."""
    for v in range(start, len(orthogonal)):
        if orthogonal[v].issuperset(clique):
            if len(cliques) == ENUM_MAX_SETS:
                raise BudgetRequired(
                    f"explicit model has more than {ENUM_MAX_SETS} orthogonal "
                    "point sets; exhaustive subspace enumeration is out of budget")
            nxt = clique + (v,)
            cliques.append(nxt)
            _grow_cliques(orthogonal, cliques, nxt, v + 1)


def _complete(st: ExplicitStructure, candidates: list[int], sel: tuple[int, ...],
              start: int, nodes: list[int]) -> tuple[int, ...] | None:
    """The first basis, depth first, among the orthogonal extensions of
    ``sel`` by ``candidates`` from ``start`` on: a set whose row sums are all
    1 within ``TOL_EQ``.  ``nodes[0]`` counts the sets visited against
    ``COMPLETION_MAX_NODES``.  A module function, as :func:`_grow_cliques`
    is, so that no closure cell makes a reference cycle."""
    nodes[0] += 1
    if nodes[0] > COMPLETION_MAX_NODES:
        raise CompletionNotFound(
            "basis completion search budget exhausted", exhausted=False)
    if np.all(np.abs(st.row_sums(sel) - 1.0) <= TOL_EQ):
        return sel
    for k in range(start, len(candidates)):
        p = candidates[k]
        if all(p in st.orthogonal[q] for q in sel):
            found = _complete(st, candidates, sel + (p,), k + 1, nodes)
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# the ray model


@dataclass(eq=False)
class RayStructure(SPStructure):
    """Rays of ``R^d``: unit vectors modulo sign, similarity the squared dot
    product.  Subspaces are carried by frames (see :mod:`starprob.lattice`)."""

    kind = RAY
    d: int

    def vector(self, raw) -> np.ndarray:
        """``raw`` as ``d`` floats, not yet normalized.  Finiteness is the
        caller's check, so a span checks its whole stack of vectors at once."""
        try:
            v = np.asarray(raw)
            ok = v.dtype.kind in "iuf" and v.shape == (self.d,)
        except ValueError:  # ragged nesting
            ok = False
        if not ok:
            raise InvalidPoint(f"expected a vector of {self.d} numbers, got {raw!r}")
        return v.astype(float, copy=False)

    def as_point(self, raw) -> np.ndarray:
        v = self.vector(raw)
        if not np.all(np.isfinite(v)):
            raise InvalidPoint("vector has non-finite entries")
        norm = float(np.linalg.norm(v))
        if not TOL_UNIT <= norm < np.inf:
            raise InvalidPoint("a zero or overflowing vector does not define a ray")
        v = v / norm
        v = _canonical_sign(v)
        v.flags.writeable = False
        return v

    def check_point(self, x) -> np.ndarray:
        if not isinstance(x, np.ndarray) or x.shape != (self.d,):
            raise InvalidPoint(f"expected a length-{self.d} vector")
        if abs(float(np.linalg.norm(x)) - 1.0) > TOL_EQ:
            raise InvalidPoint("ray points must be unit vectors")
        return x

    def similarity(self, x, y) -> float:
        dot = float(np.dot(self.check_point(x), self.check_point(y)))
        return min(1.0, dot * dot)

    def points_equal(self, x, y) -> bool:
        """``sin^2`` from the residuals ``x - (x.y) y`` and ``y - (x.y) x``,
        as lines compare; the larger decides, so the relation is symmetric."""
        dot = np.dot(self.check_point(x), self.check_point(y))
        return max(float(np.dot(r, r)) for r in (x - dot * y, y - dot * x)) <= TOL_EQ

    def raw_ortho_sum(self, x: np.ndarray, pts) -> float:
        if not pts:
            return 0.0
        mat = np.stack(pts)  # k x d
        return float(np.sum((mat @ x) ** 2))

    def similarity_to_basis(self, x, pts) -> float:
        return float(min(1.0, max(0.0, self.raw_ortho_sum(self.check_point(x), pts))))

    def _project(self, x: np.ndarray, pts, sxa: float, carrier) -> np.ndarray:
        mat = np.stack(pts)
        return self.as_point(mat.T @ (mat @ x))

    def o_witness(self, x: np.ndarray, pts, sxa: float) -> np.ndarray:
        """The orthogonal witness: the normalized residual of ``x`` against
        the span of ``pts``."""
        v = np.asarray(x, dtype=float)
        for a in pts:
            v = v - np.dot(a, v) * a
        return self.as_point(v)

    def closure(self, *_):
        raise FormatError("ray subspaces are carried by frames, not point sets")

    carrier_basis = least_carrier = orthogonal_points = closure

    def complete_basis(self, pts) -> tuple[np.ndarray, ...]:
        """Gram-Schmidt over the standard basis in index order, against an
        orthonormal frame of the span of ``pts`` (which are orthogonal only
        within ``TOL_EQ``).  A candidate whose residual ``sin^2`` is within
        ``TOL_EQ`` lies in that span, as lines compare, and is skipped."""
        frame = list(np.linalg.qr(np.array(pts).T)[0].T) if pts else []
        for i in range(self.d):
            v = np.zeros(self.d)
            v[i] = 1.0
            for c in frame:
                v = v - np.dot(c, v) * c
            if float(np.dot(v, v)) <= TOL_EQ:
                continue
            v = v / float(np.linalg.norm(v))
            for c in frame:  # second sweep tightens orthogonality
                v = v - np.dot(c, v) * c
            v = v / float(np.linalg.norm(v))
            frame.append(v)
        return (*pts, *(self.as_point(v) for v in frame[len(pts):]))

    def point_literal(self, x: np.ndarray) -> list[float]:
        return [float(v) for v in x]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "d": self.d}

    summary = to_dict

    def random_span(self, rng: np.random.Generator) -> np.ndarray:
        """Seeded vectors whose span is a random event."""
        k = int(rng.integers(0, self.d + 1))
        return random_frame(self.d, k, rng).T


def same_structure(a: SPStructure, b: SPStructure) -> bool:
    """Whether two structures are one sample space: equal JSON documents."""
    return a is b or a.to_dict() == b.to_dict()


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
    return st.as_point(raw)


def _clamp01(v: np.ndarray) -> np.ndarray:
    """``min(1.0, max(0.0, v))`` entrywise, with the same bits (no ``-0.0``)."""
    return np.where(v > 0.0, np.minimum(v, 1.0), 0.0)


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    big = np.abs(v) > TOL_UNIT
    i = int(big.argmax())
    if not big[i]:
        return v
    return -v if v[i] < 0 else +v


def check_point(st: SPStructure, x: Point) -> Point:
    """Validate that ``x`` already is a point of ``st`` (cheap; no copying)."""
    return st.check_point(x)


def points_equal(st: SPStructure, x: Point, y: Point) -> bool:
    """Equality as rays / labels, i.e. similarity indistinguishable from 1."""
    return st.points_equal(x, y)


# ---------------------------------------------------------------------------
# similarity


def similarity(st: SPStructure, x: Point, y: Point) -> float:
    """The similarity ``s(x, y)``: symmetric, in ``[0, 1]``, and 1 iff ``x = y``.

    Classical points compare by the Kronecker delta, rays by the squared dot
    product, explicit points by their matrix entry.  The result is clamped to
    ``[0, 1]`` so downstream comparisons never see stray rounding.
    """
    return st.similarity(x, y)


# the package re-exports the point similarity under a name that cannot shadow
# the similarity module
point_similarity = similarity


def ensure_ortho_set(st: SPStructure, points: Iterable) -> tuple[Point, ...]:
    """Canonicalize ``points`` and verify pairwise orthogonality.

    Raises :class:`NotOrthoSet` when any pair has similarity above 1e-9, or
    when a point is repeated.
    """
    pts = tuple(st.as_point(p) for p in points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            s = st.similarity(pts[i], pts[j])
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
    return st.similarity_to_basis(x, ensure_ortho_set(st, ortho))


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
    return st.project_onto_basis(x, ensure_ortho_set(st, basis), carrier)


def closure_of_ortho_set(st: SPStructure, ortho: Sequence[Point]) -> frozenset:
    """All points with total similarity 1 against ``ortho`` (discrete models)."""
    return st.closure(ensure_ortho_set(st, ortho))


# ---------------------------------------------------------------------------
# basis completion


def extend_to_basis(st: SPStructure, ortho: Sequence[Point]) -> tuple[Point, ...]:
    """Complete an orthogonal set to a basis of the whole space.

    A basis is an orthogonal set whose total similarity against every point
    is one.  Deterministic: the ray model runs Gram-Schmidt over standard
    basis candidates in index order (a candidate whose residual ``sin^2`` is
    within ``TOL_EQ`` lies in the span and is skipped); discrete models
    search candidates in index order.

    Raises :class:`CompletionNotFound` when no completion exists or the
    search budget of ``COMPLETION_MAX_NODES`` nodes runs out (the two cases
    are distinguished on the error).
    """
    return st.complete_basis(ensure_ortho_set(st, ortho))


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
