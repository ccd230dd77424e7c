"""Structural validation of a sample space.

Six properties make a similarity function a genuine similarity-projection
space: symmetry, non-negativity, boundedness of orthogonal sums, existence
of an orthogonal witness completing any deficient sum to one, factorization
of similarities through projections, and standardness (no two points are
similarity-indistinguishable).

Classical models satisfy everything by construction.  Explicit models are
checked over every pairwise-orthogonal point set; models past the budget of
``explicit_lattice``, and ray models, are spot-checked with a seeded sample
and report ``sampled-pass`` rather than ``pass``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import structures as core
from .errors import BudgetRequired, FormatError
from .structures import (
    SAMPLED_PASS,
    TOL_EQ,
    TOL_UNIT,
    Check,
    Point,
    Report,
    SPStructure,
    random_frame,
    random_unit_vector,
)
from .structures import FAIL, PASS  # noqa: F401 - verdicts re-exported with the validator

# A sampled witness must misbehave by more than the comparison tolerance
# before the precondition s(x, A) < 1 stops being numerically meaningful.
_STRICT_GAP = 1e-6


@dataclass(frozen=True)
class ValidationBudget:
    """How much work the validator may do: ``samples`` drives the seeded
    checks of ray models and of explicit models past the enumeration budget."""

    samples: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise FormatError(f"validation needs samples >= 1, got {self.samples}")
        if self.seed < 0:
            raise FormatError(f"validation needs seed >= 0, got {self.seed}")


AXIOMS = ("symmetry", "non_negativity", "boundedness", "o_projection",
          "factorization", "standardness")


def o_projection_point(st: SPStructure, x: Point, ortho) -> Point:
    """The orthogonal witness ``y``: ``y`` is orthogonal to the set and
    ``s(x, A) + s(x, y) = 1``.

    Defined whenever ``s(x, A) < 1``.  The ray model constructs it as the
    normalized residual of ``x`` against the span; discrete models search
    the points orthogonal to the set (on classical models that finds ``x``
    itself).
    """
    pts = core.ensure_ortho_set(st, ortho)
    x = st.check_point(x)
    sxa = st.similarity_to_basis(x, pts)
    if sxa >= 1.0 - TOL_EQ:
        raise core.OrthogonalProjectionUndefined  # pragma: no cover - guarded by callers
    return st.o_witness(x, pts, sxa)


def validate_sp_axioms(st: SPStructure,
                       budget: ValidationBudget | None = None) -> Report:
    """Check the six structural properties and report one check per axiom.

    Every ``fail`` verdict carries a witness that can be re-checked by hand
    with the ordinary operations.
    """
    budget = budget or ValidationBudget()
    if st.kind == core.CLASSICAL:
        return Report([Check(name, trials=st.n) for name in AXIOMS])
    if st.kind == core.EXPLICIT:
        try:
            return Report(_explicit_exhaustive(st))
        except BudgetRequired:  # too many orthogonal sets to enumerate
            return Report(_explicit_sampled(st, budget))
    return Report(_ray_sampled(st, budget))


def _matrix_law(st: SPStructure, law: str, table: np.ndarray) -> Check:
    """A law read off the whole matrix: its residual is ``table``'s largest
    entry, and a failure names the pair where it sits."""
    res = float(max(0.0, np.max(table)))
    check = Check(law)
    check.hit(res <= TOL_UNIT, res,
              _argmax_pair(table, st) if res > TOL_UNIT else None,
              trials=st.n * st.n)
    return check


def _argmax_pair(m: np.ndarray, st: SPStructure) -> dict:
    i, j = np.unravel_index(int(np.argmax(m)), m.shape)
    return {"points": [st.labels[int(i)], st.labels[int(j)]],
            "residual": float(m[i, j])}


# ---------------------------------------------------------------------------
# explicit model, exhaustive


def _explicit_exhaustive(st: SPStructure) -> list[Check]:
    """Every law over every pairwise-orthogonal point set.

    Standardness needs no scan: ``SPStructure.explicit`` already rejects
    two rows within ``TOL_UNIT`` of each other, the same test at the same
    tolerance, so the constructor is its guard.
    """
    m = st.matrix
    n = st.n
    labels = st.labels
    std = Check("standardness", trials=n * (n - 1) // 2)

    bound = Check("boundedness")
    oproj = Check("o_projection")
    fact = Check("factorization")
    for clique in st.explicit_lattice()["cliques"]:
        sums = st.row_sums(clique)  # the bits closure() reads
        ortho_set = [labels[i] for i in clique]
        if clique:
            excess = float(np.max(sums) - 1.0)
            x = int(np.argmax(sums))
            bound.hit(excess <= TOL_EQ, max(0.0, excess),
                      {"point": labels[x], "ortho_set": ortho_set,
                       "similarity_sum": float(sums[x])} if excess > TOL_EQ else None,
                      trials=n)

        candidates = st.orthogonal_points(clique)
        for x in range(n):
            sxa = float(sums[x])
            if sxa >= 1.0 - TOL_EQ:
                continue
            best = min((abs(sxa + m[x, y] - 1.0) for y in candidates), default=1.0)
            if best <= TOL_EQ:
                oproj.hit(True)
            else:
                oproj.hit(False, best, {"point": labels[x], "ortho_set": ortho_set,
                                        "similarity_sum": sxa})

        carrier = sorted(st.closure(clique))  # empty for the empty clique
        for x in range(n):
            _factorization(st, fact, carrier, x, float(min(1.0, sums[x])), ortho_set)

    return [_matrix_law(st, "symmetry", np.abs(m - m.T)),
            _matrix_law(st, "non_negativity", -m),
            std, bound, oproj, fact]


def _factorization(st: SPStructure, fact: Check, carrier: list[int], x: int,
                   sxa: float, ortho_set: list[str]) -> None:
    """Record factorization for ``x`` against the subspace whose points are
    ``carrier``: every ``y`` of it with ``s(x, y) = s(x, A)`` (``sxa``) must
    give ``s(x, z) = s(x, y) s(y, z)`` for every ``z`` of it."""
    m = st.matrix
    labels = st.labels
    for y in carrier:
        if abs(m[x, y] - sxa) > TOL_EQ:
            continue
        for z in carrier:
            res = abs(m[x, z] - m[x, y] * m[y, z])
            fact.hit(res <= TOL_EQ, res,
                     {"point": labels[x], "projection": labels[y],
                      "member": labels[z], "ortho_set": ortho_set,
                      "residual": res} if res > TOL_EQ else None)


# ---------------------------------------------------------------------------
# explicit model, sampled (only for models past the enumeration budget)


def _explicit_sampled(st: SPStructure, budget: ValidationBudget) -> list[Check]:
    rng = np.random.default_rng(budget.seed)
    m = st.matrix
    n = st.n

    bound = Check("boundedness", status=SAMPLED_PASS)
    oproj = Check("o_projection", status=SAMPLED_PASS)
    fact = Check("factorization", status=SAMPLED_PASS)
    for _ in range(budget.samples):
        clique = _random_clique(m, n, rng)
        x = int(rng.integers(n))
        sxa = float(m[x, list(clique)].sum()) if clique else 0.0
        ortho_set = [st.labels[i] for i in clique]
        witness = {"point": st.labels[x], "ortho_set": ortho_set}
        bound.hit(sxa - 1.0 <= TOL_EQ, max(0.0, sxa - 1.0), witness)
        if sxa < 1.0 - _STRICT_GAP:
            oproj.hit(any(abs(sxa + m[x, y] - 1.0) <= TOL_EQ
                          for y in st.orthogonal_points(clique)), witness=witness)
        _factorization(st, fact, sorted(st.closure(clique)), x, min(1.0, sxa), ortho_set)

    return [_matrix_law(st, "symmetry", np.abs(m - m.T)),
            _matrix_law(st, "non_negativity", -m),
            Check("standardness", trials=n * (n - 1) // 2),
            bound, oproj, fact]


def _random_clique(m: np.ndarray, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    order, size = rng.permutation(n), int(rng.integers(7))  # 0..6 points, not only maximal
    clique: list[int] = []
    for p in order:
        if len(clique) >= size:
            break
        if all(m[p, q] <= TOL_EQ for q in clique):
            clique.append(int(p))
    return tuple(sorted(clique))


# ---------------------------------------------------------------------------
# ray model, seeded spot checks


def _ray_sampled(st: SPStructure, budget: ValidationBudget) -> list[Check]:
    d = st.d
    rng = np.random.default_rng(budget.seed)

    # Symmetry, non-negativity and standardness hold by construction for
    # squared dot products of canonicalized rays; record them as analytic.
    bound = Check("boundedness", status=SAMPLED_PASS)
    oproj = Check("o_projection", status=SAMPLED_PASS)
    fact = Check("factorization", status=SAMPLED_PASS)

    for _ in range(budget.samples):
        k = int(rng.integers(0, d))  # leave room for a deficient sum
        frame = random_frame(d, k, rng)
        pts = [st.as_point(frame[:, i]) for i in range(k)]
        x = st.as_point(random_unit_vector(d, rng))
        basis = core.ensure_ortho_set(st, pts)

        sxa = st.similarity_to_basis(x, basis)
        excess = st.raw_ortho_sum(x, pts) - 1.0
        bound.hit(excess <= TOL_EQ, max(0.0, excess),
                  {"point": x.tolist(), "ortho_set": [p.tolist() for p in pts]}
                  if excess > TOL_EQ else None)

        if sxa < 1.0 - _STRICT_GAP:
            y = st.o_witness(x, basis, sxa)
            r_orth = st.raw_ortho_sum(y, pts)
            r_sum = abs(sxa + st.similarity(x, y) - 1.0)
            res = max(r_orth, r_sum)
            oproj.hit(res <= TOL_EQ, res,
                      {"point": x.tolist(), "ortho_set": [p.tolist() for p in pts],
                       "residual": res} if res > TOL_EQ else None)

        kb = int(rng.integers(1, d + 1))
        bframe = random_frame(d, kb, rng)
        bpts = [st.as_point(bframe[:, i]) for i in range(kb)]
        mix = rng.standard_normal(kb)
        z = st.as_point(bframe @ mix)  # a point inside the span
        bbasis = core.ensure_ortho_set(st, bpts)
        if st.similarity_to_basis(x, bbasis) > TOL_EQ:
            t = st.project_onto_basis(x, bbasis)
            res = abs(st.similarity(x, z)
                      - st.similarity(x, t) * st.similarity(t, z))
            fact.hit(res <= TOL_EQ, res,
                     {"point": x.tolist(), "member": z.tolist(),
                      "ortho_set": [p.tolist() for p in bpts],
                      "residual": res} if res > TOL_EQ else None)

    return [Check("symmetry"), Check("non_negativity"), Check("standardness"),
            bound, oproj, fact]
