"""Structural validation of a sample space.

Six properties make a similarity function a genuine similarity-projection
space: symmetry, non-negativity, boundedness of orthogonal sums, existence
of an orthogonal witness completing any deficient sum to one, factorization
of similarities through projections, and standardness (no two points are
similarity-indistinguishable).

Classical models satisfy everything by construction.  Explicit models with
at most 12 points are checked exhaustively over every pairwise-orthogonal
point set; ray models are spot-checked with a seeded sample and report
``sampled-pass`` rather than ``pass``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import structures as core
from .errors import BudgetRequired, FormatError
from .structures import (
    EXPLICIT_ENUM_MAX,
    TOL_EQ,
    Point,
    SPStructure,
    as_point,
    check_point,
    explicit_lattice,
    random_frame,
    random_unit_vector,
    similarity,
)
from .structures import FAIL, PASS, SAMPLED_PASS, worst

# A sampled witness must misbehave by more than the comparison tolerance
# before the precondition s(x, A) < 1 stops being numerically meaningful.
_STRICT_GAP = 1e-6


@dataclass(frozen=True)
class ValidationBudget:
    """How much work the validator may do.

    ``samples`` drives the seeded ray checks.  Explicit models larger than
    ``EXPLICIT_ENUM_MAX`` points refuse to run unless
    ``sample_large_explicit`` opts into sampling instead of enumeration.
    """

    samples: int = 10_000
    seed: int = 0
    sample_large_explicit: bool = False

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise FormatError(f"validation needs samples >= 1, got {self.samples}")


@dataclass
class AxiomVerdict:
    status: str
    checks: int = 0
    max_residual: float = 0.0
    witness: dict | None = None

    def as_dict(self) -> dict:
        out = {"status": self.status, "checks": self.checks,
               "max_residual": self.max_residual}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class ValidationReport:
    structure: dict
    verdicts: dict[str, AxiomVerdict] = field(default_factory=dict)

    @property
    def overall(self) -> str:
        return worst(v.status for v in self.verdicts.values())

    @property
    def checks_performed(self) -> int:
        return sum(v.checks for v in self.verdicts.values())

    def as_dict(self) -> dict:
        return {
            "structure": self.structure,
            "verdicts": {k: v.as_dict() for k, v in sorted(self.verdicts.items())},
            "overall": self.overall,
            "checks_performed": self.checks_performed,
        }


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
    x = check_point(st, x)
    sxa = core.similarity_to_ortho_set(st, x, pts)
    if sxa >= 1.0 - TOL_EQ:
        raise core.OrthogonalProjectionUndefined  # pragma: no cover - guarded by callers
    if st.kind == core.RAY:
        v = np.asarray(x, dtype=float)
        for a in pts:
            v = v - np.dot(a, v) * a
        return as_point(st, v)
    for y in sorted(core.orthogonal_points(st, pts)):
        if abs(sxa + similarity(st, x, y) - 1.0) <= TOL_EQ:
            return y
    raise core.ProjectionNotFound(
        "no orthogonal witness completes the similarity sum to one")


def validate_sp_axioms(st: SPStructure,
                       budget: ValidationBudget | None = None) -> ValidationReport:
    """Check the six structural properties and report per-axiom verdicts.

    Every ``fail`` verdict carries a witness that can be re-checked by hand
    with the ordinary operations.
    """
    budget = budget or ValidationBudget()
    report = ValidationReport(structure=_describe(st))
    if st.kind == core.CLASSICAL:
        for name in AXIOMS:
            report.verdicts[name] = AxiomVerdict(status=PASS, checks=st.n)
        return report
    if st.kind == core.EXPLICIT:
        if st.n > EXPLICIT_ENUM_MAX and not budget.sample_large_explicit:
            raise BudgetRequired(
                f"explicit model has {st.n} points; pass a budget with "
                "sample_large_explicit=True or shrink the model")
        if st.n <= EXPLICIT_ENUM_MAX:
            _explicit_exhaustive(st, report)
        else:
            _explicit_sampled(st, report, budget)
        return report
    _ray_sampled(st, report, budget)
    return report


def _describe(st: SPStructure) -> dict:
    if st.kind == core.RAY:
        return {"kind": st.kind, "d": st.d}
    return {"kind": st.kind, "n": st.n}


# ---------------------------------------------------------------------------
# explicit model, exhaustive


def _explicit_exhaustive(st: SPStructure, report: ValidationReport) -> None:
    m = st.matrix
    n = st.n

    asym = float(np.max(np.abs(m - m.T))) if n else 0.0
    report.verdicts["symmetry"] = AxiomVerdict(
        status=PASS if asym <= core.TOL_UNIT else FAIL,
        checks=n * n, max_residual=asym,
        witness=None if asym <= core.TOL_UNIT else _argmax_pair(np.abs(m - m.T), st))

    neg = float(max(0.0, -m.min()))
    report.verdicts["non_negativity"] = AxiomVerdict(
        status=PASS if neg <= core.TOL_UNIT else FAIL,
        checks=n * n, max_residual=neg,
        witness=None if neg <= core.TOL_UNIT else _argmax_pair(-m, st))

    dup = None
    for i in range(n):
        for j in range(i + 1, n):
            if np.max(np.abs(m[i] - m[j])) <= core.TOL_UNIT:
                dup = {"points": [st.labels[i], st.labels[j]]}
    report.verdicts["standardness"] = AxiomVerdict(
        status=PASS if dup is None else FAIL,
        checks=n * (n - 1) // 2, witness=dup)

    lattice = explicit_lattice(st)
    cliques = lattice["cliques"]

    bound = AxiomVerdict(status=PASS)
    for clique in cliques:
        if not clique:
            continue
        sums = m[:, list(clique)].sum(axis=1)
        bound.checks += n
        worst = float(np.max(sums) - 1.0)
        if worst > bound.max_residual:
            bound.max_residual = max(0.0, worst)
        if worst > TOL_EQ and bound.witness is None:
            x = int(np.argmax(sums))
            bound.status = FAIL
            bound.witness = {"point": st.labels[x],
                             "ortho_set": [st.labels[i] for i in clique],
                             "similarity_sum": float(sums[x])}
    report.verdicts["boundedness"] = bound

    oproj = AxiomVerdict(status=PASS)
    for clique in cliques:
        sums = m[:, list(clique)].sum(axis=1) if clique else np.zeros(n)
        for x in range(n):
            sxa = float(sums[x])
            if sxa >= 1.0 - TOL_EQ:
                continue
            oproj.checks += 1
            best = None
            for y in range(n):
                if clique and np.max(m[[y], list(clique)]) > TOL_EQ:
                    continue
                gap = abs(sxa + m[x, y] - 1.0)
                best = gap if best is None else min(best, gap)
                if gap <= TOL_EQ:
                    break
            if best is None or best > TOL_EQ:
                oproj.max_residual = max(oproj.max_residual, best if best is not None else 1.0)
                if oproj.witness is None:
                    oproj.status = FAIL
                    oproj.witness = {"point": st.labels[x],
                                     "ortho_set": [st.labels[i] for i in clique],
                                     "similarity_sum": sxa}
    report.verdicts["o_projection"] = oproj

    fact = AxiomVerdict(status=PASS)
    for clique in cliques:
        if not clique:
            continue
        carrier = sorted(core.closure_of_ortho_set(st, clique))
        sums = m[:, list(clique)].sum(axis=1)
        for x in range(n):
            sxa = float(min(1.0, sums[x]))
            for y in carrier:
                if abs(m[x, y] - sxa) > TOL_EQ:
                    continue
                for z in carrier:
                    fact.checks += 1
                    res = abs(m[x, z] - m[x, y] * m[y, z])
                    fact.max_residual = max(fact.max_residual, res)
                    if res > TOL_EQ and fact.witness is None:
                        fact.status = FAIL
                        fact.witness = {
                            "point": st.labels[x],
                            "projection": st.labels[y],
                            "member": st.labels[z],
                            "ortho_set": [st.labels[i] for i in clique],
                            "residual": res,
                        }
    report.verdicts["factorization"] = fact


def _argmax_pair(m: np.ndarray, st: SPStructure) -> dict:
    i, j = np.unravel_index(int(np.argmax(m)), m.shape)
    return {"points": [st.labels[int(i)], st.labels[int(j)]],
            "residual": float(m[i, j])}


# ---------------------------------------------------------------------------
# explicit model, sampled (only for models past the enumeration cap)


def _explicit_sampled(st: SPStructure, report: ValidationReport,
                      budget: ValidationBudget) -> None:
    rng = np.random.default_rng(budget.seed)
    m = st.matrix
    n = st.n

    asym = float(np.max(np.abs(m - m.T)))
    report.verdicts["symmetry"] = AxiomVerdict(
        status=PASS if asym <= core.TOL_UNIT else FAIL, checks=n * n,
        max_residual=asym)
    neg = float(max(0.0, -m.min()))
    report.verdicts["non_negativity"] = AxiomVerdict(
        status=PASS if neg <= core.TOL_UNIT else FAIL, checks=n * n,
        max_residual=neg)
    report.verdicts["standardness"] = AxiomVerdict(status=PASS, checks=n * (n - 1) // 2)

    bound = AxiomVerdict(status=SAMPLED_PASS)
    oproj = AxiomVerdict(status=SAMPLED_PASS)
    for _ in range(budget.samples):
        clique = _random_clique(m, n, rng)
        x = int(rng.integers(n))
        sxa = float(m[x, list(clique)].sum()) if clique else 0.0
        bound.checks += 1
        bound.max_residual = max(bound.max_residual, max(0.0, sxa - 1.0))
        if sxa - 1.0 > TOL_EQ and bound.witness is None:
            bound.status = FAIL
            bound.witness = {"point": st.labels[x],
                             "ortho_set": [st.labels[i] for i in clique]}
        if sxa < 1.0 - _STRICT_GAP:
            oproj.checks += 1
            ok = any(all(m[y, a] <= TOL_EQ for a in clique)
                     and abs(sxa + m[x, y] - 1.0) <= TOL_EQ
                     for y in range(n))
            if not ok and oproj.witness is None:
                oproj.status = FAIL
                oproj.witness = {"point": st.labels[x],
                                 "ortho_set": [st.labels[i] for i in clique]}
    report.verdicts["boundedness"] = bound
    report.verdicts["o_projection"] = oproj
    report.verdicts["factorization"] = AxiomVerdict(
        status=SAMPLED_PASS, checks=0,
        witness=None)


def _random_clique(m: np.ndarray, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    order = rng.permutation(n)
    clique: list[int] = []
    for p in order:
        if all(m[p, q] <= TOL_EQ for q in clique):
            clique.append(int(p))
        if len(clique) >= 6:
            break
    return tuple(sorted(clique))


# ---------------------------------------------------------------------------
# ray model, seeded spot checks


def _ray_sampled(st: SPStructure, report: ValidationReport,
                 budget: ValidationBudget) -> None:
    d = st.d
    rng = np.random.default_rng(budget.seed)

    # Symmetry, non-negativity and standardness hold by construction for
    # squared dot products of canonicalized rays; record them as analytic.
    report.verdicts["symmetry"] = AxiomVerdict(status=PASS, checks=0)
    report.verdicts["non_negativity"] = AxiomVerdict(status=PASS, checks=0)
    report.verdicts["standardness"] = AxiomVerdict(status=PASS, checks=0)

    bound = AxiomVerdict(status=SAMPLED_PASS)
    oproj = AxiomVerdict(status=SAMPLED_PASS)
    fact = AxiomVerdict(status=SAMPLED_PASS)

    for _ in range(budget.samples):
        k = int(rng.integers(0, d))  # leave room for a deficient sum
        frame = random_frame(d, k, rng)
        pts = [as_point(st, frame[:, i]) for i in range(k)]
        x = as_point(st, random_unit_vector(d, rng))

        sxa = core.similarity_to_ortho_set(st, x, pts)
        raw = core._raw_ortho_sum(st, x, pts)
        bound.checks += 1
        bound.max_residual = max(bound.max_residual, max(0.0, raw - 1.0))
        if raw - 1.0 > TOL_EQ and bound.witness is None:
            bound.status = FAIL
            bound.witness = {"point": x.tolist(),
                             "ortho_set": [p.tolist() for p in pts]}

        if sxa < 1.0 - _STRICT_GAP:
            y = o_projection_point(st, x, pts)
            r_orth = core._raw_ortho_sum(st, y, pts)
            r_sum = abs(sxa + similarity(st, x, y) - 1.0)
            res = max(r_orth, r_sum)
            oproj.checks += 1
            oproj.max_residual = max(oproj.max_residual, res)
            if res > TOL_EQ and oproj.witness is None:
                oproj.status = FAIL
                oproj.witness = {"point": x.tolist(),
                                 "ortho_set": [p.tolist() for p in pts],
                                 "residual": res}

        kb = int(rng.integers(1, d + 1))
        bframe = random_frame(d, kb, rng)
        bpts = [as_point(st, bframe[:, i]) for i in range(kb)]
        mix = rng.standard_normal(kb)
        z = as_point(st, bframe @ mix)  # a point inside the span
        sxb = core.similarity_to_ortho_set(st, x, bpts)
        if sxb > TOL_EQ:
            t = core.project_point(st, x, bpts)
            res = abs(similarity(st, x, z)
                      - similarity(st, x, t) * similarity(st, t, z))
            fact.checks += 1
            fact.max_residual = max(fact.max_residual, res)
            if res > TOL_EQ and fact.witness is None:
                fact.status = FAIL
                fact.witness = {"point": x.tolist(), "member": z.tolist(),
                                "ortho_set": [p.tolist() for p in bpts],
                                "residual": res}

    report.verdicts["boundedness"] = bound
    report.verdicts["o_projection"] = oproj
    report.verdicts["factorization"] = fact
