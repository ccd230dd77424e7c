"""Probability measures on subspace events.

A measure assigns 0 to the empty subspace, 1 to the whole space, adds over
orthogonal sums, and respects the continuity bound

    p(A) <= p(B) + sqrt(1 - s(A,B))/2 + (1 - s(A,B))

which replaces monotonicity in this non-distributive setting.  Two
backings are supported: an explicit value table over a field, and a convex
mixture of points ``B -> sum_i w_i s(x_i, B)``.  A pure state, induced by a
single point, is the mixture of one point with weight one.  Point-backed
measures are defined on every subspace; tables only on their field.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import lattice as lat
from .errors import EventNotInField, FormatError, WeightsNotConvex
from .lattice import Subspace, similarity_to_subspace
from .sigma import SigmaStarField
from .similarity import compare_leq, continuity_rhs, ordered_similarities
from .structures import TOL_EQ, TOL_UNIT, Point, SPStructure, as_point, ensure_same_structure
from .structures import FAIL_CERTIFIED, Check, Report
from .structures import PASS  # noqa: F401 - verdicts re-exported with the validator

TABLE = "table"
PURE = "pure"
MIXED = "mixed"


@dataclass
class ProbabilityMeasure:
    """One measure.  Build with :func:`pure_state`, :func:`mix` or :func:`table_measure`.

    A table carries ``values``; every other measure carries weighted point
    ``components``.
    """

    structure: SPStructure
    field: SigmaStarField | None = None
    values: tuple[float, ...] | None = None
    components: tuple[tuple[float, Point], ...] | None = None

    @property
    def kind(self) -> str:
        """The label :meth:`describe` prints: a table, or one point, or several."""
        if self.values is not None:
            return TABLE
        return PURE if len(self.components) == 1 else MIXED

    def describe(self) -> dict:
        if self.kind == TABLE:
            return {"kind": TABLE, "values": list(self.values)}
        if self.kind == PURE:
            return {"kind": PURE,
                    "point": self.structure.point_literal(self.components[0][1])}
        return {"kind": MIXED,
                "components": [[w, self.structure.point_literal(x)]
                               for w, x in self.components]}


def pure_state(st: SPStructure, x, field: SigmaStarField | None = None) -> ProbabilityMeasure:
    """The measure induced by one point: ``p(B) = s(x, B)``."""
    return ProbabilityMeasure(structure=st, field=field,
                              components=((1.0, as_point(st, x)),))


def table_measure(fld: SigmaStarField, values) -> ProbabilityMeasure:
    """A measure given by explicit per-event values over a field.

    Enforces only the pointwise constraints (range, empty -> 0, full -> 1);
    additivity and continuity are :func:`validate_measure`'s business.
    """
    st = fld.structure
    if len(values) != len(fld.events):
        raise FormatError(
            f"need one value per event ({len(fld.events)}), got {len(values)}")
    vals = tuple(float(v) for v in values)
    for i, v in enumerate(vals):
        if not -TOL_EQ <= v <= 1.0 + TOL_EQ:
            raise FormatError(f"value {v} for event {i} is outside [0, 1]")
    empty_i = fld.index_of(lat.empty(st))
    full_i = fld.index_of(lat.full(st))
    if abs(vals[empty_i]) > TOL_EQ:
        raise FormatError("the empty event must carry probability 0")
    if abs(vals[full_i] - 1.0) > TOL_EQ:
        raise FormatError("the whole space must carry probability 1")
    return ProbabilityMeasure(structure=st, field=fld, values=vals)


def mix(components) -> ProbabilityMeasure:
    """Convex combination of measures.

    Point-backed inputs flatten into one mixed measure; any table input
    forces evaluation over its field and yields a table.  A single component
    with weight one comes back unchanged.
    """
    comps = [(float(w), p) for w, p in components]
    if not comps:
        raise WeightsNotConvex("a mixture needs at least one component")
    if not all(math.isfinite(w) for w, _ in comps):
        raise WeightsNotConvex("weights must be finite numbers")
    total = sum(w for w, _ in comps)
    if any(w < -TOL_UNIT for w, _ in comps) or abs(total - 1.0) > TOL_UNIT:
        raise WeightsNotConvex(
            f"weights must be non-negative and sum to 1 (got {total!r})")
    st = comps[0][1].structure
    for _, p in comps[1:]:
        ensure_same_structure(st, p.structure)
    if len(comps) == 1:
        return comps[0][1]
    if all(p.values is None for _, p in comps):
        fld = next((p.field for _, p in comps if p.field is not None), None)
        return ProbabilityMeasure(structure=st, field=fld, components=tuple(
            (w * wi, xi) for w, p in comps for wi, xi in p.components))
    fld = next(p.field for _, p in comps if p.values is not None)
    for _, p in comps:
        if p.values is not None and p.field is not fld and p.field != fld:
            raise FormatError("table components must share one field")
    vals = [sum(w * evaluate(p, event) for w, p in comps)
            for event in fld.events]
    return ProbabilityMeasure(structure=st, field=fld, values=tuple(vals))


def evaluate(p: ProbabilityMeasure, event: Subspace) -> float:
    """``p(event)``; table measures require the event to be in their field."""
    ensure_same_structure(p.structure, event.structure)
    if p.values is not None:
        return p.values[p.field.index_of(event)]
    return sum(w * similarity_to_subspace(x, event) for w, x in p.components)


# ---------------------------------------------------------------------------
# validation


def validate_measure(p: ProbabilityMeasure,
                     fld: SigmaStarField | None = None,
                     seed: int = 0,
                     event_samples: int = 200) -> Report:
    """Check the four measure axioms over a field (or ``event_samples``
    subspaces drawn with ``seed``).

    Normalization and the empty event are exact checks; additivity runs over
    every orthogonal pair plus greedily-extended maximal orthogonal
    families; continuity runs over every ordered event pair.  A similarity
    is exact and symmetric, so it is computed once per unordered pair and
    kept in the field's ``similarities``, where later measures validated on
    the same field reuse it.  Each event of the domain is evaluated once.
    Every check that is not ``pass`` carries a witness.
    """
    st = p.structure
    fld = p.field if fld is None else fld
    events = list(_domain(st, fld, seed, event_samples))
    values = [evaluate(p, e) for e in events]
    v_empty = evaluate(p, lat.empty(st))
    v_full = evaluate(p, lat.full(st))
    return Report([
        _exact_check("empty_event_zero", abs(v_empty), {"value": v_empty}),
        _exact_check("full_event_one", abs(v_full - 1.0), {"value": v_full}),
        _additivity_check(p, events, values),
        _continuity_check(events, values,
                          None if fld is None else fld.similarities),
    ])


def _exact_check(law: str, residual: float, witness: dict) -> Check:
    """``pass``, or ``fail-certified`` with ``witness`` past ``TOL_EQ``."""
    if residual <= TOL_EQ:
        return Check(law)
    return Check(law, FAIL_CERTIFIED, witnesses=[witness])


def _domain(st: SPStructure, fld: SigmaStarField | None, seed: int,
            count: int) -> Iterator[Subspace]:
    """The events of ``fld``, or without one the empty and full subspaces
    plus ``count`` random spans drawn with ``seed``.  The spans are built
    one at a time, as the reader asks for them."""
    if count < 0:
        raise FormatError(f"event samples must be >= 0, got {count}")
    if seed < 0:
        raise FormatError(f"events need seed >= 0, got {seed}")
    if fld is not None:
        return iter(fld.events)
    rng = np.random.default_rng(seed)
    return chain([lat.empty(st), lat.full(st)],
                 (lat.from_span(st, st.random_span(rng)) for _ in range(count)))


def _additivity_check(p: ProbabilityMeasure, events: list[Subspace],
                      values: list[float]) -> Check:
    """Additivity over every orthogonal pair and greedy maximal family.

    A residual fails past ``TOL_EQ``; for a point-backed measure, past
    ``TOL_EQ`` plus a bound on ``||P_J - sum P_i||_2`` (see :func:`_certified`)."""
    worst = 0.0
    witness = None
    nonzero = [(e, v) for e, v in zip(events, values) if not e.is_empty]
    for i, (a, pa) in enumerate(nonzero):
        for b, pb in nonzero[i + 1:]:
            if not lat.is_orthogonal(a, b):
                continue
            try:
                combined = evaluate(p, lat.join(a, b))
            except EventNotInField:  # sampled domains may step outside
                continue
            res = abs(combined - (pa + pb))
            if res > worst and _certified(p, res, (a, b)):
                worst = res
                witness = {"events": [a.to_literal(), b.to_literal()],
                           "residual": res}
    # maximal orthogonal families via greedy extension from each start
    seen: set = set()
    for start in range(len(nonzero)):
        picked = [start]
        for j, (cand, _) in enumerate(nonzero):
            if j != start and all(lat.is_orthogonal(cand, nonzero[k][0])
                                  for k in picked):
                picked.append(j)
        key = tuple(sorted(picked))
        if key in seen or len(picked) < 2:
            continue
        seen.add(key)
        parts = [nonzero[k][0] for k in picked]
        try:
            total = evaluate(p, lat.join(*parts))
        except EventNotInField:
            continue
        res = abs(total - sum(nonzero[k][1] for k in picked))
        if res > worst and _certified(p, res, parts):
            worst = res
            witness = {"family_size": len(picked), "residual": res}
    return _exact_check("orthogonal_additivity", worst, witness)


def _certified(p: ProbabilityMeasure, res: float, parts) -> bool:
    """Whether an additivity residual ``res`` on orthogonal ``parts`` counts
    against ``p``.  Ray parts are orthogonal up to a principal ``cos^2`` of
    ``TOL_EQ``, so their join's projector ``P_J`` may miss ``sum P_i``; a
    point-backed residual ``|sum_w w x.(P_J - sum P_i).x|`` (unit ``x``,
    convex ``w``) fails only past ``TOL_EQ`` plus ``sum_gap``, a bound on
    ``||P_J - sum P_i||_2`` from the parts alone, so a wrong join still
    fails.  Tables and the discrete models keep ``TOL_EQ`` alone."""
    return (res <= TOL_EQ or p.values is not None
            or res > TOL_EQ + parts[0].sum_gap(parts))


def _continuity_check(events: list[Subspace], values: list[float],
                      similarities: dict | None = None) -> Check:
    """The continuity bound over every ordered pair of distinct events;
    ``s(A, B)`` serves both orders of its pair.  ``similarities`` is the
    table of the field whose events these are, read and filled here.  The
    first failure ends the scan."""
    for i, j, s_ab in ordered_similarities(events, similarities):
        a, b, pa, pb = events[i], events[j], values[i], values[j]
        rhs = continuity_rhs(pb, s_ab.value)
        if compare_leq(pa, rhs) == FAIL_CERTIFIED:
            return Check("continuity_bound", FAIL_CERTIFIED, witnesses=[{
                "events": [a.to_literal(), b.to_literal()],
                "p_A": pa, "p_B": pb, "similarity": s_ab.value, "bound": rhs}])
    return Check("continuity_bound")


def first_difference(p: ProbabilityMeasure, q: ProbabilityMeasure,
                     fld: SigmaStarField | None = None,
                     samples: int = 1000, seed: int = 0,
                     tol: float = TOL_UNIT) -> Subspace | None:
    """The first event where ``p`` and ``q`` differ by more than ``tol``, or
    ``None`` when they agree on all.  The events are those of ``fld``, else
    of ``p``'s or ``q``'s own field, else seeded subspaces, built only up
    to the first difference."""
    ensure_same_structure(p.structure, q.structure)
    fld = next((f for f in (fld, p.field, q.field) if f is not None), None)
    events = _domain(p.structure, fld, seed, samples)
    return next((e for e in events
                 if not abs(evaluate(p, e) - evaluate(q, e)) <= tol), None)


def measures_equal(p: ProbabilityMeasure, q: ProbabilityMeasure,
                   fld: SigmaStarField | None = None,
                   samples: int = 1000, seed: int = 0,
                   tol: float = TOL_UNIT) -> bool:
    """Agreement within ``tol`` on a field (or on seeded subspaces)."""
    return first_difference(p, q, fld, samples, seed, tol) is None
