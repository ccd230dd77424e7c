"""Probability measures on subspace events.

A measure assigns 0 to the empty subspace, 1 to the whole space, adds over
orthogonal sums, and respects the continuity bound

    p(A) <= p(B) + sqrt(1 - s(A,B))/2 + (1 - s(A,B))

which replaces monotonicity in this non-distributive setting.  Three
backings are supported: an explicit value table over a field, a pure state
``B -> s(x, B)`` induced by a single point, and a convex mixture of points.
Pure and mixed measures are defined on every subspace; tables only on their
field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from .errors import EventNotInField, FormatError, WeightsNotConvex
from .lattice import Subspace, similarity_to_subspace
from .sigma import SigmaStarField
from .similarity import (
    SamplerConfig,
    continuity_rhs,
    subspace_similarity,
)
from .structures import TOL_EQ, TOL_UNIT, Point, SPStructure, as_point, ensure_same_structure
from .structures import FAIL_CERTIFIED, INCONCLUSIVE, Check, Report
from .structures import PASS  # noqa: F401 - verdicts re-exported with the validator

TABLE = "table"
PURE = "pure"
MIXED = "mixed"


@dataclass
class ProbabilityMeasure:
    """One measure.  Build with :func:`pure_state`, :func:`mix` or :func:`table_measure`."""

    structure: SPStructure
    kind: str
    field: SigmaStarField | None = None
    values: tuple[float, ...] | None = None
    point: Point | None = None
    components: tuple[tuple[float, Point], ...] | None = None

    def describe(self) -> dict:
        if self.kind == TABLE:
            return {"kind": TABLE, "values": list(self.values)}
        if self.kind == PURE:
            return {"kind": PURE, "point": self.structure.point_literal(self.point)}
        return {"kind": MIXED,
                "components": [[w, self.structure.point_literal(x)]
                               for w, x in self.components]}


def pure_state(st: SPStructure, x, field: SigmaStarField | None = None) -> ProbabilityMeasure:
    """The measure induced by one point: ``p(B) = s(x, B)``."""
    return ProbabilityMeasure(structure=st, kind=PURE, field=field,
                              point=as_point(st, x))


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
    return ProbabilityMeasure(structure=st, kind=TABLE, field=fld, values=vals)


def mix(components) -> ProbabilityMeasure:
    """Convex combination of measures.

    Point-backed inputs flatten into one mixed measure; any table input
    forces evaluation over its field and yields a table.  A single component
    with weight one comes back unchanged.
    """
    comps = [(float(w), p) for w, p in components]
    if not comps:
        raise WeightsNotConvex("a mixture needs at least one component")
    total = sum(w for w, _ in comps)
    if any(w < -TOL_UNIT for w, _ in comps) or abs(total - 1.0) > TOL_UNIT:
        raise WeightsNotConvex(
            f"weights must be non-negative and sum to 1 (got {total!r})")
    st = comps[0][1].structure
    for _, p in comps[1:]:
        ensure_same_structure(st, p.structure)
    if len(comps) == 1:
        return comps[0][1]
    if all(p.kind in (PURE, MIXED) for _, p in comps):
        flat: list[tuple[float, Point]] = []
        for w, p in comps:
            if p.kind == PURE:
                flat.append((w, p.point))
            else:
                flat.extend((w * wi, xi) for wi, xi in p.components)
        fld = next((p.field for _, p in comps if p.field is not None), None)
        return ProbabilityMeasure(structure=st, kind=MIXED, field=fld,
                                  components=tuple(flat))
    fld = next(p.field for _, p in comps if p.kind == TABLE)
    for _, p in comps:
        if p.kind == TABLE and p.field is not fld and p.field != fld:
            raise FormatError("table components must share one field")
    vals = [sum(w * evaluate(p, event) for w, p in comps)
            for event in fld.events]
    return ProbabilityMeasure(structure=st, kind=TABLE, field=fld,
                              values=tuple(vals))


def evaluate(p: ProbabilityMeasure, event: Subspace) -> float:
    """``p(event)``; table measures require the event to be in their field."""
    ensure_same_structure(p.structure, event.structure)
    if p.kind == TABLE:
        return p.values[p.field.index_of(event)]
    if p.kind == PURE:
        return similarity_to_subspace(p.point, event)
    return sum(w * similarity_to_subspace(x, event) for w, x in p.components)


# ---------------------------------------------------------------------------
# validation


def validate_measure(p: ProbabilityMeasure,
                     fld: SigmaStarField | None = None,
                     cfg: SamplerConfig | None = None,
                     event_samples: int = 200) -> Report:
    """Check the four measure axioms over a field (or a sampled domain).

    Normalization and the empty event are exact checks; additivity runs over
    every orthogonal pair plus greedily-extended maximal orthogonal
    families; continuity runs over every event pair with direction-aware
    verdicts, so a sampled subspace similarity can never certify a spurious
    failure.  Every check that is not ``pass`` carries a witness.
    """
    _check_event_samples(event_samples)
    cfg = cfg or SamplerConfig()
    st = p.structure
    fld = fld or p.field
    if fld is not None:
        events = list(fld.events)
    else:
        events = _sampled_events(st, cfg, event_samples)
    v_empty = evaluate(p, lat.empty(st))
    v_full = evaluate(p, lat.full(st))
    return Report([
        _exact_check("empty_event_zero", abs(v_empty), {"value": v_empty}),
        _exact_check("full_event_one", abs(v_full - 1.0), {"value": v_full}),
        _additivity_check(p, events),
        _continuity_check(p, events, cfg),
    ])


def _exact_check(law: str, residual: float, witness: dict) -> Check:
    """``pass``, or ``fail-certified`` with ``witness`` past ``TOL_EQ``."""
    if residual <= TOL_EQ:
        return Check(law)
    return Check(law, FAIL_CERTIFIED, witnesses=[witness])


def _check_event_samples(count: int) -> None:
    if count < 0:
        raise FormatError(f"event samples must be >= 0, got {count}")


def _sampled_events(st: SPStructure, cfg: SamplerConfig,
                    count: int) -> list[Subspace]:
    rng = np.random.default_rng(cfg.seed)
    return [lat.empty(st), lat.full(st)] + [
        lat.from_span(st, st.random_span(rng)) for _ in range(count)]


def _additivity_check(p: ProbabilityMeasure, events: list[Subspace]) -> Check:
    worst = 0.0
    witness = None
    nonzero = [e for e in events if not e.is_empty]
    for i, a in enumerate(nonzero):
        for b in nonzero[i + 1:]:
            if not lat.is_orthogonal(a, b):
                continue
            try:
                combined = evaluate(p, lat.join(a, b))
            except EventNotInField:  # sampled domains may step outside
                continue
            res = abs(combined - (evaluate(p, a) + evaluate(p, b)))
            if res > worst:
                worst = res
                witness = {"events": [a.to_literal(), b.to_literal()],
                           "residual": res}
    # maximal orthogonal families via greedy extension from each start
    seen: set = set()
    for start in range(len(nonzero)):
        picked = [start]
        for j, cand in enumerate(nonzero):
            if j != start and all(lat.is_orthogonal(cand, nonzero[k])
                                  for k in picked):
                picked.append(j)
        key = tuple(sorted(picked))
        if key in seen or len(picked) < 2:
            continue
        seen.add(key)
        family = [nonzero[k] for k in picked]
        try:
            total = evaluate(p, lat.join(*family))
        except EventNotInField:
            continue
        res = abs(total - sum(evaluate(p, m) for m in family))
        if res > worst:
            worst = res
            witness = {"family_size": len(family), "residual": res}
    return _exact_check("orthogonal_additivity", worst, witness)


def _continuity_check(p: ProbabilityMeasure, events: list[Subspace],
                      cfg: SamplerConfig) -> Check:
    uncertified = None
    for a in events:
        pa = evaluate(p, a)
        for b in events:
            if a is b:
                continue
            s_ab = subspace_similarity(a, b, cfg)
            lo, hi = continuity_rhs(evaluate(p, b), s_ab)
            if pa <= lo + TOL_EQ:
                continue
            if s_ab.is_exact:
                return Check("continuity_bound", FAIL_CERTIFIED, witnesses=[{
                    "events": [a.to_literal(), b.to_literal()],
                    "p_A": pa, "p_B": evaluate(p, b),
                    "similarity": s_ab.value, "bound": lo}])
            if uncertified is None:
                uncertified = Check("continuity_bound", INCONCLUSIVE, witnesses=[{
                    "events": [a.to_literal(), b.to_literal()],
                    "note": "sampled similarity cannot certify"}])
    return uncertified or Check("continuity_bound")


def first_difference(p: ProbabilityMeasure, q: ProbabilityMeasure,
                     fld: SigmaStarField | None = None,
                     samples: int = 1000, seed: int = 0,
                     tol: float = TOL_UNIT) -> Subspace | None:
    """The first event of a field (or of seeded subspaces) where ``p`` and
    ``q`` differ by more than ``tol``; ``None`` when they agree on all."""
    _check_event_samples(samples)
    ensure_same_structure(p.structure, q.structure)
    if fld is not None:
        events = list(fld.events)
    else:
        events = _sampled_events(p.structure, SamplerConfig(seed=seed), samples)
    return next((e for e in events
                 if not abs(evaluate(p, e) - evaluate(q, e)) <= tol), None)


def measures_equal(p: ProbabilityMeasure, q: ProbabilityMeasure,
                   fld: SigmaStarField | None = None,
                   samples: int = 1000, seed: int = 0,
                   tol: float = TOL_UNIT) -> bool:
    """Agreement within ``tol`` on a field (or on seeded subspaces)."""
    return first_difference(p, q, fld, samples, seed, tol) is None
