"""Probability measures on subspace events.

A measure assigns 0 to the empty subspace, 1 to the whole space, adds over
orthogonal sums, and respects the continuity bound

    p(A) <= p(B) + sqrt(1 - s(A,B))/2 + (1 - s(A,B))

which replaces monotonicity in this non-distributive setting.  Two
backings are supported: an explicit value table over a field, and a convex
mixture of points ``B -> sum_i w_i s(x_i, B)``.  A pure state, induced by a
single point, is the mixture of one point with weight one.  Point-backed
measures are defined on every subspace, and decided there by the events of
:func:`_deciding_events` (every carrier of an explicit table, a few events
on the other models); tables only on their field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from .errors import FormatError, WeightsNotConvex
from .lattice import Subspace, similarity_to_subspace
from .sigma import SigmaStarField
from .similarity import compare_leq, continuity_rhs, ordered_similarities, subspace_similarity
from .structures import TOL_EQ, TOL_UNIT, Point, SPStructure, as_point, ensure_same_structure
from .structures import CLASSICAL, EXPLICIT, FAIL_CERTIFIED, Check, Report
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
                     fld: SigmaStarField | None = None) -> Report:
    """Check the four measure axioms over a field (``p``'s own by default)
    or, with none, on every subspace (see :func:`_deciding_events`).

    Normalization and the empty event are exact checks; additivity runs over
    every orthogonal pair plus greedily-extended maximal orthogonal
    families; continuity runs over every ordered event pair.  A similarity
    is exact and symmetric, so it is computed once per unordered pair and
    kept in the field's ``similarities``, where later measures validated on
    the same field reuse it.  Without a field no table is kept: continuity
    computes only the pairs that can fail (:func:`_open_pairs`), and an
    explicit table's carriers are checked for additivity on rows of member
    points (:func:`_carrier_additivity`).  Each event of the domain is
    evaluated once.  Every check that is not ``pass`` carries a witness.
    """
    st = p.structure
    fld = p.field if fld is None else fld
    events = _deciding_events(p) if fld is None else list(fld.events)
    values = [evaluate(p, e) for e in events]
    v_empty = evaluate(p, lat.empty(st))
    v_full = evaluate(p, lat.full(st))
    return Report([
        _exact_check("empty_event_zero", abs(v_empty), {"value": v_empty}),
        _exact_check("full_event_one", abs(v_full - 1.0), {"value": v_full}),
        (_carrier_additivity if fld is None and st.kind == EXPLICIT
         else _additivity_check)(p, events, values),
        _continuity_check(events, values,
                          None if fld is None else fld.similarities),
    ])


def _exact_check(law: str, residual: float, witness: dict) -> Check:
    """``pass``, or ``fail-certified`` with ``witness`` past ``TOL_EQ``."""
    if residual <= TOL_EQ:
        return Check(law)
    return Check(law, FAIL_CERTIFIED, witnesses=[witness])


def _deciding_events(p: ProbabilityMeasure) -> list[Subspace]:
    """The events that decide the laws of a point-backed ``p`` on every
    subspace.  Explicit: every carrier.  Classical: 0, 1, the atoms.  Rays:
    0, 1, ``rho``'s eigenlines and, if ``sin^2 g > TOL_EQ``, the two lines
    ``g`` apart, ``sin g = (D - 1/2)/2`` (``D = lmax - lmin``), where
    continuity fails most."""
    st = p.structure
    if st.kind == EXPLICIT:
        return [lat.DiscreteSubspace(st, c) for c in st.explicit_lattice()["carrier_list"]]
    if st.kind == CLASSICAL:
        return [lat.empty(st), lat.full(st), *(lat.from_points(st, [x]) for x in range(st.n))]
    lam, vecs = np.linalg.eigh(_density(p))
    events = [lat.empty(st), lat.full(st), *(lat.from_span(st, [v]) for v in vecs.T)]
    sin_g = (lam[-1] - lam[0] - 0.5) / 2
    if sin_g > 0 and sin_g * sin_g > TOL_EQ:
        g = math.asin(sin_g)
        events += [lat.from_span(st, [math.cos(a) * vecs[:, -1] + math.sin(a) * vecs[:, 0]])
                   for a in (math.pi / 4 - g / 2, math.pi / 4 + g / 2)]
    return events


def _difference_event(p: ProbabilityMeasure, q: ProbabilityMeasure) -> list[Subspace]:
    """Where point-backed ``p - q`` peaks over every subspace, so one event
    decides equality within a tolerance: the points where ``p`` outweighs
    ``q`` (classical), the positive eigenspace of ``rho_p - rho_q`` (rays);
    an explicit table has no such event and gives every carrier."""
    st = p.structure
    if st.kind == EXPLICIT:
        return _deciding_events(p)
    if st.kind == CLASSICAL:
        atoms = [lat.from_points(st, [x]) for x in range(st.n)]
        return [lat.from_points(st, [x for x, a in enumerate(atoms)
                                     if evaluate(p, a) > evaluate(q, a)])]
    lam, vecs = np.linalg.eigh(_density(p) - _density(q))
    return [lat.from_span(st, vecs[:, lam > 0].T)]


def _density(p: ProbabilityMeasure) -> np.ndarray:
    """``rho = sum w x x^T``, so that ``p(E) = tr(rho P_E)`` on rays."""
    return sum(w * np.outer(x, x) for w, x in p.components)


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
            res = abs(evaluate(p, lat.join(a, b)) - (pa + pb))
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
        res = abs(evaluate(p, lat.join(*parts)) - sum(nonzero[k][1] for k in picked))
        if res > worst and _certified(p, res, parts):
            worst = res
            witness = {"family_size": len(picked), "residual": res}
    return _exact_check("orthogonal_additivity", worst, witness)


def _carrier_additivity(p: ProbabilityMeasure, events: list[Subspace],
                        values: list[float]) -> Check:
    """:func:`_additivity_check` on every carrier of an explicit table, with
    the same pairs and greedy families in the same order, the same residual
    bits and first worst witness, read off rows of member points: ``A`` is
    orthogonal to ``B`` when no similarity between their points passes
    ``TOL_EQ``, and a join, the least carrier holding the union, is found
    once per distinct union; its value is already in ``values``."""
    st = p.structure
    evs = [e for e in events if not e.is_empty]
    vals = np.array([v for e, v in zip(events, values) if not e.is_empty])
    inside = np.array([[x in e.points for x in range(st.n)] for e in evs])
    # orth[k, c]: carrier c is orthogonal to carrier k, no similarity of a
    # point of c to one of k passing TOL_EQ, the test is_orthogonal(c, k) makes
    orth = (inside @ (st.matrix > TOL_EQ).T) @ inside.T
    np.logical_not(orth, out=orth)
    families: dict = {}
    for start in range(len(evs)):  # add the least candidate orthogonal to all picked
        picked, free = [start], orth[start].copy()
        while free.any():
            picked.append(int(free.argmax()))
            free &= orth[picked[-1]]  # no carrier is orthogonal to itself
        if len(picked) > 1:
            families.setdefault(tuple(sorted(picked)), picked)
    for k in range(len(evs)):  # each pair (c, k), c < k, once: in place, as a copy doubles the peak
        orth[k, k:] = False
    (first, second), families = np.nonzero(orth.T), list(families.values())
    del orth  # n_carriers^2 flags, the largest array here
    bits = np.packbits(inside, axis=1)
    unions = np.vstack([bits[first] | bits[second],
                        *(np.bitwise_or.reduce(bits[f]) for f in families)])
    _, at, back = np.unique(unions.view(f"V{bits.shape[1]}").ravel(),
                            return_index=True, return_inverse=True)
    index = {e.points: k for k, e in enumerate(evs)}
    joins = np.empty(len(at), dtype=int)
    for u in np.argsort(at):  # in scan order, so a union no carrier closes raises as join does
        union = np.unpackbits(unions[at[u]], count=st.n).astype(bool)
        least = np.flatnonzero(inside[~(union & ~inside).any(axis=1)].all(axis=0))
        joins[u] = index[lat.DiscreteSubspace(st, frozenset(least.tolist())).points]
    res = np.abs(vals[joins[back.ravel()]] - np.concatenate(
        [vals[first] + vals[second], [sum(vals[k] for k in f) for f in families]]))
    if not res.size:
        return Check("orthogonal_additivity")
    k = int(res.argmax())
    worst = float(res[k])
    return _exact_check("orthogonal_additivity", worst, {
        "events": [evs[first[k]].to_literal(), evs[second[k]].to_literal()], "residual": worst}
        if k < len(first) else {"family_size": len(families[k - len(first)]), "residual": worst})


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
    table of the field whose events these are, read and filled here; with
    none, only the pairs :func:`_open_pairs` streams.  The first failure
    ends the scan."""
    pairs = (_open_pairs(events, values) if similarities is None
             else ordered_similarities(events, similarities))
    for i, j, s_ab in pairs:
        a, b, pa, pb = events[i], events[j], values[i], values[j]
        rhs = continuity_rhs(pb, s_ab.value)
        if compare_leq(pa, rhs) == FAIL_CERTIFIED:
            return Check("continuity_bound", FAIL_CERTIFIED, witnesses=[{
                "events": [a.to_literal(), b.to_literal()],
                "p_A": pa, "p_B": pb, "similarity": s_ab.value, "bound": rhs}])
    return Check("continuity_bound")


def _open_pairs(events: list[Subspace], values: list[float]):
    """``(i, j, s(A, B))``, row by row and keeping no table, for the ordered
    pairs whose continuity bound can fail.  The bound is at least ``p(B)``,
    so ``p(A) <= p(B)`` passes; and it is past 1 when ``s(A, B) <= TOL_EQ``,
    which on an explicit table a point of one carrier orthogonal to the
    other shows, read from the row sums the vantage kernel reads."""
    st, vals = events[0].structure, np.array(values)
    inside = apart = np.zeros((len(events), 1), dtype=bool)
    if st.kind == EXPLICIT:
        sums = np.array([st.row_sums(e.basis) for e in events])
        inside, apart = np.abs(sums - 1.0) <= TOL_EQ, sums <= TOL_EQ
    for i, a in enumerate(events):
        for j in np.flatnonzero((vals < vals[i]) & ~(inside @ apart[i]) & ~(apart @ inside[i])):
            yield i, j, subspace_similarity(a, events[j])


def first_difference(p: ProbabilityMeasure, q: ProbabilityMeasure,
                     fld: SigmaStarField | None = None,
                     tol: float = TOL_UNIT) -> Subspace | None:
    """The first event where ``p`` and ``q`` differ by more than ``tol``, or
    ``None`` when they agree on all: the events of ``fld``, else of ``p``'s
    or ``q``'s own field, else every subspace (see :func:`_deciding_events`)."""
    ensure_same_structure(p.structure, q.structure)
    fld = next((f for f in (fld, p.field, q.field) if f is not None), None)
    events = _difference_event(p, q) if fld is None else fld.events
    return next((e for e in events
                 if not abs(evaluate(p, e) - evaluate(q, e)) <= tol), None)


def measures_equal(p: ProbabilityMeasure, q: ProbabilityMeasure,
                   fld: SigmaStarField | None = None,
                   samples: int = 1000, seed: int = 0,
                   tol: float = TOL_UNIT) -> bool:
    """Agreement within ``tol``; exact, so ``samples`` and ``seed`` go unused."""
    return first_difference(p, q, fld, tol) is None
