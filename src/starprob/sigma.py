"""Families of subspaces closed under the event operations.

A field here contains the empty subspace and is closed under
orthocomplement, sums of orthogonal pairs, and binary intersections (which
keeps validation, atoms and distributivity checks self-contained).  On
classical models this reduces to an ordinary finite field of sets.

Events are kept in a canonical order (by dimension, then canonical form),
and downstream consumers address them by index into that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lattice as lat
from .errors import ClosureCapExceeded, EventNotInField, TripleEnumerationTooLarge
from .lattice import Subspace
from .structures import Check, Report, SPStructure, ensure_same_structure

DEFAULT_CAP = 4096
BOOLEAN_CAP = 512


class _EventSet:
    """Insertion-ordered set of subspaces with tolerance-aware membership."""

    def __init__(self) -> None:
        self.items: list[Subspace] = []
        self._index: dict = {}

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def index_of(self, sub: Subspace) -> int | None:
        hit = self._index.get(sub.canonical_key())
        if hit is not None:
            return hit
        # rounding can nudge a canonical key; fall back to real comparison
        for i, existing in enumerate(self.items):
            if existing == sub:
                return i
        return None

    def add(self, sub: Subspace) -> bool:
        if self.index_of(sub) is not None:
            return False
        self._index[sub.canonical_key()] = len(self.items)
        self.items.append(sub)
        return True


@dataclass
class SigmaStarField:
    """An event family over one structure, in canonical order."""

    structure: SPStructure
    events: tuple[Subspace, ...]
    generators: tuple[Subspace, ...] = ()
    capped: bool = False
    closure_meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def index_of(self, event: Subspace) -> int:
        ensure_same_structure(self.structure, event.structure)
        for i, existing in enumerate(self.events):
            if existing == event:
                return i
        raise EventNotInField(f"{event!r} is not an event of this field")

    def __contains__(self, event: Subspace) -> bool:
        try:
            self.index_of(event)
            return True
        except EventNotInField:
            return False

    def to_literals(self) -> list:
        return [e.to_literal() for e in self.events]


def generate_sigma_star(st: SPStructure, generators, cap: int = DEFAULT_CAP) -> SigmaStarField:
    """Close the generators under complement, orthogonal sum and intersection.

    Round-based fixpoint with deterministic visiting order.  Raises
    :class:`ClosureCapExceeded` (carrying the partial, capped family) when
    the event count passes ``cap``.
    """
    gens = tuple(_as_subspace(st, g) for g in generators)
    events = _EventSet()
    events.add(lat.empty(st))
    for g in gens:
        events.add(g)

    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        snapshot = list(events)
        for a in snapshot:
            if events.add(lat.ortho_complement(a)):
                changed = True
        _check_cap(st, events, gens, cap, rounds)
        snapshot = list(events)
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1:]:
                if lat.is_orthogonal(a, b):
                    if events.add(lat.join(a, b)):
                        changed = True
                if events.add(lat.meet(a, b)):
                    changed = True
            _check_cap(st, events, gens, cap, rounds)

    ordered = tuple(sorted(events, key=Subspace.canonical_key))
    return SigmaStarField(structure=st, events=ordered, generators=gens,
                          closure_meta={"rounds": rounds, "cap": cap})


def _check_cap(st, events: _EventSet, gens, cap: int, rounds: int) -> None:
    if len(events) > cap:
        partial = SigmaStarField(
            structure=st,
            events=tuple(sorted(events, key=Subspace.canonical_key)),
            generators=gens, capped=True,
            closure_meta={"rounds": rounds, "cap": cap})
        raise ClosureCapExceeded(
            f"event closure grew past the cap of {cap}", partial=partial)


def _as_subspace(st: SPStructure, g) -> Subspace:
    if isinstance(g, Subspace):
        ensure_same_structure(st, g.structure)
        return g
    return lat.from_points(st, g)


def validate_sigma_star(fld: SigmaStarField) -> Report:
    """Re-verify the closure properties and the lattice laws on the members.

    Each check is ``pass`` or ``fail``; a failed closure or member law names
    the offending events.
    """
    if fld.capped:
        raise ClosureCapExceeded("capped family is not valid for downstream use",
                                 partial=fld)
    st = fld.structure
    events = fld.events
    checks: list[Check] = []

    def record(law: str, ok: bool, witness: dict | None = None) -> None:
        checks.append(Check(law))
        checks[-1].hit(ok, witness=witness)

    record("contains_empty", lat.empty(st) in fld)
    record("contains_full", lat.full(st) in fld)

    missing = None
    for i, a in enumerate(events):
        if lat.ortho_complement(a) not in fld:
            missing = {"event_index": i, "op": "complement"}
            break
    record("complement_closed", missing is None, missing)

    missing = None
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if lat.is_orthogonal(a, b) and lat.join(a, b) not in fld:
                missing = {"op": "orthogonal_sum",
                           "events": [i, fld.index_of(b)]}
                break
        if missing:
            break
    record("orthogonal_sum_closed", missing is None, missing)

    missing = None
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if lat.meet(a, b) not in fld:
                missing = {"op": "intersection", "events": [i, fld.index_of(b)]}
                break
        if missing:
            break
    record("intersection_closed", missing is None, missing)

    bad = None
    for i, a in enumerate(events):
        comp = lat.ortho_complement(a)
        if not (lat.join(a, comp) == lat.full(st)
                and lat.meet(a, comp) == lat.empty(st)):
            bad = {"event_index": i}
            break
    record("complement_partition", bad is None, bad)

    bad = None
    for i, a in enumerate(events):
        for j, c in enumerate(events):
            if i != j and lat.is_subset(a, c) and not lat.check_orthomodular(a, c):
                bad = {"events": [i, j]}
                break
        if bad:
            break
    record("orthomodular_members", bad is None, bad)

    return Report(checks)


def atoms(fld: SigmaStarField) -> list[Subspace]:
    """Minimal non-empty events, in canonical order."""
    nonzero = [e for e in fld.events if not e.is_empty]
    out = []
    for e in nonzero:
        if not any(lat.is_subset(o, e) and not (o == e) for o in nonzero):
            out.append(e)
    return out


def atomic_decomposition(fld: SigmaStarField, event: Subspace,
                         atom_list: list[Subspace] | None = None) -> list[int] | None:
    """Indices of pairwise-orthogonal atoms summing to ``event``, if any.

    Greedy first; for small atom sets an exhaustive subset search backs it
    up, so a decomposition is only reported missing when none exists among
    the field's atoms.
    """
    ats = atom_list if atom_list is not None else atoms(fld)
    below = [(i, a) for i, a in enumerate(ats) if lat.is_subset(a, event)]
    if event.is_empty:
        return []
    chosen: list[tuple[int, Subspace]] = []
    for i, a in below:
        if all(lat.is_orthogonal(a, c) for _, c in chosen):
            chosen.append((i, a))
    if chosen and lat.join(*[c for _, c in chosen]) == event:
        return [i for i, _ in chosen]
    if len(below) <= 16:
        for mask in range(1, 1 << len(below)):
            sel = [below[k] for k in range(len(below)) if mask >> k & 1]
            if all(lat.is_orthogonal(sel[i][1], sel[j][1])
                   for i in range(len(sel)) for j in range(i + 1, len(sel))):
                if lat.join(*[s for _, s in sel]) == event:
                    return [i for i, _ in sel]
    return None


def distributivity_witness(fld: SigmaStarField) -> tuple[int, int, int] | None:
    """The first event triple violating the distributive law, if any."""
    if len(fld.events) > BOOLEAN_CAP:
        raise TripleEnumerationTooLarge(
            f"{len(fld.events)} events exceed the triple-enumeration cap "
            f"of {BOOLEAN_CAP}")
    events = fld.events
    for i, a in enumerate(events):
        for j, b in enumerate(events):
            for k, c in enumerate(events):
                if not lat.distributes(a, b, c):
                    return (i, j, k)
    return None


def is_boolean(fld: SigmaStarField) -> bool:
    """Whether every event triple distributes (classical fields always do)."""
    return distributivity_witness(fld) is None
