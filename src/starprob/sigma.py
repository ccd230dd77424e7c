"""Families of subspaces closed under the event operations.

A field here contains the empty subspace and is closed under
orthocomplement, sums of orthogonal pairs, and binary intersections (which
keeps validation, atoms and distributivity checks self-contained).  On
classical models this reduces to an ordinary finite field of sets.

Events are kept in a canonical order (by dimension, then canonical form),
and downstream consumers address them by index into that order.

The structure of a field is decided by two theorems of orthomodular
lattices rather than by search.  Foulis-Holland: a triple distributes when
one of its events commutes with the other two, so a field is Boolean
exactly when its events commute pairwise (:func:`distributivity_witness`).
The orthomodular law ``e = f + (f' & e)`` for ``f <= e``: a maximal
pairwise-orthogonal choice of atoms below an event sums to that event
(:func:`atomic_decomposition`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lattice as lat
from .errors import ClosureCapExceeded, EventNotInField
from .lattice import Subspace
from .structures import Check, Report, SPStructure, ensure_same_structure

DEFAULT_CAP = 4096


class _EventSet:
    """Insertion-ordered subspaces, found by canonical key or else by ``==``."""

    def __init__(self, items=()) -> None:
        self.items: list[Subspace] = []
        self._index: dict = {}
        for sub in items:
            self._append(sub)

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
        self._append(sub)
        return True

    def _append(self, sub: Subspace) -> None:
        self._index.setdefault(sub.canonical_key(), len(self.items))
        self.items.append(sub)


@dataclass
class SigmaStarField:
    """An event family over one structure, in canonical order.

    ``similarities`` holds the exact ``s(events[i], events[j])`` found so
    far, keyed by ``(i, j)`` with ``i < j``.  A similarity belongs to the
    events, not to a measure, so every measure validated on this field
    reads the same values (see :func:`starprob.similarity.ordered_similarities`).
    """

    structure: SPStructure
    events: tuple[Subspace, ...]
    generators: tuple[Subspace, ...] = ()
    capped: bool = False
    closure_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lookup = _EventSet(self.events)
        self.similarities: dict = {}

    def __len__(self) -> int:
        return len(self.events)

    def index_of(self, event: Subspace) -> int:
        ensure_same_structure(self.structure, event.structure)
        i = self._lookup.index_of(event)
        if i is None:
            raise EventNotInField(f"{event!r} is not an event of this field")
        return i

    def __contains__(self, event: Subspace) -> bool:
        ensure_same_structure(self.structure, event.structure)
        return self._lookup.index_of(event) is not None

    def to_literals(self) -> list:
        return [e.to_literal() for e in self.events]


def generate_sigma_star(st: SPStructure, generators, cap: int = DEFAULT_CAP) -> SigmaStarField:
    """Close the generators under complement, orthogonal sum and intersection.

    Round-based fixpoint with deterministic visiting order.  Raises
    :class:`ClosureCapExceeded` (carrying the partial, capped family) when
    the event count passes ``cap``.
    """
    gens = tuple(_as_subspace(st, g) for g in generators)
    events = _EventSet([lat.empty(st)])
    for g in gens:
        events.add(g)

    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        snapshot = list(events)
        for a in snapshot:
            changed |= events.add(lat.ortho_complement(a))
        _check_cap(st, events, gens, cap, rounds)
        snapshot = list(events)
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1:]:
                if lat.is_orthogonal(a, b):
                    changed |= events.add(lat.join(a, b))
                changed |= events.add(lat.meet(a, b))
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

    def first(law: str, witnesses) -> None:
        """Pass when ``witnesses`` yields nothing, else fail on the first."""
        witness = next(witnesses, None)
        record(law, witness is None, witness)

    def pairs():
        return ((i, a, j, b) for i, a in enumerate(events)
                for j, b in enumerate(events[i + 1:], i + 1))

    empty, full = lat.empty(st), lat.full(st)
    record("contains_empty", empty in fld)
    record("contains_full", full in fld)
    first("complement_closed", ({"event_index": i, "op": "complement"}
                                for i, a in enumerate(events)
                                if lat.ortho_complement(a) not in fld))
    first("orthogonal_sum_closed", ({"op": "orthogonal_sum", "events": [i, j]}
                                    for i, a, j, b in pairs()
                                    if lat.is_orthogonal(a, b)
                                    and lat.join(a, b) not in fld))
    first("intersection_closed", ({"op": "intersection", "events": [i, j]}
                                  for i, a, j, b in pairs()
                                  if lat.meet(a, b) not in fld))
    first("complement_partition", (
        {"event_index": i} for i, a in enumerate(events)
        if not (lat.join(a, lat.ortho_complement(a)) == full
                and lat.meet(a, lat.ortho_complement(a)) == empty)))
    first("orthomodular_members", (
        {"events": [i, j]} for i, a in enumerate(events) for j, c in enumerate(events)
        if i != j and lat.is_subset(a, c) and not lat.check_orthomodular(a, c)))

    return Report(checks)


def atoms(fld: SigmaStarField) -> list[Subspace]:
    """Minimal non-empty events, in canonical order."""
    nonzero = [e for e in fld.events if not e.is_empty]
    return [e for e in nonzero
            if not any(lat.is_subset(o, e) and not (o == e) for o in nonzero)]


def atomic_decomposition(fld: SigmaStarField, event: Subspace,
                         atom_list: list[Subspace] | None = None) -> tuple[int, ...] | None:
    """Indices of pairwise-orthogonal atoms summing to ``event``, if any.

    One greedy pass takes, in canonical order, each atom below ``event`` that
    is orthogonal to the atoms already taken.  On a closed field the sum
    ``f`` of the taken atoms is an event, and so is ``f' & event``; an atom
    below that would have been taken, so it has none and is empty.  The
    orthomodular law ``event = f + (f' & event)`` then gives ``event = f``.
    The sum is re-checked all the same, and ``None`` means it misses
    ``event``: the family is not closed, or (on an explicit table) its
    lattice breaks the orthomodular law and :func:`validate_sigma_star` fails.
    """
    if event.is_empty:
        return ()
    ats = atom_list if atom_list is not None else atoms(fld)
    chosen: list[tuple[int, Subspace]] = []
    for i, a in enumerate(ats):
        if lat.is_subset(a, event) and all(lat.is_orthogonal(a, c) for _, c in chosen):
            chosen.append((i, a))
    if chosen and lat.join(*[c for _, c in chosen]) == event:
        return tuple(i for i, _ in chosen)
    return None


def distributivity_witness(fld: SigmaStarField) -> tuple[int, int, int] | None:
    """The first event triple ``(i, j, k)`` violating the distributive law, if any.

    Rows are scanned in order, but a row whose event commutes with every
    event is skipped: by Foulis-Holland no triple starting with it can fail,
    so a Boolean field costs O(n^2) commutation tests and no triple.  An
    event ``a`` that does not commute with ``b`` fails on ``(a, b, b')``,
    because ``a & (b + b') = a`` while ``(a & b) + (a & b')`` is not ``a``;
    on a closed field the first non-commuting row therefore holds the first
    failing triple.  A hand-built family may lack ``b'``, so the scan then
    goes on to the next non-commuting row.
    """
    events = fld.events
    for i, a in enumerate(events):
        if all(lat.commutes(a, b) for b in events):
            continue
        for j, b in enumerate(events):
            for k, c in enumerate(events):
                if not lat.distributes(a, b, c):
                    return (i, j, k)
    return None


def is_boolean(fld: SigmaStarField) -> bool:
    """Whether every event triple distributes (classical fields always do)."""
    return distributivity_witness(fld) is None
