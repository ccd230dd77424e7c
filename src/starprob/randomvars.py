"""Real random variables with subspace-valued level sets.

A variable is a finite list of (value, event) pairs whose events are
pairwise orthogonal and sum to the whole space.  Such a variable is total
on every basis point of its events but genuinely partial elsewhere: a point
sitting inside no event simply has no value there, which is reported as
:class:`ValueUndefinedAtPoint` rather than treated as a fault.  On
classical models every point lands in exactly one event, so the usual
notion of a random variable comes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import lattice as lat
from .errors import (
    DomainNotTotalOnBasis,
    DuplicateValue,
    EventsNotOrthogonal,
    ValueUndefinedAtPoint,
)
from .lattice import Subspace, similarity_to_subspace
from .measures import ProbabilityMeasure, evaluate, pure_state
from .structures import TOL_EQ, Point, SPStructure, similarity


@dataclass
class RealRandomVariable:
    structure: SPStructure
    outcomes: tuple[tuple[float, Subspace], ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.outcomes)

    @property
    def events(self) -> tuple[Subspace, ...]:
        return tuple(e for _, e in self.outcomes)

    def domain_basis(self) -> tuple[tuple[float, Point], ...]:
        """One basis of the whole space, each point tagged with its value."""
        out = []
        for value, event in self.outcomes:
            for b in event.basis_points():
                out.append((value, b))
        return tuple(out)


def make_rv(st: SPStructure, outcomes: Iterable[tuple[float, Subspace]]) -> RealRandomVariable:
    """Validate and build a variable from (value, event) pairs.

    Events must be pairwise orthogonal, values pairwise distinct, and the
    events must sum to the whole space.
    """
    pairs = [(float(v), e) for v, e in outcomes]
    vals = [v for v, _ in pairs]
    if len(set(vals)) != len(vals):
        raise DuplicateValue(f"values must be pairwise distinct, got {vals}")
    events = [e for _, e in pairs]
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            if not lat.is_orthogonal(events[i], events[j]):
                raise EventsNotOrthogonal(
                    f"events {i} and {j} are not orthogonal")
    if not events or not (lat.join(*events) == lat.full(st)):
        raise DomainNotTotalOnBasis("the events must sum to the whole space")
    return RealRandomVariable(structure=st, outcomes=tuple(pairs))


def eval_at_point(rv: RealRandomVariable, x) -> float:
    """The value at ``x``; defined only when ``x`` lies inside some event."""
    for value, event in rv.outcomes:
        if similarity_to_subspace(x, event) >= 1.0 - TOL_EQ:
            return value
    raise ValueUndefinedAtPoint(
        "the point lies in no level set of this variable")


def preimage(rv: RealRandomVariable, selector) -> Subspace:
    """The event on which the value falls in ``selector``.

    ``selector`` is a callable predicate on reals or a container of values;
    the result is the orthogonal sum of the matching level sets.
    """
    if callable(selector):
        pred: Callable[[float], bool] = selector
    else:
        chosen = set(float(v) for v in selector)
        pred = chosen.__contains__
    hits = [e for v, e in rv.outcomes if pred(v)]
    if not hits:
        return lat.empty(rv.structure)
    return lat.join(*hits)


@dataclass(frozen=True)
class Expectation:
    value: float
    contributions: tuple[tuple[float, float], ...]  # (value, probability)


def expectation(rv: RealRandomVariable, p: ProbabilityMeasure) -> Expectation:
    """The mean of the variable under the measure: sum of value * p(event)."""
    contributions = tuple((v, evaluate(p, e)) for v, e in rv.outcomes)
    return Expectation(value=sum(v * pr for v, pr in contributions),
                       contributions=contributions)


def check_expect_theorem(rv: RealRandomVariable, x) -> float:
    """Residual of the basis identity for the expectation under a pure state.

    Under the measure induced by ``x``, the mean must equal the sum over any
    tagged domain basis of ``value(b) * s(x, b)``.  Returns lhs - rhs.
    """
    st = rv.structure
    lhs = expectation(rv, pure_state(st, x)).value
    rhs = sum(value * similarity(st, x, b) for value, b in rv.domain_basis())
    return lhs - rhs


def compatible(x_rv: RealRandomVariable, y_rv: RealRandomVariable) -> bool:
    """Whether every pair of level sets commutes: E = (E & F) + (E & F')."""
    return all(lat.commutes(e, f) for e in x_rv.events for f in y_rv.events)
