"""Exception types shared across the package.

Everything raised on purpose derives from :class:`SPError`, so callers can
catch one base class.  Names describe the violated contract, not the caller.
"""

from __future__ import annotations


class SPError(Exception):
    """Base class for all similarity-projection errors."""


class FormatError(SPError):
    """A JSON document or literal does not match the expected schema."""


class InvalidPoint(SPError):
    """A value is not a point of the given sample space."""


class NotOrthoSet(SPError):
    """A collection of points is not pairwise orthogonal."""


class BoundednessViolated(SPError):
    """Total similarity against a pairwise-orthogonal set exceeded one."""


class OrthogonalProjectionUndefined(SPError):
    """The point is orthogonal to the target subspace, so no projection exists."""


class EmptySubspace(SPError):
    """The operation needs a non-empty subspace."""


class ProjectionNotFound(SPError):
    """No member of the subspace realises the projection identity.

    Only reachable on explicit-matrix models that fail the structural axioms;
    the validated models always contain the required representative.
    """


class NotASubspace(SPError):
    """A point set is not the closure of any pairwise-orthogonal set."""


class CompletionNotFound(SPError):
    """No orthogonal completion to a full basis was found.

    ``exhausted`` is True when the whole candidate space was searched (the
    structure genuinely has no completion) and False when the search budget
    ran out first.
    """

    def __init__(self, message: str, exhausted: bool) -> None:
        super().__init__(message)
        self.exhausted = exhausted


class BudgetRequired(SPError):
    """The model is too large for exhaustive work and no sampling budget was given."""


class MixedStructures(SPError):
    """Operands belong to different sample spaces."""


class ClosureCapExceeded(SPError):
    """Closure generation grew past the event cap.

    ``partial`` holds the capped family for inspection; it is not valid for
    downstream use.
    """

    def __init__(self, message: str, partial=None) -> None:
        super().__init__(message)
        self.partial = partial


class EventNotInField(SPError):
    """A table-backed measure was evaluated outside its field."""


class WeightsNotConvex(SPError):
    """Mixture weights must be non-negative and sum to one."""


class EventsNotOrthogonal(SPError):
    """Random-variable events must be pairwise orthogonal."""


class DomainNotTotalOnBasis(SPError):
    """Random-variable events must sum to the whole space."""


class DuplicateValue(SPError):
    """Random-variable values must be pairwise distinct."""


class ValueUndefinedAtPoint(SPError):
    """The point lies in no eigen-event, so the variable has no value there.

    This is a legitimate outcome for partial random variables, not a fault.
    """
