"""Probability on similarity-projection sample spaces.

A sample space here is a set of points with a similarity function rather
than plain set membership; subspaces generalize events, and probability
measures assign them weights subject to additivity along orthogonal
decompositions.  Three concrete models ship in :mod:`starprob.structures`:
finite classical spaces, rays of ``R^d``, and explicitly tabulated finite
spaces.
"""

from . import errors
from .axioms import AXIOMS, ValidationBudget, validate_sp_axioms
from .lattice import (
    Subspace,
    check_de_morgan,
    check_orthomodular,
    commutes,
    distributes,
    empty,
    from_basis,
    from_points,
    from_span,
    full,
    is_orthogonal,
    is_subset,
    join,
    meet,
    ortho_complement,
    project,
    similarity_to_subspace,
)
from .measures import (
    ProbabilityMeasure,
    measures_equal,
    mix,
    pure_state,
    table_measure,
    validate_measure,
)
from .randomvars import (
    Expectation,
    RealRandomVariable,
    check_expect_theorem,
    compatible,
    eval_at_point,
    expectation,
    make_rv,
    preimage,
)
from .sigma import (
    SigmaStarField,
    atomic_decomposition,
    atoms,
    distributivity_witness,
    generate_sigma_star,
    is_boolean,
    validate_sigma_star,
)
from .similarity import (
    SamplerConfig,
    SimilarityEstimate,
    check_point_continuity,
    check_similarity_theorems,
    compare_leq,
    sampled_similarity,
    subspace_similarity,
    tau,
)
from .structures import Check, Report, SPStructure, as_point, point_similarity, points_equal

__version__ = "0.1.0"


def __getattr__(name: str):
    # the property suites import io (and json) in turn: load them on first use
    if name == "run_property_suite":
        from .suites import run_property_suite
        return run_property_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AXIOMS",
    "Check",
    "Expectation",
    "ProbabilityMeasure",
    "RealRandomVariable",
    "Report",
    "SPStructure",
    "SamplerConfig",
    "SigmaStarField",
    "SimilarityEstimate",
    "Subspace",
    "ValidationBudget",
    "as_point",
    "atomic_decomposition",
    "atoms",
    "check_de_morgan",
    "check_expect_theorem",
    "check_orthomodular",
    "check_point_continuity",
    "check_similarity_theorems",
    "commutes",
    "compare_leq",
    "compatible",
    "distributes",
    "distributivity_witness",
    "empty",
    "errors",
    "eval_at_point",
    "expectation",
    "from_basis",
    "from_points",
    "from_span",
    "full",
    "generate_sigma_star",
    "is_boolean",
    "is_orthogonal",
    "is_subset",
    "join",
    "make_rv",
    "measures_equal",
    "meet",
    "mix",
    "ortho_complement",
    "points_equal",
    "point_similarity",
    "preimage",
    "project",
    "pure_state",
    "run_property_suite",
    "sampled_similarity",
    "similarity_to_subspace",
    "subspace_similarity",
    "table_measure",
    "tau",
    "validate_measure",
    "validate_sigma_star",
    "validate_sp_axioms",
    "__version__",
]
