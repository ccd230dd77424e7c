import gc
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from starprob import SPStructure, as_point, point_similarity, points_equal
from starprob.errors import (
    BoundednessViolated,
    FormatError,
    InvalidPoint,
    MixedStructures,
    NotOrthoSet,
)
from starprob.lattice import from_basis, full
from starprob.structures import (
    TOL_EQ,
    Check,
    ClassicalStructure,
    ExplicitStructure,
    RayStructure,
    Report,
    closure_of_ortho_set,
    ensure_ortho_set,
    ensure_same_structure,
    extend_to_basis,
    project_point,
    random_frame,
    same_structure,
    similarity_to_ortho_set,
)


def test_classical_similarity_is_kronecker(classical4):
    for i in range(4):
        for j in range(4):
            assert point_similarity(classical4, i, j) == (1.0 if i == j else 0.0)


def test_ray_similarity_is_squared_cosine(ray2):
    x = as_point(ray2, [1.0, 0.0])
    for deg in (0.0, 17.0, 30.0, 45.0, 60.0, 90.0):
        t = math.radians(deg)
        y = as_point(ray2, [math.cos(t), math.sin(t)])
        assert point_similarity(ray2, x, y) == pytest.approx(math.cos(t) ** 2, abs=1e-12)


def test_ray_points_are_sign_blind(ray3):
    x = as_point(ray3, [1.0, 2.0, -1.0])
    y = as_point(ray3, [-1.0, -2.0, 1.0])
    assert points_equal(ray3, x, y)
    assert point_similarity(ray3, x, y) == pytest.approx(1.0, abs=1e-12)


def test_ray_point_is_normalized(ray3):
    x = as_point(ray3, [3.0, 0.0, 4.0])
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)


def test_zero_vector_rejected(ray2):
    with pytest.raises(InvalidPoint):
        as_point(ray2, [0.0, 0.0])


def test_nonfinite_vector_rejected(ray2):
    with pytest.raises(InvalidPoint):
        as_point(ray2, [1.0, float("nan")])


def test_malformed_ray_vectors_rejected(ray2):
    # not numbers, ragged, the wrong shape, or a norm that overflows to inf
    for bad in (["r0", 1], ["1", "0"], [[1.0, 0.0], [1.0]], [True, False],
                [None, 1.0], [1.0], 1.0, [1e300, 1e300]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(InvalidPoint):
                as_point(ray2, bad)


def test_classical_point_by_label():
    st_ = SPStructure.explicit([[1.0, 0.0], [0.0, 1.0]], labels=["left", "right"])
    assert as_point(st_, "left") == 0
    assert as_point(st_, "right") == 1
    with pytest.raises(InvalidPoint):
        as_point(st_, "middle")


def test_classical_index_out_of_range(classical4):
    with pytest.raises(InvalidPoint):
        as_point(classical4, 4)
    with pytest.raises(InvalidPoint):
        as_point(classical4, float("inf"))


@pytest.mark.parametrize("raw", [2.7, 0.5, -0.5, True, False, np.bool_(True),
                                 np.float64(1.5)])
def test_discrete_point_is_an_integral_number(classical4, wheel, raw):
    # neither truncated nor read from a boolean
    for st_ in (classical4, wheel):
        with pytest.raises(InvalidPoint):
            as_point(st_, raw)


def test_discrete_point_accepts_integral_numbers(classical4):
    assert as_point(classical4, 2.0) == 2
    assert as_point(classical4, np.int64(3)) == 3
    assert as_point(classical4, np.float64(1.0)) == 1


def test_explicit_table_lookup(wheel):
    # four planar lines at 45-degree steps: squared cosines 1, 1/2, 0
    expected = [
        [1.0, 0.5, 0.0, 0.5],
        [0.5, 1.0, 0.5, 0.0],
        [0.0, 0.5, 1.0, 0.5],
        [0.5, 0.0, 0.5, 1.0],
    ]
    for i in range(4):
        for j in range(4):
            assert point_similarity(wheel, i, j) == expected[i][j]


def test_explicit_labels(wheel):
    assert wheel.labels == ("r0", "r45", "r90", "r135")
    assert wheel.label_index("r90") == 2


def test_explicit_rejects_asymmetric_matrix():
    with pytest.raises(FormatError):
        SPStructure.explicit([[1.0, 0.3], [0.4, 1.0]])


def test_explicit_rejects_bad_diagonal():
    with pytest.raises(FormatError):
        SPStructure.explicit([[0.9, 0.0], [0.0, 1.0]])


def test_explicit_rejects_out_of_range_entries():
    with pytest.raises(FormatError):
        SPStructure.explicit([[1.0, 1.2], [1.2, 1.0]])
    # non-finite entries are rejected up front, without a numpy warning
    for bad in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="finite"):
                SPStructure.explicit([[1.0, bad], [bad, 1.0]])
    # entries that are not numbers, or rows that do not form a table
    for bad in ([["a"]], [[1.0, "x"], ["x", 1.0]], [[1.0, 0.0], [0.0]], "abc"):
        with pytest.raises(FormatError, match="table of numbers"):
            SPStructure.explicit(bad)


def test_orthogonal_points_match_a_scan_of_the_table(wheel):
    # the precomputed per-point orthogonality sets against the direct scan
    # of the similarity table that they replace
    angles = [math.pi * k / 6 for k in range(6)]
    planes = SPStructure.explicit(
        [[math.cos(a - b) ** 2 for b in angles] for a in angles])
    for st in (wheel, planes):
        for r in range(st.n + 1):
            for pts in itertools.combinations(range(st.n), r):
                want = frozenset(p for p in range(st.n)
                                 if all(st.matrix[p, q] <= 1e-9 for q in pts))
                assert st.orthogonal_points(pts) == want


def test_explicit_rejects_indistinguishable_points():
    # two rows that agree everywhere describe the same point twice
    m = [
        [1.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
    with pytest.raises(FormatError):
        SPStructure.explicit(m)


def test_mixed_structures_rejected(ray2, ray3):
    with pytest.raises(MixedStructures):
        ensure_same_structure(ray2, ray3)


def test_each_constructor_returns_its_models_class(wheel):
    for st, cls, kind in ((SPStructure.classical(2), ClassicalStructure, "classical"),
                          (SPStructure.ray(2), RayStructure, "ray"),
                          (wheel, ExplicitStructure, "explicit")):
        assert (type(st), st.kind) == (cls, kind)


def test_same_structure_never_crosses_models(wheel):
    # classical is the Kronecker case of the explicit model, not one of its
    # tables: an identity table with the same labels is another sample space
    eye2 = SPStructure.explicit(np.eye(2), labels=["0", "1"])
    assert not same_structure(SPStructure.classical(4), wheel)
    assert not same_structure(SPStructure.classical(2), eye2)
    assert not same_structure(SPStructure.ray(4), SPStructure.classical(4))
    assert same_structure(SPStructure.classical(2), SPStructure.classical(2))
    assert same_structure(SPStructure.ray(4), SPStructure.ray(4))
    assert same_structure(SPStructure.explicit(np.eye(2), labels=["0", "1"]), eye2)
    assert not same_structure(SPStructure.explicit(np.eye(2)), eye2)


def test_wrong_model_calls_are_format_errors(classical4, ray2):
    with pytest.raises(FormatError):
        closure_of_ortho_set(ray2, [[1.0, 0.0]])
    for st in (classical4, ray2):
        with pytest.raises(FormatError):
            st.explicit_lattice()


def test_ortho_set_validation(ray2):
    e1 = as_point(ray2, [1.0, 0.0])
    e2 = as_point(ray2, [0.0, 1.0])
    assert len(ensure_ortho_set(ray2, [e1, e2])) == 2
    diag = as_point(ray2, [1.0, 1.0])
    from starprob.errors import NotOrthoSet

    with pytest.raises(NotOrthoSet):
        ensure_ortho_set(ray2, [e1, diag])


def test_similarity_to_ortho_set_caps_at_one(ray3):
    e1 = as_point(ray3, [1.0, 0.0, 0.0])
    e2 = as_point(ray3, [0.0, 1.0, 0.0])
    x = as_point(ray3, [1.0, 1.0, 0.0])
    total = similarity_to_ortho_set(ray3, x, [e1, e2])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_similarity_to_ortho_set_flags_broken_tables():
    # points 1 and 2 are orthogonal, yet point 0 claims 0.6 similarity to
    # each -- total mass 1.2 against an orthogonal pair, which no genuine
    # similarity structure permits.
    m = [
        [1.0, 0.6, 0.6],
        [0.6, 1.0, 0.0],
        [0.6, 0.0, 1.0],
    ]
    bad = SPStructure.explicit(m)
    with pytest.raises(BoundednessViolated):
        similarity_to_ortho_set(bad, 0, [1, 2])


def test_public_ortho_set_queries_still_validate(ray3):
    # the lattice skips the pair check for a subspace's own basis; the public
    # entry points keep it
    e1 = as_point(ray3, [1.0, 0.0, 0.0])
    diag = as_point(ray3, [1.0, 1.0, 0.0])
    x = as_point(ray3, [1.0, 2.0, 2.0])
    with pytest.raises(NotOrthoSet):
        similarity_to_ortho_set(ray3, x, [e1, diag])
    with pytest.raises(NotOrthoSet):
        project_point(ray3, x, [e1, diag])


def test_projection_flags_broken_tables():
    # the table of test_similarity_to_ortho_set_flags_broken_tables: mass 1.2
    # against the orthogonal pair {1, 2}
    bad = SPStructure.explicit([
        [1.0, 0.6, 0.6],
        [0.6, 1.0, 0.0],
        [0.6, 0.0, 1.0],
    ])
    with pytest.raises(BoundednessViolated):
        project_point(bad, 0, [1, 2])


def test_classical_closure_is_the_set_itself(classical4):
    assert closure_of_ortho_set(classical4, [0, 2]) == frozenset({0, 2})


def test_extend_to_basis_classical(classical4):
    full = extend_to_basis(classical4, [1])
    assert sorted(full) == [0, 1, 2, 3]


def test_extend_to_basis_ray(ray3):
    x = as_point(ray3, [1.0, 1.0, 1.0])
    basis = extend_to_basis(ray3, [x])
    assert len(basis) == 3
    g = np.array(basis) @ np.array(basis).T
    np.testing.assert_allclose(g, np.eye(3), atol=1e-10)


def _completes_to_the_full_space(st_, pts):
    basis = extend_to_basis(st_, pts)
    assert len(basis) == st_.d
    ensure_ortho_set(st_, basis)
    assert from_basis(st_, basis) == full(st_)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_extend_to_basis_ray_completes_points_orthogonal_within_tolerance(d):
    """Points that ensure_ortho_set accepts, though not exactly orthogonal,
    still complete to d rays: the second point is tilted towards the first by
    cos^2 up to just under TOL_EQ (0 included), in 25 random frames each."""
    rng = np.random.default_rng(d)
    ray = RayStructure(d)
    for cos2 in [0.0, *np.geomspace(1e-14, 0.999 * TOL_EQ, 20)]:
        for _ in range(25):
            q = random_frame(d, 2, rng)
            tilted = math.sqrt(1 - cos2) * q[:, 1] + math.sqrt(cos2) * q[:, 0]
            _completes_to_the_full_space(ray, [q[:, 0], tilted])


@pytest.mark.parametrize("d", [3, 6, 12])
def test_extend_to_basis_ray_completes_many_tilted_points(d):
    """Every pair of k points tilted by cos^2 just under TOL_EQ: projecting
    on the points one by one would leave residuals that overflow the basis."""
    rng = np.random.default_rng(d)
    ray = RayStructure(d)
    for k in range(2, d + 1):
        for _ in range(10):
            signs = np.triu(rng.choice([-1.0, 1.0], size=(k, k)), 1)
            eps = math.sqrt(0.999 * TOL_EQ) / 2 * rng.uniform(0.5, 1.0)
            pts = (random_frame(d, k, rng) @ (np.eye(k) + eps * (signs + signs.T))).T
            if max(point_similarity(ray, *map(ray.as_point, pair)) for pair
                   in itertools.combinations(pts, 2)) <= TOL_EQ:
                _completes_to_the_full_space(ray, list(pts))


def _plane_table(k):
    """``k`` lines of the plane spaced ``180/k`` degrees, tabulated."""
    ang = [math.pi * i / k for i in range(k)]
    return SPStructure.explicit([[math.cos(x - y) ** 2 for y in ang] for x in ang])


def _first_completion(st_, base):
    """The first orthogonal extension of ``base`` in depth-first order (the
    lexicographic order of the added points) that is a basis."""
    cands = sorted(st_.orthogonal_points(base))
    added = [c for r in range(len(cands) + 1) for c in itertools.combinations(cands, r)
             if all(q in st_.orthogonal[p] for p, q in itertools.combinations(c, 2))]
    return next(base + c for c in sorted(added)
                if st_.closure(base + c) == frozenset(range(st_.n)))


@pytest.mark.parametrize("k", [4, 6, 8])
def test_explicit_completion_is_the_first_basis_depth_first(k):
    st_ = _plane_table(k)
    for p in range(k):
        assert extend_to_basis(st_, [p]) == _first_completion(st_, (p,))


def test_explicit_completion_leaves_no_reference_cycle(wheel):
    tables = [wheel, _plane_table(6)]
    for st_ in tables:
        st_.explicit_lattice()
    gc.collect()
    gc.disable()
    try:
        assert [extend_to_basis(st_, [0]) for st_ in tables] == [(0, 2), (0, 3)]
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_classical_similarity_symmetric(i, j):
    st_ = SPStructure.classical(6)
    assert point_similarity(st_, i, j) == point_similarity(st_, j, i)


@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
)
def test_ray_similarity_bounds_and_symmetry(u, v):
    st_ = SPStructure.ray(3)
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return
    x = as_point(st_, u)
    y = as_point(st_, v)
    sxy = point_similarity(st_, x, y)
    syx = point_similarity(st_, y, x)
    assert sxy == pytest.approx(syx, abs=1e-12)
    assert -1e-12 <= sxy <= 1.0 + 1e-12


def test_check_records_trials_failures_and_the_first_witnesses():
    check = Check("law")
    check.hit(True, 1e-12)
    assert (check.status, check.trials, check.witness) == ("pass", 1, None)
    for i in range(5):
        check.hit(False, 0.5 * i, {"i": i}, trials=2)
    assert check.status == "fail"
    assert (check.trials, check.failures, check.max_residual) == (11, 5, 2.0)
    assert check.witnesses == [{"i": 0}, {"i": 1}, {"i": 2}]
    assert check.witness == {"i": 0}
    # a trial that holds keeps the status the evidence started at
    sampled = Check("law", status="sampled-pass")
    sampled.hit(True)
    assert sampled.status == "sampled-pass"


def test_report_overall_ok_and_lookup():
    report = Report([Check("a"), Check("b", status="sampled-pass")])
    assert (report.overall, report.ok) == ("sampled-pass", False)
    assert report.check("b") is report.checks[1]
    with pytest.raises(KeyError):
        report.check("c")
    assert Report().ok
