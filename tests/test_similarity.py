"""Subspace similarity: the vantage comparison, its infimum, and the bounds.

The headline facts pinned here:

* line pairs have the closed form s = cos^2(angle), and the sampler must
  reproduce it to 1e-3 while never undercutting it (estimates are upper
  bounds of an infimum);
* every other ray pair without a closed form has similarity exactly 0, with
  a witness that sees both sides unless the pair is nearly equal, no
  sampler runs, and the sampler oracle never undercuts the exact value;
* the similarity of a subspace pair is 1 exactly when they are equal;
* on discrete structures the triangle-style bound and the pointwise
  continuity bound hold exhaustively;
* on ray structures the HALF-coefficient pointwise bound

      s(z,x) <= s(z,y) + (1/2)sqrt(1 - s(x,y)) + (1 - s(x,y))

  is false.  The extremal vantage gap between two lines at angle g is
  exactly sin(g) = sqrt(1 - s(x,y)), so the bound fails whenever
  sin(g) < 1/2, by as much as 1/16.  The unit-coefficient variant
  (replace 1/2 by 1) is tight and does hold.  ``check_point_continuity``
  keeps the half-coefficient form on purpose and these tests document,
  with a pinned triple, that its residual goes negative.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from starprob import (
    SPStructure,
    check_point_continuity,
    check_similarity_theorems,
    compare_leq,
    from_basis,
    from_points,
    from_span,
    is_orthogonal,
    meet,
    ortho_complement,
    sampled_similarity,
    similarity_to_subspace,
    subspace_similarity,
    tau,
)
from starprob import similarity as similarity_module
from starprob.similarity import EXACT, SAMPLED, SamplerConfig, SimilarityEstimate, continuity_rhs
from starprob.structures import TOL_EQ, as_point, similarity as point_sim


def ray_line(st, angle):
    return from_basis(st, [as_point(st, [math.cos(angle), math.sin(angle)])])


# ---------------------------------------------------------------------------
# the vantage comparison tau


class TestVantage:
    def test_projections_compared_when_both_defined(self, ray3):
        a = from_span(ray3, [[1.0, 0.0, 0.0]])
        b = from_span(ray3, [[0.0, 1.0, 0.0]])
        x = as_point(ray3, [1.0, 1.0, 0.0])
        # x projects to e1 in a and to e2 in b; those are orthogonal
        assert tau(x, a, b) == 0.0

    def test_orthogonal_to_one_side(self, ray3):
        a = from_span(ray3, [[1.0, 0.0, 0.0]])
        b = from_span(ray3, [[0.0, 1.0, 0.0]])
        x = as_point(ray3, [0.0, 1.0, 0.0])  # inside b, orthogonal to a
        assert tau(x, a, b) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_to_both_sides(self, ray3):
        a = from_span(ray3, [[1.0, 0.0, 0.0]])
        b = from_span(ray3, [[0.0, 1.0, 0.0]])
        x = as_point(ray3, [0.0, 0.0, 1.0])  # sees neither subspace
        assert tau(x, a, b) == 1.0

    def test_classical_vantage(self, classical4):
        a = from_points(classical4, [0, 1])
        b = from_points(classical4, [1, 2])
        assert tau(1, a, b) == 1.0  # projects to itself on both sides
        assert tau(0, a, b) == 0.0  # projects to 0 in a, orthogonal image in b


# ---------------------------------------------------------------------------
# exact shortcuts of the subspace similarity


class TestExactValues:
    def test_equal_subspaces(self, ray3):
        a = from_span(ray3, [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        e = subspace_similarity(a, a)
        assert e.value == 1.0 and e.certainty == EXACT

    def test_orthogonal_subspaces(self, ray3):
        a = from_span(ray3, [[1.0, 0.0, 0.0]])
        b = from_span(ray3, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        e = subspace_similarity(a, b)
        assert e.value == 0.0 and e.certainty == EXACT

    def test_empty_and_full(self, ray2):
        st = ray2
        a = ray_line(st, 0.3)
        from starprob import empty, full

        assert subspace_similarity(empty(st), a).value == 0.0
        assert subspace_similarity(full(st), a).value == 0.0
        assert subspace_similarity(empty(st), empty(st)).value == 1.0

    def test_line_pair_closed_form(self, ray2):
        for deg in (10.0, 30.0, 45.0, 60.0, 80.0):
            g = math.radians(deg)
            e = subspace_similarity(ray_line(ray2, 0.0), ray_line(ray2, g))
            assert e.certainty == EXACT
            assert e.value == pytest.approx(math.cos(g) ** 2, abs=1e-12)

    def test_lines_that_are_not_orthogonal_meet_no_complement(self):
        # the line branch answers before the cross meets, which it may only
        # do because both are empty: checked on seeded pairs and on pairs at
        # the orthogonality edge (cos^2 just above TOL_EQ) and near equality
        rng = np.random.default_rng(11)
        for d in (2, 3, 4, 6, 8):
            st = SPStructure.ray(d)
            pairs = [rng.standard_normal((2, d)) for _ in range(30)]
            for c2 in (1.01 * TOL_EQ, 4 * TOL_EQ, 1e-6, 1.0 - 1e-10):
                u, w = np.eye(d)[0], np.eye(d)[1]
                pairs.append([u, math.sqrt(c2) * u + math.sqrt(1.0 - c2) * w])
            for u, v in pairs:
                a, b = from_span(st, [u]), from_span(st, [v])
                if is_orthogonal(a, b) or a == b:
                    continue
                assert meet(ortho_complement(a), b).is_empty
                assert meet(ortho_complement(b), a).is_empty
                dot = float(np.dot(a.frame[:, 0], b.frame[:, 0]))
                assert subspace_similarity(a, b) == SimilarityEstimate(min(1.0, dot * dot), EXACT)

    def test_complement_crossing_pair_is_zero(self, ray3):
        # b contains a direction orthogonal to all of a: similarity 0 exactly
        a = from_span(ray3, [[1.0, 0.0, 0.0]])
        b = from_span(ray3, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        e = subspace_similarity(a, b)
        assert e.value == 0.0 and e.certainty == EXACT

    def test_wheel_table(self, wheel):
        # singleton subspaces reduce to the point table
        expected = {
            ("r0", "r45"): 0.5,
            ("r0", "r90"): 0.0,
            ("r0", "r135"): 0.5,
            ("r45", "r135"): 0.0,
        }
        for (la, lb), want in expected.items():
            e = subspace_similarity(from_points(wheel, [la]), from_points(wheel, [lb]))
            assert e.certainty == EXACT
            assert e.value == want

    def test_classical_subset_pairs_enumerate(self, classical4):
        a = from_points(classical4, [0, 1])
        b = from_points(classical4, [1, 2])
        e = subspace_similarity(a, b)
        # vantage from 3 (outside both) sees both subspaces as invisible
        # only after projecting: the worst case is s = 0 from point 0
        assert e.certainty == EXACT
        assert e.value == 0.0
        assert subspace_similarity(a, a).value == 1.0


# ---------------------------------------------------------------------------
# the zero witness for ray pairs without a closed form


def _no_sampler(*args, **kwargs):
    raise AssertionError("the sampler was called")


def _random_pair(seed, d, ka, kb):
    rng = np.random.default_rng(seed)
    st = SPStructure.ray(d)
    a = from_span(st, rng.standard_normal((ka, d)))
    b = from_span(st, rng.standard_normal((kb, d)))
    return st, a, b


def _assert_zero_witness(st, a, b, e):
    assert e.certainty == EXACT and e.value == 0.0
    x = as_point(st, e.witness)
    assert tau(x, a, b) <= TOL_EQ
    assert similarity_to_subspace(x, a) > TOL_EQ
    assert similarity_to_subspace(x, b) > TOL_EQ


class TestZeroWitness:
    def test_pinned_planes_are_exactly_zero(self):
        st = SPStructure.ray(4)
        a = from_span(st, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = from_span(st, [[1, 0, 1, 0], [0, 1, 0, 1]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(similarity_module, "sampled_similarity", _no_sampler)
            e = subspace_similarity(a, b)
        _assert_zero_witness(st, a, b, e)
        assert e.value == 0.0 and e.is_exact
        assert compare_leq(e.value, 0.0) == "pass"

    @staticmethod
    def _tilted_planes(g, h):
        """A plane of R^4 against one at angle ``g`` on both principal
        planes, and a plane of R^3 against one at angle ``h``."""
        r3, r4 = SPStructure.ray(3), SPStructure.ray(4)
        return [
            (from_span(r4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
             from_span(r4, [[math.cos(g), 0, math.sin(g), 0],
                            [0, math.cos(g), 0, math.sin(g)]])),
            (from_span(r3, [[1, 0, 0], [0, 1, 0]]),
             from_span(r3, [[1, 0, 0], [0, 1, h]])),
        ]

    def test_nearly_equal_planes_are_exactly_zero_without_a_witness(self):
        # every principal angle below about 4.5e-5, where a zero witness
        # keeps g^2/2 of its mass on a side: within 1e-9 of orthogonal to
        # it, so the re-check rejects it, but the infimum is still 0 and no
        # sampler runs.  sin^2 g is past TOL_EQ, so the planes differ
        pairs = self._tilted_planes(4e-5, 4e-5) + self._tilted_planes(3.5e-5, 3.5e-5)
        for a, b in pairs:
            assert a != b
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(similarity_module, "sampled_similarity", _no_sampler)
                got = [subspace_similarity(a, b), subspace_similarity(b, a)]
            for e in got:
                assert (e.value, e.certainty, e.witness) == (0.0, EXACT, None)
                assert e.value == 0.0 and e.is_exact
            # the sampler, called directly, stays an upper bound of that 0
            oracle = sampled_similarity(a, b)
            assert oracle.certainty == SAMPLED
            assert 0.0 <= oracle.value <= 1e-9

    def test_planes_within_the_tolerance_are_equal(self):
        # sin^2 g within TOL_EQ: the planes are one subspace, similarity 1
        for a, b in self._tilted_planes(1e-5, 1e-5) + self._tilted_planes(3e-5, 1e-7):
            assert a == b and b == a
            for e in (subspace_similarity(a, b), subspace_similarity(b, a)):
                assert (e.value, e.certainty, e.witness) == (1.0, EXACT, None)

    @given(hs.integers(min_value=0, max_value=2 ** 32 - 1), hs.integers(3, 8),
           hs.data())
    def test_exact_value_is_certified_and_never_undercut(self, seed, d, data):
        # half the draws give equal dimensions, the pairs that need a witness
        ka = data.draw(hs.integers(1, d - 1))
        kb = data.draw(hs.one_of(hs.just(ka), hs.integers(1, d - 1)))
        st, a, b = _random_pair(seed, d, ka, kb)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(similarity_module, "sampled_similarity", _no_sampler)
            e = subspace_similarity(a, b)
        assert e.certainty == EXACT
        if ka == kb >= 2:
            _assert_zero_witness(st, a, b, e)
        oracle = sampled_similarity(a, b, SamplerConfig(samples=2000, refine_top=4))
        assert oracle.value >= e.value - 1e-12


# ---------------------------------------------------------------------------
# sampled estimates


class TestSampledEstimates:
    """The sampler oracle, called directly on a pair it is not needed for."""

    def _planes(self):
        st = SPStructure.ray(4)
        a = from_span(st, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = from_span(st, [[1, 0, 1, 0], [0, 1, 0, 1]])
        return st, a, b

    def test_certainty_and_upper_bound(self):
        _, a, b = self._planes()
        e = sampled_similarity(a, b)
        assert e.certainty == SAMPLED
        # the true infimum here is 0 (vantage points orthogonal to the
        # shared directions exist); the estimate must stay above it
        assert 0.0 <= e.value <= 1e-6

    def test_deterministic_given_config(self):
        _, a, b = self._planes()
        e1 = sampled_similarity(a, b)
        e2 = sampled_similarity(a, b)
        assert e1.value == e2.value
        assert e1.witness == e2.witness

    def test_more_samples_never_hurt(self):
        _, a, b = self._planes()
        cfg_small = SamplerConfig(samples=2000, refine_top=10, seed=5)
        cfg_big = SamplerConfig(samples=8000, refine_top=10, seed=5)
        lo = sampled_similarity(a, b, cfg_big)
        hi = sampled_similarity(a, b, cfg_small)
        # prefix-stable sampling: the big run minimizes over a superset
        assert lo.value <= hi.value + 1e-12

    def test_symmetry_of_estimates(self):
        _, a, b = self._planes()
        assert sampled_similarity(a, b).value == pytest.approx(
            sampled_similarity(b, a).value, abs=1e-9
        )

    def test_vantage_bound_at_basis_points(self):
        st, a, b = self._planes()
        e = sampled_similarity(a, b)
        for sub in (a, b):
            for x in sub.basis_points():
                assert e.value <= tau(x, a, b) + 1e-9


# ---------------------------------------------------------------------------
# exact comparison verdicts


def test_compare_leq_verdicts():
    assert compare_leq(0.3, 0.5) == "pass"
    assert compare_leq(0.5, 0.3) == "fail-certified"
    assert compare_leq(0.5, 0.5) == "pass"


# ---------------------------------------------------------------------------
# theorem checks as a bundle


def test_theorem_report_on_pinned_triple():
    st = SPStructure.ray(4)
    a = from_span(st, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = from_span(st, [[1, 0, 1, 0], [0, 1, 0, 1]])
    c = from_span(st, [[0, 0, 1, 0], [0, 1, 0, 0]])
    report = check_similarity_theorems(a, b, c)
    by_law = {c.law: c.status for c in report.checks}
    assert by_law == {
        "similarity.vantage_bound": "pass",
        "similarity.identity_iff_equal": "pass",
        "similarity.triangle_bound": "pass",
    }


def test_identity_detects_equal_subspaces(ray3):
    a = from_span(ray3, [[1.0, 1.0, 0.0]])
    b = from_span(ray3, [[-2.0, -2.0, 0.0]])
    report = check_similarity_theorems(a, b, ortho_complement(a))
    entry = report.check("similarity.identity_iff_equal")
    assert entry.status == "pass"
    assert entry.detail["equal"] is True
    assert entry.detail["value"] == 1.0


# ---------------------------------------------------------------------------
# the pointwise continuity bound and its failure on rays


class TestPointContinuity:
    def test_classical_exhaustive(self, classical4):
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    assert check_point_continuity(classical4, x, y, z) >= -1e-12

    def test_wheel_exhaustive(self, wheel):
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    assert check_point_continuity(wheel, x, y, z) >= -1e-12

    def test_rhs_is_exact_for_floats(self):
        assert continuity_rhs(0.375, 0.9375) == 0.5625

    def test_pinned_ray_counterexample(self, ray2):
        """Two lines 14.48 degrees apart defeat the half-coefficient bound.

        With x at angle 0, y at angle g where sin(g) = 1/4, and the vantage
        z at g/2 - 45 degrees (the bisector rotated a quarter turn, which
        maximizes s(z,x) - s(z,y)):

            s(x,y) = 1 - sin^2(g) = 0.9375
            s(z,x) = 0.625,  s(z,y) = 0.375
            rhs    = 0.375 + 0.5*0.25 + 0.0625 = 0.5625 < 0.625

        so the residual is exactly -1/16, the worst case over all line
        pairs.  The maximal vantage gap equals sqrt(1 - s(x,y)) = sin(g),
        hence the failure whenever sin(g) < 1/2.
        """
        g = math.asin(0.25)
        x = as_point(ray2, [1.0, 0.0])
        y = as_point(ray2, [math.cos(g), math.sin(g)])
        z_angle = g / 2.0 - math.pi / 4.0
        z = as_point(ray2, [math.cos(z_angle), math.sin(z_angle)])

        assert point_sim(ray2, x, y) == pytest.approx(0.9375, abs=1e-12)
        assert point_sim(ray2, z, x) == pytest.approx(0.625, abs=1e-12)
        assert point_sim(ray2, z, y) == pytest.approx(0.375, abs=1e-12)
        assert check_point_continuity(ray2, x, y, z) == pytest.approx(-0.0625, abs=1e-12)

    def test_extremal_gap_matches_sine(self, ray2):
        # sup_z [s(z,x) - s(z,y)] = sin(g) for lines at angle g: check the
        # witness value at several angles against the closed form
        for deg in (5.0, 10.0, 20.0, 40.0):
            g = math.radians(deg)
            x = as_point(ray2, [1.0, 0.0])
            y = as_point(ray2, [math.cos(g), math.sin(g)])
            z_angle = g / 2.0 - math.pi / 4.0
            z = as_point(ray2, [math.cos(z_angle), math.sin(z_angle)])
            gap = point_sim(ray2, z, x) - point_sim(ray2, z, y)
            assert gap == pytest.approx(math.sin(g), abs=1e-12)

    def test_half_coefficient_safe_above_thirty_degrees(self, ray2):
        # sin(g) >= 1/2 makes rhs - lhs >= 0 for every vantage: spot-check
        # the extremal vantage at the 30-degree boundary and beyond
        for deg in (30.0, 45.0, 60.0, 90.0):
            g = math.radians(deg)
            x = as_point(ray2, [1.0, 0.0])
            y = as_point(ray2, [math.cos(g), math.sin(g)])
            z_angle = g / 2.0 - math.pi / 4.0
            z = as_point(ray2, [math.cos(z_angle), math.sin(z_angle)])
            assert check_point_continuity(ray2, x, y, z) >= -1e-12


@given(hs.integers(min_value=0, max_value=2 ** 32 - 1), hs.integers(min_value=2, max_value=3))
def test_unit_coefficient_bound_holds_on_rays(seed, d):
    """The repaired inequality s(z,x) <= s(z,y) + sqrt(1 - s(x,y)).

    This is the tight version of the pointwise continuity statement on ray
    structures; random triples never violate it.
    """
    rng = np.random.default_rng(seed)
    st = SPStructure.ray(d)
    x, y, z = (as_point(st, rng.standard_normal(d)) for _ in range(3))
    lhs = point_sim(st, z, x)
    rhs = point_sim(st, z, y) + math.sqrt(max(0.0, 1.0 - point_sim(st, x, y)))
    assert lhs <= rhs + 1e-9


@given(hs.integers(min_value=0, max_value=2 ** 32 - 1))
def test_line_similarity_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    st = SPStructure.ray(3)
    a = from_basis(st, [as_point(st, rng.standard_normal(3))])
    b = from_basis(st, [as_point(st, rng.standard_normal(3))])
    e_ab = subspace_similarity(a, b)
    e_ba = subspace_similarity(b, a)
    assert e_ab.value == pytest.approx(e_ba.value, abs=1e-9)
    assert -1e-12 <= e_ab.value <= 1.0 + 1e-12
