"""Validator behaviour on the three structure models.

The validator grades each of the six similarity-space laws independently
and reports ``pass`` (proved for every case it enumerated), ``sampled-pass``
(held on every sampled case, but the space is infinite), or ``fail``
(a concrete witness was found).  These tests pin the expected grade for
each model and the exact witness for a deliberately broken table.
"""

import math

import numpy as np
import pytest

from starprob import AXIOMS, SPStructure, ValidationBudget, validate_sp_axioms
from starprob import structures as core
from starprob.axioms import FAIL, PASS, SAMPLED_PASS, o_projection_point
from starprob.errors import BudgetRequired
from starprob.io import load_structure, validate_report_to_dict
from starprob.structures import as_point


def test_axiom_roster():
    assert AXIOMS == (
        "symmetry",
        "non_negativity",
        "boundedness",
        "o_projection",
        "factorization",
        "standardness",
    )


class TestClassicalModel:
    """Finite Kronecker-delta structures are checked exhaustively."""

    def test_all_axioms_pass(self, classical4):
        report = validate_sp_axioms(classical4)
        assert report.overall == PASS
        for name in AXIOMS:
            assert report.check(name).status == PASS, name

    def test_residuals_are_zero(self, classical4):
        report = validate_sp_axioms(classical4)
        for name in AXIOMS:
            assert report.check(name).max_residual <= 1e-15


class TestRayModel:
    """Continuum of points: laws hold on every sampled case."""

    def test_overall_is_sampled_pass(self, ray3):
        report = validate_sp_axioms(ray3, ValidationBudget(samples=200, seed=7))
        assert report.overall == SAMPLED_PASS
        assert all(v.status in (PASS, SAMPLED_PASS) for v in report.checks)

    def test_sampled_residuals_tiny(self, ray3):
        report = validate_sp_axioms(ray3, ValidationBudget(samples=200, seed=7))
        worst = max(v.max_residual for v in report.checks)
        assert worst <= 1e-9

    def test_each_sampled_set_is_validated_once(self, ray3, monkeypatch):
        """Two orthogonal sets per sample, each pair-checked exactly once."""
        calls = []
        pair_check = core.ensure_ortho_set

        def counting(st, points):
            calls.append(len(points))
            return pair_check(st, points)

        monkeypatch.setattr(core, "ensure_ortho_set", counting)
        validate_sp_axioms(ray3, ValidationBudget(samples=50, seed=7))
        assert len(calls) == 2 * 50

    def test_deterministic_given_seed(self, ray2):
        a = validate_sp_axioms(ray2, ValidationBudget(samples=100, seed=3))
        b = validate_sp_axioms(ray2, ValidationBudget(samples=100, seed=3))
        assert (validate_report_to_dict(ray2, a)
                == validate_report_to_dict(ray2, b))


class TestExplicitModel:
    def test_wheel_table_passes_exhaustively(self, wheel):
        report = validate_sp_axioms(wheel)
        assert report.overall == PASS

    def test_broken_table_fails_with_witness(self, fixture_dir):
        """A 3-point table with 0.5 everywhere off-diagonal.

        Every singleton is a maximal orthogonal set, yet other points hold
        similarity 0.5 to it -- strictly between 0 and 1 -- and the table
        contains no point that could play the role of the projection.  The
        validator must say which point and which orthogonal set exhibit
        the failure.
        """
        bad = load_structure(fixture_dir / "bad3x3.json")
        report = validate_sp_axioms(bad)
        assert report.overall == FAIL
        verdict = report.check("o_projection")
        assert verdict.status == FAIL
        assert verdict.witness == {
            "point": "b",
            "ortho_set": ["a"],
            "similarity_sum": 0.5,
        }
        # the other laws are genuinely fine on this table
        assert report.check("symmetry").status == PASS
        assert report.check("boundedness").status == PASS

    def test_large_explicit_is_sampled_without_opt_in(self):
        # past the enumeration budget (2**16 orthogonal sets here) the table
        # is sampled, as rays are; only the exhaustive enumeration refuses it
        n = 16
        st = SPStructure.explicit(np.eye(n).tolist())
        with pytest.raises(BudgetRequired):
            st.explicit_lattice()
        report = validate_sp_axioms(st, ValidationBudget(samples=50, seed=1))
        assert report.overall == SAMPLED_PASS
        assert report.check("boundedness").trials == 50

    def test_one_point_past_the_budget_is_sampled(self):
        # the 12-point identity is the whole budget, 2**12 orthogonal sets;
        # the 13-point one doubles it
        assert len(SPStructure.explicit(np.eye(12)).explicit_lattice()["cliques"]) == 4096
        st = SPStructure.explicit(np.eye(13))
        with pytest.raises(BudgetRequired, match="more than 4096 orthogonal point sets"):
            st.explicit_lattice()
        report = validate_sp_axioms(st, ValidationBudget(samples=50, seed=1))
        assert report.overall == SAMPLED_PASS
        assert report.check("boundedness").trials == 50

    @pytest.mark.parametrize("k", [14, 24, 36, 60])
    def test_even_plane_tables_pass_exhaustively(self, k):
        # k lines and k/2 orthogonal pairs: few sets however many points
        st = SPStructure.explicit(_plane_table(k))
        sets = len(st.explicit_lattice()["cliques"])
        assert sets == 1 + k + k // 2
        assert len(st.explicit_lattice()["carrier_list"]) == k + 2  # 0, the lines, 1
        report = validate_sp_axioms(st)
        assert {c.status for c in report.checks} == {PASS}
        assert report.check("boundedness").trials == k * (sets - 1)
        assert report.check("o_projection").trials == k * k

    @pytest.mark.parametrize("k", [13, 15])
    def test_odd_plane_tables_fail_exhaustively(self, k):
        # no line is orthogonal to another, so no point completes p0's
        # similarity to p1 to one
        report = validate_sp_axioms(SPStructure.explicit(_plane_table(k)))
        assert report.overall == FAIL
        verdict = report.check("o_projection")
        assert verdict.status == FAIL
        assert verdict.witness["point"] == "p1"
        assert verdict.witness["ortho_set"] == ["p0"]
        assert verdict.witness["similarity_sum"] == pytest.approx(
            math.cos(math.pi / k) ** 2, abs=1e-12)


def _plane_table(k):
    """Similarity table of ``k`` lines of the plane spaced ``180/k`` degrees."""
    ang = [math.pi * i / k for i in range(k)]
    return [[math.cos(x - y) ** 2 for y in ang] for x in ang]


def _guard_structures(fixture_dir):
    bundled = [(path.stem, load_structure(path)) for path in sorted(fixture_dir.glob("*.json"))
               if path.name.startswith(("classical", "explicit", "ray", "bad3x3"))]
    planes = [(f"plane{k}", SPStructure.explicit(_plane_table(k))) for k in range(4, 61)]
    eyes = [(f"eye{n}", SPStructure.explicit(np.eye(n))) for n in (12, 13, 16)]
    # three 12-line planes side by side: 19^3 orthogonal sets, past the budget,
    # and every maximal one is a 6-point basis, where o_projection has no case
    planes3 = [("plane12x3", SPStructure.explicit(np.kron(np.eye(3), _plane_table(12))))]
    return bundled + planes + eyes + planes3


def test_no_sampled_pass_stands_for_zero_checks(fixture_dir):
    # exit code 3 reads "sampled evidence only": every sampled law must have
    # run at least one check (a small budget makes a zero count likelier)
    structures = _guard_structures(fixture_dir)
    assert {"bad3x3", "classical4", "explicit4", "ray2", "ray3"} <= {n for n, _ in structures}
    for name, st in structures:
        report = validate_sp_axioms(st, ValidationBudget(samples=200, seed=0))
        for check in report.checks:
            assert check.status != SAMPLED_PASS or check.trials > 0, (name, check.law)


class TestOrthogonalWitness:
    def test_ray_witness_completes_the_mass(self, ray3):
        e1 = as_point(ray3, [1.0, 0.0, 0.0])
        e2 = as_point(ray3, [0.0, 1.0, 0.0])
        x = as_point(ray3, [1.0, 2.0, 2.0])
        y = o_projection_point(ray3, x, [e1, e2])
        # the witness is orthogonal to the plane and absorbs the leftover
        # similarity: s(x, plane) + s(x, y) = 5/9 + 4/9 = 1
        assert abs(float(y @ e1)) <= 1e-12
        assert abs(float(y @ e2)) <= 1e-12
        assert float((x @ y) ** 2) == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_classical_witness_is_the_point_itself(self, classical4):
        # a classical point outside the set is already orthogonal to it
        assert o_projection_point(classical4, 0, [1, 2]) == 0


def test_report_round_trips_to_dict(classical4):
    d = validate_report_to_dict(classical4, validate_sp_axioms(classical4))
    assert d["overall"] == "pass"
    assert set(d["verdicts"]) == set(AXIOMS)
    assert d["structure"]["kind"] == "classical"
