"""The bundled property suites at reduced scale.

The similarity suite is EXPECTED to report failures: the half-coefficient
pointwise continuity bound genuinely fails on ray structures (see
test_similarity.py for the pinned counterexample).  These tests assert the
suite is honest about that -- failures carry witnesses and residuals --
while every other suite passes cleanly.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import starprob
from starprob import run_property_suite
from starprob.cli import run_command
from starprob.errors import FormatError
from starprob.io import suite_report_to_dict
from starprob.suites import SUITE_IDS, wheel_structure


def by_law(report):
    return {c.law: c for c in report.checks}


def test_suite_ids():
    assert SUITE_IDS == ("lattice", "similarity", "sigma", "prob", "rv", "all")


def test_import_leaves_the_suites_unloaded():
    src = pathlib.Path(starprob.__file__).resolve().parents[1]
    probe = ("import sys, starprob; "
             "print(sorted({'starprob.suites', 'starprob.io'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
    assert "run_property_suite" in starprob.__all__
    assert starprob.run_property_suite is run_property_suite
    with pytest.raises(AttributeError, match="no attribute 'telepathy'"):
        starprob.telepathy


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_property_suite("telepathy", seed=1, scale=4)


def test_negative_scale_rejected():
    with pytest.raises(FormatError, match="scale >= 0"):
        run_property_suite("rv", seed=1, scale=-3)


@pytest.mark.parametrize("suite_id", ["lattice", "sigma", "prob", "rv"])
def test_clean_suites_pass_at_small_scale(suite_id):
    report = run_property_suite(suite_id, seed=13, scale=8)
    assert report.overall == "pass", report.as_dict()
    assert all(c.failures == 0 for c in report.checks)


def test_lattice_records_the_expected_laws():
    report = run_property_suite("lattice", seed=3, scale=4)
    assert set(by_law(report)) == {
        "lattice.complement_partition",
        "lattice.involution",
        "lattice.dimension_partition",
        "lattice.orthomodular",
        "lattice.de_morgan",
        "lattice.absorption_idempotence",
        "lattice.nondistributive_witness",
        "lattice.classical_boolean",
    }


def test_lattice_finds_nondistributive_witness():
    report = run_property_suite("lattice", seed=3, scale=4)
    rec = by_law(report)["lattice.nondistributive_witness"]
    assert rec.status == "pass"  # the witness was found, as required
    assert rec.failures == 0


def test_similarity_suite_reports_the_known_failures():
    report = run_property_suite("similarity", seed=42, scale=16)
    records = by_law(report)

    # the half-coefficient bound fails on a visible fraction of ray triples
    cont = records["similarity.point_continuity_ray"]
    assert cont.status == "fail"
    assert cont.failures > 0
    assert 0.0 < cont.max_residual <= 1.0 / 16.0 + 1e-9
    assert cont.witnesses  # worst triple is recorded

    # the unit-coefficient variant of the same inequality never fails
    unit = records["similarity.point_continuity_unit_coefficient"]
    assert unit.status == "pass"
    assert unit.failures == 0

    # discrete structures satisfy even the half-coefficient form
    assert records["similarity.point_continuity_discrete"].status == "pass"
    assert records["similarity.triangle_bound_discrete"].status == "pass"

    # everything that is actually a theorem passes
    for law in (
        "similarity.singleton_reduction",
        "similarity.exact_line_formula",
        "similarity.identity_iff_equal",
        "similarity.vantage_bound",
        "similarity.monotone_sampling",
        "similarity.symmetric_estimates",
    ):
        assert records[law].status == "pass", law

    assert report.overall == "fail"


def test_suite_reports_are_deterministic():
    a = run_property_suite("similarity", seed=5, scale=8)
    b = run_property_suite("similarity", seed=5, scale=8)
    assert (suite_report_to_dict("similarity", 5, 8, a)
            == suite_report_to_dict("similarity", 5, 8, b))


def test_wall_time_not_serialized(capsys):
    assert run_command(["suite", "rv", "--seed", "2", "--scale", "4"]) == 0
    wall = capsys.readouterr().out.splitlines()[-1]
    assert wall.startswith("wall time: ") and float(wall[11:-1]) > 0.0
    assert run_command(["suite", "rv", "--seed", "2", "--scale", "4", "--json"]) == 0
    assert "wall" not in capsys.readouterr().out


def test_all_concatenates_every_suite():
    report = run_property_suite("all", seed=7, scale=4)
    laws = set(by_law(report))
    for prefix in ("lattice.", "similarity.", "sigma.", "prob.", "rv."):
        assert any(law.startswith(prefix) for law in laws), prefix


def test_wheel_structure_shape():
    w = wheel_structure()
    assert w.labels == ("r0", "r45", "r90", "r135")
    assert w.matrix.shape == (4, 4)
    assert w.matrix[0, 1] == 0.5 and w.matrix[0, 2] == 0.0
