"""Command-line surface: subcommands, exit codes, deterministic JSON.

Exit code contract:
  0  check passed / value computed
  1  check failed with a certified witness
  2  usage error or unreadable input
  3  sampled evidence only (nothing failed, nothing fully proved)
  4  internal error (an exception that is not a typed SPError)
"""

import json
import math
import pathlib

import pytest

from starprob.cli import run_command

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def run(capsys, *argv):
    code = run_command([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# validate


def test_validate_classical_passes(capsys, fixture_dir):
    code, payload = run_json(capsys, "validate", fixture_dir / "classical4.json")
    assert code == 0
    assert payload["report"]["overall"] == "pass"
    assert payload["report_version"] == 1


def test_validate_broken_table_fails(capsys, fixture_dir):
    code, payload = run_json(capsys, "validate", fixture_dir / "bad3x3.json")
    assert code == 1
    assert payload["report"]["overall"] == "fail"
    assert payload["report"]["verdicts"]["o_projection"]["witness"]["point"] == "b"


def test_validate_ray_is_sampled(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "validate", fixture_dir / "ray2.json", "--samples", 100, "--seed", 7
    )
    assert code == 3
    assert payload["report"]["overall"] == "sampled-pass"


def test_validate_large_explicit_is_sampled(capsys, tmp_path):
    # past 12 points a table is sampled, as a ray model is, without a flag
    path = tmp_path / "eye13.json"
    path.write_text(json.dumps({"kind": "explicit", "matrix": [
        [float(i == j) for j in range(13)] for i in range(13)]}))
    code, payload = run_json(capsys, "validate", path, "--samples", 50)
    assert code == 3
    assert payload["report"]["overall"] == "sampled-pass"
    assert payload["report"]["verdicts"]["boundedness"]["checks"] == 50
    # every sample checks factorization too, so exit 3 never means zero checks
    factorization = payload["report"]["verdicts"]["factorization"]
    assert factorization["status"] == "sampled-pass"
    assert factorization["checks"] > 0


def test_budget_error_is_not_a_bad_literal(capsys, tmp_path):
    # the literals are valid; enumerating a 24-line plane table needs a budget
    ang = [math.pi * i / 24 for i in range(24)]
    table = tmp_path / "plane24.json"
    table.write_text(json.dumps({"kind": "explicit", "matrix": [
        [math.cos(x - y) ** 2 for y in ang] for x in ang]}))
    field = tmp_path / "two_lines.json"
    field.write_text(json.dumps({"generators": [["p0"], ["p1"]]}))
    for argv in (("lattice", "sum", table, '["p0"]', '["p1"]'),
                 ("sigma", "generate", table, field)):
        code = run_command([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: BudgetRequired: explicit model has 24 > 12 points")


def test_validate_missing_file_is_usage_error(capsys):
    code, _ = run(capsys, "validate", "no/such/file.json")
    assert code == 2


@pytest.mark.parametrize("cmd, fixture, rest, message", [
    # zero checks must not read as "sampled evidence only" (exit 3)
    (["validate"], "ray2.json", ["--samples", -1], "samples >= 1"),
    # subspace similarity is exact: it takes no sampler budget at all
    (["sim", "subspace"], "ray3.json",
     ["[[1, 0, 0], [0, 1, 0]]", "[[1, 0, 1], [0, 1, 1]]", "--samples", -5],
     "unrecognized arguments: --samples"),
    (["sim", "subspace"], "ray2.json",
     ["[[1.0, 0.0]]", "[[1.0, 1.0]]", "--refine-top", -1],
     "unrecognized arguments: --refine-top"),
    # a dimension that is no JSON integer is malformed input, not a crash
    (["validate"], "bad_ray_dimension.json", [], "integer 'd'"),
    # so are non-numeric table entries, event indices, values and weights
    (["validate"], "bad_explicit_entries.json", [], "table of numbers"),
    (["prob", "evaluate"], "ray2.json",
     [FIXTURES / "measure_table_bad_key.json", "[[1.0, 0.0]]"],
     "event index 'x' is not an integer"),
    (["rv", "make"], "ray2.json", [FIXTURES / "rv_bad_value.json"],
     "outcome values must be finite numbers"),
    (["sigma", "generate"], "ray2.json", [FIXTURES / "field_bad_cap.json"],
     "'cap' must be an integer"),
    (["prob", "mix"], "ray2.json",
     ["--component", "abc", FIXTURES / "measure_pure_e1.json"],
     "component weight 'abc' is not a number"),
    # NaN slips past every comparison of the convexity test, so weights
    # that are not finite are rejected first, one component or many
    (["prob", "mix"], "ray2.json",
     ["--component", "nan", FIXTURES / "measure_pure_e1.json",
      "--component", "nan", FIXTURES / "measure_mix_axes.json"],
     "weights must be finite"),
    (["prob", "mix"], "ray2.json",
     ["--component", "nan", FIXTURES / "measure_pure_e1.json"],
     "weights must be finite"),
    (["prob", "mix"], "ray2.json",
     ["--component", "inf", FIXTURES / "measure_pure_e1.json",
      "--component", "0.5", FIXTURES / "measure_mix_axes.json"],
     "weights must be finite"),
    (["rv", "preimage"], "classical6.json",
     [FIXTURES / "rv_die6.json", "--values", "2,abc"],
     "is not a comma-separated list of numbers"),
    # a negative seed is rejected before numpy's generator can fail on it
    (["validate"], "ray2.json", ["--seed", -1, "--samples", 5], "seed >= 0"),
    # (sim subspace takes no seed: the flag itself is rejected)
    (["sim", "subspace"], "ray3.json",
     ["[[1, 0, 0], [0, 1, 0]]", "[[1, 0, 0], [0, 1, 1e-7]]", "--seed", -1],
     "unrecognized arguments: --seed"),
    (["prob", "equal"], "ray2.json",
     [FIXTURES / "measure_mix_axes.json", FIXTURES / "measure_mix_diagonals.json",
      "--seed", -1], "seed >= 0"),
    (["prob", "validate"], "ray2.json",
     [FIXTURES / "measure_pure_e1.json", "--seed", -1], "seed >= 0"),
    (["suite", "rv"], None, ["--seed", -1], "seed >= 0"),
    # and so is a negative count of sampled events
    (["prob", "validate"], "ray2.json",
     [FIXTURES / "measure_pure_e1.json", "--event-samples", -1],
     "event samples must be >= 0"),
    (["prob", "equal"], "ray2.json",
     [FIXTURES / "measure_mix_axes.json", FIXTURES / "measure_mix_diagonals.json",
      "--event-samples", -1], "event samples must be >= 0"),
    # a ray vector must be d finite numbers, in literals and in field files
    (["lattice", "sum"], "ray2.json", ["[1]", "[0]"], "expected a vector of 2 numbers"),
    (["lattice", "sum"], "ray2.json", ["[[1, NaN]]"], "non-finite entries"),
    (["sigma", "generate"], "ray2.json", [FIXTURES / "field_bad_vector.json"],
     "expected a vector of 2 numbers"),
    # a measure's field reference is a path or "all"
    (["prob", "validate"], "ray2.json", [FIXTURES / "measure_bad_field.json"],
     "'field' must be a file path"),
    # a discrete point is an integral number or a label: never truncated,
    # never read from a boolean
    (["prob", "pure"], "classical4.json", ["2.7", "[2]"],
     "not a point of a discrete model: 2.7"),
    (["prob", "pure"], "classical4.json", ["true", "[1]"],
     "not a point of a discrete model: True"),
    (["lattice", "sum"], "classical4.json", ["[0.5, 1.9]"],
     "not a point of a discrete model: 0.5"),
    # and a suite's scale is a count
    (["suite", "rv"], None, ["--scale", -3, "--json"], "scale >= 0"),
    # a lattice op takes as many subspaces as it has operands, no fewer or more
    (["lattice", "orthomodular"], "classical4.json", ["[0]"],
     "lattice orthomodular takes 2 subspaces, got 1"),
    (["lattice", "orthomodular"], "classical4.json", ["[0]", "[0, 1]", "[2]"],
     "lattice orthomodular takes 2 subspaces, got 3"),
    (["lattice", "demorgan"], "classical4.json", ["[0]"],
     "lattice demorgan takes 2 subspaces, got 1"),
    (["lattice", "demorgan"], "ray3.json",
     ["[[1, 0, 0]]", "[[0, 1, 0]]", "[[0, 0, 1]]", "--json"],
     "lattice demorgan takes 2 subspaces, got 3"),
    (["lattice", "complement"], "classical4.json", ["[0]", "[1]"],
     "lattice complement takes 1 subspace, got 2"),
], ids=["validate-samples", "sim-samples", "sim-refine-top",
        "validate-structure-dimension", "validate-explicit-entries",
        "prob-measure-key", "rv-value", "sigma-cap", "prob-mix-weight",
        "prob-mix-nan-weights", "prob-mix-one-nan-weight", "prob-mix-inf-weight",
        "rv-preimage-values", "validate-seed", "sim-seed", "prob-equal-seed", "prob-validate-seed",
        "suite-seed", "prob-validate-event-samples", "prob-equal-event-samples",
        "lattice-scalar-vectors", "lattice-nan-vector", "sigma-field-vector",
        "prob-measure-field", "prob-pure-fractional-point", "prob-pure-boolean-point",
        "lattice-fractional-points", "suite-scale", "lattice-orthomodular-one",
        "lattice-orthomodular-three", "lattice-demorgan-one", "lattice-demorgan-three",
        "lattice-complement-two"])
def test_bad_sampler_budget_is_usage_error(capsys, fixture_dir, cmd, fixture,
                                           rest, message):
    files = [fixture_dir / fixture] if fixture else []
    code = run_command([str(a) for a in [*cmd, *files, *rest]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


# ---------------------------------------------------------------------------
# lattice


def test_lattice_sum_of_lines(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "lattice", "sum", fixture_dir / "ray2.json",
        "[[1.0, 0.0]]", "[[0.0, 1.0]]",
    )
    assert code == 0
    assert payload["dim"] == 2


def test_internal_error_is_not_a_verdict(capsys, fixture_dir, monkeypatch):
    """A stray exception exits 4, never 1 (which needs a witness)."""
    from starprob import lattice

    def broken_join(*operands):
        raise RuntimeError("join is broken")

    monkeypatch.setattr(lattice, "join", broken_join)
    code = run_command(["lattice", "sum", str(fixture_dir / "ray2.json"),
                        "[[1.0, 0.0]]", "[[0.0, 1.0]]"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: join is broken\n"


def test_lattice_complement(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "lattice", "complement", fixture_dir / "ray2.json", "[[1.0, 0.0]]"
    )
    assert code == 0
    assert payload["subspace"] == [[0.0, 1.0]]


def test_lattice_orthomodular_check(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "lattice", "orthomodular", fixture_dir / "ray3.json",
        "[[1.0, 0.0, 0.0]]", "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]",
    )
    assert code == 0
    assert payload["holds"] is True


def test_lattice_demorgan_check(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "lattice", "demorgan", fixture_dir / "ray3.json",
        "[[1.0, 0.0, 0.0]]", "[[0.0, 1.0, 1.0]]",
    )
    assert code == 0
    assert payload["holds"] is True


def test_lattice_classical_labels(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "lattice", "meet", fixture_dir / "classical4.json", "[0, 1]", "[1, 2]"
    )
    assert code == 0
    assert payload["subspace"] == [1]


# ---------------------------------------------------------------------------
# sim


def test_sim_tau(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "sim", "tau", fixture_dir / "ray3.json",
        "[1.0, 1.0, 0.0]", "[[1.0, 0.0, 0.0]]", "[[0.0, 1.0, 0.0]]",
    )
    assert code == 0
    assert payload["value"] == 0.0


def test_sim_subspace_line_pair(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "sim", "subspace", fixture_dir / "ray2.json",
        "[[1.0, 0.0]]", "[[1.0, 1.0]]",
    )
    assert code == 0
    assert payload["estimate"]["certainty"] == "exact"
    assert payload["estimate"]["value"] == pytest.approx(0.5, abs=1e-12)


def test_sim_subspace_planes_are_exact(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "sim", "subspace", fixture_dir / "ray3.json",
        "[[1, 0, 0], [0, 1, 0]]", "[[1, 0, 1], [0, 1, 1]]",
    )
    assert code == 0
    assert payload["estimate"]["certainty"] == "exact"
    assert payload["estimate"]["value"] == 0.0
    assert len(payload["estimate"]["witness"]) == 3


def test_sim_continuity_counterexample(capsys, fixture_dir):
    # the pinned half-coefficient failure: residual -1/16
    import math

    g = math.asin(0.25)
    za = g / 2.0 - math.pi / 4.0
    code, payload = run_json(
        capsys, "sim", "continuity", fixture_dir / "ray2.json",
        "[1.0, 0.0]",
        json.dumps([math.cos(g), math.sin(g)]),
        json.dumps([math.cos(za), math.sin(za)]),
    )
    assert code == 1
    assert payload["holds"] is False
    assert payload["residual"] == pytest.approx(-0.0625, abs=1e-9)


# ---------------------------------------------------------------------------
# sigma


def test_sigma_generate_counts_events(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "sigma", "generate", fixture_dir / "ray2.json",
        fixture_dir / "field_ray2_twolines.json",
    )
    assert code == 0
    assert payload["size"] == 6
    assert len(payload["field"]["events"]) == 6


def test_sigma_atoms(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "sigma", "atoms", fixture_dir / "classical4.json",
        fixture_dir / "field_classical4_singletons.json",
    )
    assert code == 0
    assert payload["atoms"] == [[0], [1], [2], [3]]


def test_sigma_boolean_classification(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "sigma", "boolean", fixture_dir / "explicit4.json",
        fixture_dir / "field_explicit4_twopoints.json",
    )
    assert code == 0  # the question was answered; "no" is a valid answer
    assert payload["boolean"] is False
    assert payload["witness"] == [1, 2, 3]  # event indices: r0, r45, r90


def test_sigma_cap_exceeded_is_usage_error(capsys, fixture_dir):
    code, _ = run(
        capsys, "sigma", "generate", fixture_dir / "ray2.json",
        fixture_dir / "field_ray2_twolines.json", "--cap", 3,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# prob


def test_prob_pure_evaluates_one_event(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "prob", "pure", fixture_dir / "ray2.json",
        "[1.0, 0.0]", "[[1.0, 1.0]]",
    )
    assert code == 0
    assert payload["value"] == pytest.approx(0.5, abs=1e-12)


def test_prob_validate_rejects_bad_table(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "prob", "validate", fixture_dir / "ray2.json",
        fixture_dir / "measure_table_bad_additivity.json",
    )
    assert code == 1
    assert payload["report"]["overall"] == "fail-certified"
    bad = next(c for c in payload["report"]["checks"]
               if c["name"] == "orthogonal_additivity")
    assert bad["witness"]["residual"] == pytest.approx(0.2, abs=1e-12)


def test_prob_equal_mixtures(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "prob", "equal", fixture_dir / "ray2.json",
        fixture_dir / "measure_mix_axes.json",
        fixture_dir / "measure_mix_diagonals.json",
    )
    assert code == 0
    assert payload["equal"] is True


def test_prob_evaluate_one_event(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "prob", "evaluate", fixture_dir / "ray2.json",
        fixture_dir / "measure_mix_axes.json", "[[1.0, 1.0]]",
    )
    assert code == 0
    assert payload["value"] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# rv


def test_rv_eval_defined(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "rv", "eval", fixture_dir / "ray2.json",
        fixture_dir / "rv_pm45.json", "[1.0, 1.0]",
    )
    assert code == 0
    assert payload["defined"] is True
    assert payload["value"] == 1.0


def test_rv_eval_undefined_is_not_an_error(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "rv", "eval", fixture_dir / "ray2.json",
        fixture_dir / "rv_pm45.json", "[1.0, 0.0]",
    )
    assert code == 0
    assert payload["defined"] is False
    assert payload["value"] is None


def test_rv_expect_die(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "rv", "expect", fixture_dir / "classical6.json",
        fixture_dir / "rv_die6.json", fixture_dir / "measure_uniform6.json",
    )
    assert code == 0
    assert payload["value"] == 3.5


def test_rv_preimage(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "rv", "preimage", fixture_dir / "classical6.json",
        fixture_dir / "rv_die6.json", "--values", "2,4,6",
    )
    assert code == 0
    assert payload["subspace"] == [1, 3, 5]
    assert payload["dim"] == 3


def test_rv_compatible(capsys, fixture_dir):
    code, payload = run_json(
        capsys, "rv", "compatible", fixture_dir / "ray2.json",
        fixture_dir / "rv_pm45.json", fixture_dir / "rv_axis.json",
    )
    assert code == 0
    assert payload["compatible"] is False


# ---------------------------------------------------------------------------
# suite + determinism


def test_suite_small_lattice_passes(capsys):
    code, payload = run_json(capsys, "suite", "lattice", "--seed", 11, "--scale", 8)
    assert code == 0
    assert payload["report"]["overall"] == "pass"
    assert payload["report"]["seed"] == 11


def test_suite_rejects_unknown_id(capsys):
    code, _ = run(capsys, "suite", "telepathy")
    assert code == 2


def test_suite_json_is_byte_identical(capsys):
    _, first = run(capsys, "suite", "sigma", "--seed", 42, "--scale", 8, "--json")
    _, second = run(capsys, "suite", "sigma", "--seed", 42, "--scale", 8, "--json")
    assert first == second


def test_no_arguments_is_usage_error(capsys):
    assert run_command([]) == 2


def test_text_mode_prints_lines_not_json(capsys, fixture_dir):
    code, out = run(capsys, "validate", fixture_dir / "classical4.json")
    assert code == 0
    assert "pass" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
