"""Acceptance criteria, one test per criterion.

Each test appends exactly one PASS/FAIL line to the shared acceptance log
(echoed by the terminal-summary hook in conftest.py) before asserting, so
the final report always carries one line per criterion.

Criterion 3 is known to fail in part: its last clause demands that the
half-coefficient pointwise continuity bound hold over ten thousand seeded
ray triples, and that bound is simply not a theorem of the ray model (the
extremal vantage gap between two lines at angle g equals sin(g), which
exceeds (1/2)sin(g) + sin(g)^2 whenever sin(g) < 1/2).  The test asserts
the faithful statement and fails honestly rather than weakening it; the
companion unit-coefficient check passing on the very same triples shows
the failure is analytic, not numerical.
"""

import hashlib
import itertools
import json
import math
import pathlib
import time

import numpy as np
import pytest

from starprob import (
    SPStructure,
    atoms,
    check_orthomodular,
    distributes,
    eval_at_point,
    expectation,
    from_basis,
    from_points,
    from_span,
    generate_sigma_star,
    is_boolean,
    join,
    measures_equal,
    meet,
    mix,
    ortho_complement,
    pure_state,
    run_property_suite,
    validate_measure,
    validate_sigma_star,
    validate_sp_axioms,
)
from starprob.axioms import FAIL, PASS, SAMPLED_PASS, ValidationBudget
from starprob.cli import run_command
from starprob.io import load_field, load_measure, load_rv, load_structure
from starprob.measures import evaluate
from starprob.structures import as_point, similarity as point_sim

SEED = 42
SCALE = 200
# sha256 of `suite all --seed 42 --json`; a deliberate output change rewrites it
SUITE_ALL_SHA256 = pathlib.Path(__file__).resolve().parent / "golden" / "suite_all_seed42.sha256"


def record(log, number, title, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    log.append(f"{verdict}  criterion {number:02d}: {title} ({detail})")
    return ok


def laws(report):
    return {c.law: c for c in report.checks}


# ---------------------------------------------------------------------------
# 1. lattice laws at scale


def test_c01_lattice_laws_at_scale(acceptance_log):
    t0 = time.perf_counter()
    report = run_property_suite("lattice", seed=SEED, scale=SCALE)
    wall = time.perf_counter() - t0
    worst = max(c.max_residual for c in report.checks)
    failures = sum(c.failures for c in report.checks)
    ok = report.overall == "pass" and failures == 0 and worst <= 1e-9 and wall < 10.0
    record(
        acceptance_log, 1, "lattice laws on seeded subspaces d=2..5 + classical",
        ok, f"{sum(c.trials for c in report.checks)} trials, "
            f"max residual {worst:.2e}, {wall:.1f}s",
    )
    assert report.overall == "pass"
    assert failures == 0
    assert worst <= 1e-9
    assert wall < 10.0, f"lattice suite took {wall:.1f}s, budget is 10s"


# ---------------------------------------------------------------------------
# 2. non-distributivity witness with orthomodularity intact


def test_c02_nondistributive_yet_orthomodular(acceptance_log):
    st = SPStructure.ray(2)
    a = from_span(st, [[1.0, 0.0]])
    b = from_span(st, [[1.0, 1.0]])
    c = from_span(st, [[0.0, 1.0]])
    broke = not distributes(a, b, c)

    # orthomodularity is untouched on the same structure: every nested
    # pair built from these lines recombines exactly
    plane = from_span(st, [[1.0, 0.0], [0.0, 1.0]])
    om = all(
        check_orthomodular(x, y)
        for x in (a, b, c)
        for y in (join(x, b), join(x, c), plane)
    )
    suite_rec = laws(run_property_suite("lattice", seed=SEED, scale=8))
    witness_found = suite_rec["lattice.nondistributive_witness"].status == "pass"

    ok = broke and om and witness_found
    record(
        acceptance_log, 2, "three coplanar lines break distributivity",
        ok, "meet(a, b+c) = a but meet(a,b)+meet(a,c) = 0; orthomodular law holds",
    )
    assert broke
    assert om
    assert witness_found


# ---------------------------------------------------------------------------
# 3. similarity theorems, including the bound that is not one


def test_c03_similarity_theorems_and_continuity(acceptance_log):
    t0 = time.perf_counter()
    report = run_property_suite("similarity", seed=SEED, scale=SCALE)
    wall = time.perf_counter() - t0
    rec = laws(report)

    # clause a: the infimum bound s(A,B) <= tau(x,A,B) holds everywhere
    clause_a = rec["similarity.vantage_bound"].status == "pass"
    # clause b: exhaustive discrete coverage of the triangle-style and
    # pointwise bounds (every event triple of the classical 4-point
    # powerset and of the four-line wheel)
    clause_b = (
        rec["similarity.triangle_bound_discrete"].status == "pass"
        and rec["similarity.point_continuity_discrete"].status == "pass"
        and rec["similarity.identity_iff_equal"].status == "pass"
    )
    # clause c: sampled line-pair similarity within 1e-3 of the squared
    # cosine, never below it beyond 1e-9
    clause_c = rec["similarity.exact_line_formula"].status == "pass"

    cont = rec["similarity.point_continuity_ray"]
    unit = rec["similarity.point_continuity_unit_coefficient"]
    clause_d = cont.failures == 0

    ok = clause_a and clause_b and clause_c and clause_d and wall < 20.0
    record(
        acceptance_log, 3, "similarity bounds (exact, exhaustive, sampled rays)",
        ok,
        f"vantage/exhaustive/line-formula clauses "
        f"{'pass' if (clause_a and clause_b and clause_c) else 'FAIL'}; "
        f"half-coefficient continuity on rays: {cont.failures}/{cont.trials} "
        f"violations, worst excess {cont.max_residual:.3g}; {wall:.1f}s",
    )

    assert clause_a, "infimum bound failed"
    assert clause_b, "exhaustive discrete checks failed"
    assert clause_c, "sampled line similarity strayed from the squared cosine"
    assert wall < 20.0, f"similarity suite took {wall:.1f}s, budget is 20s"
    assert unit.status == "pass", (
        "the unit-coefficient continuity bound should hold on every triple"
    )
    assert clause_d, (
        f"the half-coefficient pointwise continuity bound\n"
        f"    s(z,x) <= s(z,y) + (1/2)sqrt(1 - s(x,y)) + (1 - s(x,y))\n"
        f"is not a theorem of the ray model: {cont.failures} of {cont.trials} "
        f"seeded triples violate it (worst excess {cont.max_residual:.4g}, "
        f"witness {cont.witnesses[0] if cont.witnesses else None}).\n"
        f"The extremal vantage gap between two lines at angle g is exactly "
        f"sin(g) = sqrt(1 - s(x,y)), which exceeds the claimed "
        f"(1/2)sin(g) + sin(g)^2 whenever sin(g) < 1/2; the worst excess is "
        f"1/16 at sin(g) = 1/4.  The unit-coefficient form passes on the "
        f"same triples (law similarity.point_continuity_unit_coefficient), "
        f"so this is an analytic gap in the stated constant, not a sampler "
        f"artifact.  Deliberately left failing rather than weakening the "
        f"assertion."
    )


# ---------------------------------------------------------------------------
# 4. field generation against the powerset oracle


def test_c04_field_generation(acceptance_log):
    c4 = SPStructure.classical(4)
    fld = generate_sigma_star(c4, [[0], [1], [2], [3]])
    powerset = {
        frozenset(s) for k in range(5) for s in itertools.combinations(range(4), k)
    }
    classical_ok = (
        len(fld.events) == 16
        and {e.points for e in fld.events} == powerset
        and is_boolean(fld)
        and len(atoms(fld)) == 4
    )

    r2 = SPStructure.ray(2)
    line_fld = generate_sigma_star(r2, [[[1.0, 0.0]]])
    ray_ok = len(line_fld.events) == 4

    regen = generate_sigma_star(c4, list(fld.events))
    idempotent = len(regen.events) == 16 and all(
        a == b for a, b in zip(regen.events, fld.events)
    )

    closure_ok = all(
        meet(a, b) in fld for a in fld.events for b in fld.events
    ) and all(meet(a, b) in line_fld for a in line_fld.events for b in line_fld.events)

    ok = classical_ok and ray_ok and idempotent and closure_ok
    record(
        acceptance_log, 4, "field generation (powerset oracle, idempotence, meets)",
        ok, f"classical 16 events / 4 atoms, single line 4 events",
    )
    assert classical_ok
    assert ray_ok
    assert idempotent
    assert closure_ok


# ---------------------------------------------------------------------------
# 5. measure axioms


def test_c05_measure_axioms(acceptance_log, fixture_dir):
    c4 = SPStructure.classical(4)
    r2 = SPStructure.ray(2)
    w = load_structure(fixture_dir / "explicit4.json")

    fields = [
        (c4, generate_sigma_star(c4, [[0], [1], [2], [3]]), [0, 1, 2, 3]),
        (c4, generate_sigma_star(c4, [[0], [1]]), [0, 2]),
        (r2, load_field(r2, fixture_dir / "field_ray2_line.json"),
         [[1.0, 0.0], [0.6, 0.8]]),
        (r2, load_field(r2, fixture_dir / "field_ray2_twolines.json"),
         [[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]),
        (w, load_field(w, fixture_dir / "field_explicit4_twopoints.json"), [0, 1, 2]),
    ]
    pure_ok = True
    for st, fld, points in fields:
        for x in points:
            report = validate_measure(pure_state(st, x, fld))
            pure_ok = pure_ok and report.overall == PASS

    bad = load_measure(r2, fixture_dir / "measure_table_bad_additivity.json")
    bad_report = validate_measure(bad)
    bad_check = bad_report.check("orthogonal_additivity")
    rejected = (
        bad_report.overall == "fail-certified"
        and bad_check.witness is not None
        and abs(bad_check.witness["residual"] - 0.2) <= 1e-12
    )

    fld = load_field(r2, fixture_dir / "field_ray2_twolines.json")
    p = pure_state(r2, [1.0, 0.0], fld)
    q = pure_state(r2, [1.0, 2.0], fld)
    affine = all(
        evaluate(mix([(wgt, p), (1.0 - wgt, q)]), e)
        == wgt * evaluate(p, e) + (1.0 - wgt) * evaluate(q, e)
        for wgt in (0.0, 0.25, 0.5, 1.0 / 3.0, 1.0)
        for e in fld.events
    )

    ok = pure_ok and rejected and affine
    record(
        acceptance_log, 5, "measure axioms (pure states, violator, affinity)",
        ok, "pure states pass on 5 fields; 0.6+0.6 table rejected with witness",
    )
    assert pure_ok
    assert rejected
    assert affine


# ---------------------------------------------------------------------------
# 6. mixtures do not remember their ingredients


def test_c06_mixture_identity(acceptance_log, fixture_dir):
    r2 = SPStructure.ray(2)
    axes = load_measure(r2, fixture_dir / "measure_mix_axes.json")
    diags = load_measure(r2, fixture_dir / "measure_mix_diagonals.json")

    fld = load_field(r2, fixture_dir / "field_ray2_twolines.json")
    worst_field = max(
        abs(evaluate(axes, e) - evaluate(diags, e)) for e in fld.events
    )

    rng = np.random.default_rng(SEED)
    worst_line = 0.0
    for _ in range(1000):
        ln = from_basis(r2, [as_point(r2, rng.standard_normal(2))])
        worst_line = max(worst_line, abs(evaluate(axes, ln) - evaluate(diags, ln)))

    agreed = measures_equal(axes, diags, tol=1e-12)
    ok = worst_field <= 1e-12 and worst_line <= 1e-12 and agreed
    record(
        acceptance_log, 6, "axis mixture equals diagonal mixture",
        ok, f"worst gap: field {worst_field:.2e}, 1000 lines {worst_line:.2e}",
    )
    assert worst_field <= 1e-12
    assert worst_line <= 1e-12
    assert agreed


# ---------------------------------------------------------------------------
# 7. expectation identity


def test_c07_expectation_identity(acceptance_log, fixture_dir):
    report = run_property_suite("rv", seed=SEED, scale=SCALE)
    rec = laws(report)
    ident = rec["rv.expectation_identity"]
    seeded_ok = (
        ident.status == "pass"
        and ident.trials >= 500
        and ident.max_residual <= 1e-9
    )

    c6 = SPStructure.classical(6)
    die = load_rv(c6, fixture_dir / "rv_die6.json")
    m = load_measure(c6, fixture_dir / "measure_uniform6.json")
    ex = expectation(die, m)
    weights = [wgt for wgt, _ in m.components]
    oracle = sum(v * wgt for v, wgt in zip((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), weights))
    die_ok = ex.value == 3.5 and ex.value == oracle

    ok = seeded_ok and die_ok and report.overall == "pass"
    record(
        acceptance_log, 7, "expectation identity + classical die",
        ok, f"{ident.trials} seeded cases, max residual {ident.max_residual:.2e}, "
            f"E[die] = {ex.value}",
    )
    assert seeded_ok
    assert die_ok
    assert report.overall == "pass"


# ---------------------------------------------------------------------------
# 8. the axiom validator


def test_c08_axiom_validator(acceptance_log, fixture_dir):
    classical_ok = validate_sp_axioms(SPStructure.classical(4)).overall == PASS

    bad = load_structure(fixture_dir / "bad3x3.json")
    bad_report = validate_sp_axioms(bad)
    witness = bad_report.check("o_projection").witness
    # re-verify the witness exhaustively: 0 < s(b, {a}) < 1 and no point
    # of the table is orthogonal to `a`, so no orthogonal witness exists
    b_idx, a_idx = bad.label_index("b"), bad.label_index("a")
    s_ba = float(bad.matrix[b_idx, a_idx])
    no_candidate = all(
        bad.matrix[y, a_idx] > 1e-9 for y in range(3)
    )
    witness_ok = (
        bad_report.overall == FAIL
        and witness == {"point": "b", "ortho_set": ["a"], "similarity_sum": 0.5}
        and 1e-9 < s_ba < 1.0 - 1e-9
        and no_candidate
    )

    ray_reports = [
        validate_sp_axioms(SPStructure.ray(d), ValidationBudget(samples=300, seed=SEED))
        for d in (2, 3)
    ]
    ray_ok = all(r.overall == SAMPLED_PASS for r in ray_reports) and all(
        c.max_residual <= 1e-9 for r in ray_reports for c in r.checks
    )

    ok = classical_ok and witness_ok and ray_ok
    record(
        acceptance_log, 8, "axiom validator (pass / witness / sampled)",
        ok, "classical pass, 3-point table caught with exhaustive witness, "
            "rays sampled-pass",
    )
    assert classical_ok
    assert witness_ok
    assert ray_ok


# ---------------------------------------------------------------------------
# 9. classical structures reduce to ordinary probability


def test_c09_classical_reduction(acceptance_log):
    c4 = SPStructure.classical(4)
    universe = frozenset(range(4))
    all_subsets = [
        frozenset(s) for k in range(5) for s in itertools.combinations(range(4), k)
    ]

    # sum = union, meet = intersection, complement = set complement
    ops_ok = True
    for sa in all_subsets:
        for sb in all_subsets:
            a, b = from_points(c4, sa), from_points(c4, sb)
            if not (sa & sb):  # orthogonal sum is only defined for disjoint sets
                ops_ok = ops_ok and join(a, b).points == sa | sb
            ops_ok = ops_ok and meet(a, b).points == sa & sb
        ops_ok = ops_ok and ortho_complement(from_points(c4, sa)).points == universe - sa

    # generated event family == the classically generated sigma-field
    def classical_sigma(n, gens):
        family = {frozenset(), frozenset(range(n))} | {frozenset(g) for g in gens}
        grown = True
        while grown:
            grown = False
            for s in list(family):
                for t in list(family):
                    for candidate in (frozenset(range(n)) - s, s | t, s & t):
                        if candidate not in family:
                            family.add(candidate)
                            grown = True
        return family

    for gens in ([[0], [1], [2], [3]], [[0], [1]], [[0, 1]], [[0, 1, 2]]):
        fld = generate_sigma_star(c4, gens)
        field_ok = {e.points for e in fld.events} == classical_sigma(4, gens)
        ops_ok = ops_ok and field_ok and is_boolean(fld) and validate_sigma_star(fld).ok

    # a measure passing the generalized axioms is an ordinary probability
    # measure: additive over every disjoint pair, normalized
    fld = generate_sigma_star(c4, [[0], [1], [2], [3]])
    m = mix(
        [(0.1, pure_state(c4, 0, fld)), (0.2, pure_state(c4, 1, fld)),
         (0.3, pure_state(c4, 2, fld)), (0.4, pure_state(c4, 3, fld))]
    )
    meas_ok = validate_measure(m).overall == PASS
    for sa in all_subsets:
        for sb in all_subsets:
            if not (sa & sb):
                lhs = evaluate(m, from_points(c4, sa | sb))
                rhs = evaluate(m, from_points(c4, sa)) + evaluate(m, from_points(c4, sb))
                meas_ok = meas_ok and abs(lhs - rhs) <= 1e-12

    # every classical random variable is total
    from starprob import make_rv

    rv = make_rv(c4, [(1.0, from_points(c4, [0, 2])), (-1.0, from_points(c4, [1, 3]))])
    total_ok = all(eval_at_point(rv, i) in (1.0, -1.0) for i in range(4))

    ok = ops_ok and meas_ok and total_ok
    record(
        acceptance_log, 9, "classical reduction end-to-end",
        ok, "set algebra, sigma-field oracle, additive measures, total RVs",
    )
    assert ops_ok
    assert meas_ok
    assert total_ok


# ---------------------------------------------------------------------------
# 10. determinism and the global budget


def test_c10_deterministic_suite(acceptance_log, capsys):
    t0 = time.perf_counter()
    code_a = run_command(["suite", "all", "--seed", "42", "--json"])
    wall = time.perf_counter() - t0
    out_a = capsys.readouterr().out
    code_b = run_command(["suite", "all", "--seed", "42", "--json"])
    out_b = capsys.readouterr().out

    identical = out_a == out_b and code_a == code_b
    digest = hashlib.sha256(out_a.encode()).hexdigest()
    pinned = digest == SUITE_ALL_SHA256.read_text().strip()
    payload = json.loads(out_a)
    ok = identical and pinned and wall < 60.0 and payload["report_version"] == 1
    record(
        acceptance_log, 10, "suite all --seed 42 is byte-identical",
        ok, f"{len(out_a)} bytes, sha256 {digest[:12]}, one run {wall:.1f}s "
            "(budget 60s)",
    )
    assert identical
    assert pinned, f"suite all --seed 42 --json digest {digest} is not the pinned one"
    assert wall < 60.0, f"full suite took {wall:.1f}s, budget is 60s"
