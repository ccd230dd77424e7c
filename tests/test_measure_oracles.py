"""The probability layer against the code paths it replaced.

The superseded implementations live here as oracles:

* ``old_pure_value`` is the pure-state branch of ``evaluate``: ``s(x, B)``
  read straight off the point.  A pure state is now the mixture of one
  point with weight one and must give the same float, bit for bit.
* ``old_flatten`` is the branch of ``mix`` that copied a pure component's
  weight unchanged; the one comprehension that replaced it multiplies by
  the weight one and must give the same weights.
* ``old_validate_measure`` evaluates an event again every time a check
  reads it.  The library evaluates each event once and must give the same
  report.
* ``old_continuity_check`` computes ``s(A, B)`` for both orders of every
  event pair.  The library computes an exact value once per unordered pair
  and must give the same verdict and the same first witness.
* ``old_additivity_check`` is also the oracle for ``_carrier_additivity``,
  which checks every carrier of an explicit table on rows of member points
  and must give the same verdict and witness, bit for bit; and
  ``old_validate_measure`` on a field of every carrier is the oracle for
  the field-free report of a point-backed explicit measure, whose
  continuity scan computes only the pairs that can fail.
* A fresh copy of a field, whose similarity table is empty, is the oracle
  for the same field after other measures filled its table: every report
  must be the same, byte for byte.
* ``old_seeded_events`` is the seeded domain that decided field-free
  measures before the closed form of ``measure_events``:
  ``old_first_difference`` compares two measures on it and
  ``old_seeded_continuity`` checks the continuity bound on it.  Wherever
  the seeded route finds a difference or a certified continuity failure,
  the closed form must find one at least as large.
* ``old_continuity_verdict``, ``old_triangle_verdict`` and
  ``old_identity_verdict`` are the hand-written interval ladders that the
  measure validator and ``check_similarity_theorems`` carried before every
  bound went through ``compare_leq``; ``old_identity_tally`` is the ladder
  the property suite carried.  The ladders also took sampled estimates,
  which only bound a similarity from above; no library path makes one any
  more, so every bound compares two exact floats.  They are compared with
  that rule over a grid of exact and tolerance-boundary values.

The fields are the bundled fixtures, the wheel's, the ones the property
suites build and the shapes of the benchmark's field workload, on all three
models.
"""

import dataclasses
import itertools
import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest

from starprob import SPStructure, from_span, generate_sigma_star, lattice
from starprob import measures as meas
from starprob import sigma as sig
from starprob import similarity as sim
from starprob.errors import EventNotInField
from starprob.cli import run_command
from starprob.io import load_field, load_structure, measure_report_to_dict
from starprob.lattice import similarity_to_subspace
from starprob.measures import (
    evaluate,
    first_difference,
    mix,
    pure_state,
    table_measure,
    validate_measure,
)
from starprob.similarity import (
    EXACT,
    SimilarityEstimate,
    compare_leq,
    continuity_rhs,
    ordered_similarities,
    subspace_similarity,
)
from starprob.structures import (
    FAIL_CERTIFIED,
    PASS,
    TOL_EQ,
    TOL_UNIT,
    Check,
    Report,
    as_point,
)
from starprob.suites import run_property_suite

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

BUNDLED = [
    ("classical4.json", "field_classical4_singletons.json"),
    ("explicit4.json", "field_explicit4_twopoints.json"),
    ("ray2.json", "field_ray2_line.json"),
    ("ray2.json", "field_ray2_twolines.json"),
]


# ---------------------------------------------------------------------------
# oracles


def old_pure_value(st, x, event):
    return similarity_to_subspace(as_point(st, x), event)


def old_flatten(weighted_points):
    return tuple((float(w), x) for w, x in weighted_points)


def old_additivity_check(p, events):
    worst = 0.0
    witness = None
    nonzero = [e for e in events if not e.is_empty]
    for i, a in enumerate(nonzero):
        for b in nonzero[i + 1:]:
            if not lattice.is_orthogonal(a, b):
                continue
            try:
                combined = evaluate(p, lattice.join(a, b))
            except EventNotInField:
                continue
            res = abs(combined - (evaluate(p, a) + evaluate(p, b)))
            if res > worst:
                worst = res
                witness = {"events": [a.to_literal(), b.to_literal()],
                           "residual": res}
    seen = set()
    for start in range(len(nonzero)):
        picked = [start]
        for j, cand in enumerate(nonzero):
            if j != start and all(lattice.is_orthogonal(cand, nonzero[k])
                                  for k in picked):
                picked.append(j)
        key = tuple(sorted(picked))
        if key in seen or len(picked) < 2:
            continue
        seen.add(key)
        family = [nonzero[k] for k in picked]
        try:
            total = evaluate(p, lattice.join(*family))
        except EventNotInField:
            continue
        res = abs(total - sum(evaluate(p, m) for m in family))
        if res > worst:
            worst = res
            witness = {"family_size": len(family), "residual": res}
    return meas._exact_check("orthogonal_additivity", worst, witness)


INCONCLUSIVE = "inconclusive"  # the verdict the ladders gave a sampled estimate


def old_interval(est):
    """Bounds on the true value implied by an estimate: a sampled value
    only bounds the infimum from above."""
    return (est.value, est.value) if est.is_exact else (0.0, est.value)


def old_continuity_rhs(base, link):
    """``base + sqrt(1 - s)/2 + (1 - s)`` over the interval of the link."""
    lo, hi = old_interval(link)
    return (base + 0.5 * math.sqrt(max(0.0, 1.0 - hi)) + (1.0 - hi),
            base + 0.5 * math.sqrt(max(0.0, 1.0 - lo)) + (1.0 - lo))


def old_continuity_verdict(pa, pb, s_ab):
    lo, _ = old_continuity_rhs(pb, s_ab)
    if pa <= lo + TOL_EQ:
        return PASS
    if s_ab.is_exact:
        return FAIL_CERTIFIED
    return INCONCLUSIVE


def old_continuity_check(p, events):
    uncertified = None
    for a in events:
        pa = evaluate(p, a)
        for b in events:
            if a is b:
                continue
            s_ab = subspace_similarity(a, b)
            verdict = old_continuity_verdict(pa, evaluate(p, b), s_ab)
            if verdict == FAIL_CERTIFIED:
                return Check("continuity_bound", FAIL_CERTIFIED, witnesses=[{
                    "events": [a.to_literal(), b.to_literal()],
                    "p_A": pa, "p_B": evaluate(p, b),
                    "similarity": s_ab.value,
                    "bound": old_continuity_rhs(evaluate(p, b), s_ab)[0]}])
            if verdict == INCONCLUSIVE and uncertified is None:
                uncertified = Check("continuity_bound", INCONCLUSIVE, witnesses=[{
                    "events": [a.to_literal(), b.to_literal()],
                    "note": "sampled similarity cannot certify"}])
    return uncertified or Check("continuity_bound")


def old_validate_measure(p, fld):
    st = p.structure
    events = list(fld.events)
    v_empty = evaluate(p, lattice.empty(st))
    v_full = evaluate(p, lattice.full(st))
    return Report([
        meas._exact_check("empty_event_zero", abs(v_empty), {"value": v_empty}),
        meas._exact_check("full_event_one", abs(v_full - 1.0), {"value": v_full}),
        old_additivity_check(p, events),
        old_continuity_check(p, events),
    ])


def old_seeded_events(st, samples, seed):
    rng = np.random.default_rng(seed)
    return [lattice.empty(st), lattice.full(st)] + [
        from_span(st, st.random_span(rng)) for _ in range(samples)]


def old_first_difference(p, q, samples, seed):
    return next((e for e in old_seeded_events(p.structure, samples, seed)
                 if not abs(evaluate(p, e) - evaluate(q, e)) <= TOL_UNIT), None)


def old_seeded_continuity(p, samples, seed):
    events = old_seeded_events(p.structure, samples, seed)
    return meas._continuity_check(events, [evaluate(p, e) for e in events])


def old_triangle_verdict(s_ab, s_ac, s_bc):
    rhs = old_continuity_rhs(old_interval(s_ac)[0], s_bc)
    rhs_hi = old_continuity_rhs(old_interval(s_ac)[1], s_bc)[1]
    llo, lhi = old_interval(s_ab)
    if lhi <= rhs[0] + TOL_EQ:
        return PASS
    if llo > rhs_hi + TOL_EQ:
        return FAIL_CERTIFIED
    if s_ab.is_exact and s_ac.is_exact and s_bc.is_exact:
        return PASS if s_ab.value <= rhs_hi + TOL_EQ else FAIL_CERTIFIED
    return INCONCLUSIVE


def old_identity_verdict(equal, s_ab):
    lo, hi = old_interval(s_ab)
    if equal:
        return PASS if abs(s_ab.value - 1.0) <= TOL_EQ else FAIL_CERTIFIED
    if hi < 1.0 - TOL_EQ:
        return PASS
    if s_ab.is_exact:
        return FAIL_CERTIFIED
    return INCONCLUSIVE


def old_identity_tally(check, est):
    """The property suite's record of one distinct pair's identity trial.
    Its sampled branches counted a trial, and an uncertified one when the
    estimate reached ``1 - TOL_EQ``; no exact estimate takes them."""
    if est.is_exact:
        check.hit(est.value < 1.0 - TOL_EQ, witness={"value": est.value})
    else:
        raise AssertionError("a sampled estimate has no exact record")


# ---------------------------------------------------------------------------
# fields and points


def bundled_fields():
    out = []
    for structure_file, field_file in BUNDLED:
        st = load_structure(FIXTURES / structure_file)
        out.append(load_field(st, FIXTURES / field_file))
    return out


def plane_table(k):
    """Similarity table of ``k`` lines of the plane spaced ``180/k`` degrees."""
    ang = [math.pi * i / k for i in range(k)]
    return [[math.cos(x - y) ** 2 for y in ang] for x in ang]


def plane_fields():
    """Fields of two lines of a plane table, as the benchmark builds them."""
    return [generate_sigma_star(SPStructure.explicit(plane_table(n)), [[first], [second]])
            for n, first, second in ((4, 0, 1), (6, 2, 3), (6, 1, 5), (12, 0, 1), (12, 3, 8))]


def partition_fields():
    """Fields of classical partitions into blocks, as the benchmark builds them."""
    shapes = [(3, [[1], [0, 2]]), (4, [[0, 3], [1, 2]]), (5, [[4], [0, 2], [1, 3]]),
              (6, [[5, 0], [3], [1, 2], [4]])]
    return [generate_sigma_star(SPStructure.classical(n), blocks) for n, blocks in shapes]


@pytest.fixture(scope="module")
def fields(wheel):
    built = []

    def recording(*args, **kwargs):
        built.append(generate_sigma_star(*args, **kwargs))
        return built[-1]

    with mock.patch.object(sig, "generate_sigma_star", recording):
        for suite_id in ("sigma", "prob"):
            run_property_suite(suite_id, seed=0, scale=2)
    built += [generate_sigma_star(wheel, [lattice.from_points(wheel, ["r0"])]),
              generate_sigma_star(SPStructure.ray(3), [[[1.0, 2.0, 0.0]], [[0.0, 1.0, 1.0]]])]
    return bundled_fields() + built + plane_fields() + partition_fields()


def points_of(st, rng):
    """Every point of a discrete model; for rays, the basis points of the
    axes and a few seeded random unit vectors."""
    if st.kind != "ray":
        return list(range(st.n))
    axes = list(np.eye(st.d))
    return axes + [rng.standard_normal(st.d) for _ in range(3)]


def same_bits(got, want):
    return float(got).hex() == float(want).hex()


# ---------------------------------------------------------------------------
# a pure state is the mixture of one point


def test_fields_cover_all_three_models(fields):
    assert {fld.structure.kind for fld in fields} == {"classical", "explicit", "ray"}
    assert len(fields) >= 15


def test_pure_state_matches_the_old_point_path_bit_for_bit(fields):
    rng = np.random.default_rng(0)
    for fld in fields:
        st = fld.structure
        for x in points_of(st, rng):
            p = pure_state(st, x)
            assert [w for w, _ in p.components] == [1.0]
            for e in fld.events:
                assert same_bits(evaluate(p, e), old_pure_value(st, x, e))


def test_flattened_mixture_keeps_every_weight_bit_for_bit(fields):
    rng = np.random.default_rng(1)
    for fld in fields[:8]:
        st = fld.structure
        pts = points_of(st, rng)
        raw = rng.dirichlet(np.ones(len(pts))).tolist()
        m = mix([(w, pure_state(st, x)) for w, x in zip(raw, pts)])
        assert len(m.components) == len(pts)
        old = old_flatten(zip(raw, [as_point(st, x) for x in pts]))
        for (w, x), (w_old, x_old) in zip(m.components, old):
            assert same_bits(w, w_old)
            assert st.point_literal(x) == st.point_literal(x_old)


def test_describe_is_unchanged(classical4, wheel, ray2):
    cases = [
        (classical4, 2, 3, "2", "3"),
        (wheel, "r0", "r90", "r0", "r90"),
        (ray2, [-2.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]),
    ]
    for st, x, y, lit_x, lit_y in cases:
        p = pure_state(st, x)
        assert p.describe() == {"kind": "pure", "point": lit_x}
        assert mix([(1.0, p)]).describe() == {"kind": "pure", "point": lit_x}
        two = mix([(0.25, p), (0.75, pure_state(st, y))])
        assert two.describe() == {"kind": "mixed",
                                  "components": [[0.25, lit_x], [0.75, lit_y]]}


# ---------------------------------------------------------------------------
# each event evaluated once


def measures_on(fld, rng):
    st = fld.structure
    pts = points_of(st, rng)
    pure = pure_state(st, pts[0])
    mixed = mix([(w, pure_state(st, x))
                 for w, x in zip(rng.dirichlet(np.ones(len(pts))).tolist(), pts)])
    values = [evaluate(mixed, e) for e in fld.events]
    inner = next(i for i, e in enumerate(fld.events) if not e.is_empty and not e.is_full)
    values[inner] = 1.0 - values[inner]  # a table that breaks additivity
    return [pure, mixed, table_measure(fld, values)]


def test_validator_matches_the_old_evaluate_per_read(fields):
    rng = np.random.default_rng(2)
    verdicts = set()
    for fld in fields:
        if len(fld.events) > 32:
            continue
        for p in measures_on(fld, rng):
            got = measure_report_to_dict(validate_measure(p, fld))
            assert got == measure_report_to_dict(old_validate_measure(p, fld))
            verdicts.add(got["overall"])
    assert {PASS, FAIL_CERTIFIED} <= verdicts


def test_each_event_of_the_domain_is_evaluated_once(ray2):
    fld = load_field(ray2, FIXTURES / "field_ray2_twolines.json")
    seen = []
    with mock.patch.object(meas, "evaluate", side_effect=lambda p, e: seen.append(e) or 0.5):
        validate_measure(pure_state(ray2, [1.0, 0.0]), fld)
    for e in fld.events:
        assert sum(s is e for s in seen) == 1


# ---------------------------------------------------------------------------
# one exact rule


VALUES = sorted({0.0, 0.1, 0.5, 0.75, 1.0 - 2 * TOL_EQ, 1.0 - TOL_EQ,
                 math.nextafter(1.0 - TOL_EQ, 0.0), math.nextafter(1.0 - TOL_EQ, 2.0),
                 1.0 - TOL_EQ / 2, 1.0, TOL_EQ, math.nextafter(TOL_EQ, 1.0)})
ESTIMATES = [SimilarityEstimate(v, EXACT) for v in VALUES]


def test_grid_reaches_every_verdict_and_the_tolerance_edge():
    rhs = continuity_rhs(0.0, 1.0)
    assert compare_leq(rhs + TOL_EQ, rhs) == PASS
    assert compare_leq(math.nextafter(rhs + TOL_EQ, 2.0), rhs) == FAIL_CERTIFIED


def test_continuity_rule_matches_the_old_ladder():
    probabilities = sorted(set(VALUES) | {0.3, 0.6})
    reached = set()
    for s_ab in ESTIMATES:
        for pb in probabilities:
            rhs = continuity_rhs(pb, s_ab.value)
            assert old_continuity_rhs(pb, s_ab) == (rhs, rhs)
            edges = [rhs + TOL_EQ, math.nextafter(rhs + TOL_EQ, 2.0)]
            for pa in probabilities + [e for e in edges if e <= 1.0 + TOL_EQ]:
                want = old_continuity_verdict(pa, pb, s_ab)
                assert compare_leq(pa, rhs) == want, (pa, pb, s_ab)
                reached.add(want)
    assert reached == {PASS, FAIL_CERTIFIED}


def _theorem_statuses(triples, equal=False):
    """Triangle and identity statuses of ``check_similarity_theorems`` for
    each triple of estimates standing in for ``s(A,B)``, ``s(A,C)``, ``s(B,C)``."""
    st = SPStructure.ray(3)
    a = from_span(st, [[1.0, 0.0, 0.0]])
    b = a if equal else from_span(st, [[0.0, 1.0, 0.0]])
    c = from_span(st, [[0.0, 0.0, 1.0]])
    flat = [s for triple in triples for s in triple]
    with mock.patch.object(sim, "subspace_similarity", side_effect=flat):
        for _ in triples:
            by_law = {chk.law: chk.status
                      for chk in sim.check_similarity_theorems(a, b, c).checks}
            yield by_law["similarity.triangle_bound"], by_law["similarity.identity_iff_equal"]


# the tolerance edges of the triangle (s_AC = 0, s_BC = 1 put the bound at 0)
# and of the identity (1 - TOL_EQ), from both sides
EDGES = [0.0, TOL_EQ, math.nextafter(TOL_EQ, 1.0), 0.5, math.nextafter(1.0 - TOL_EQ, 0.0),
         1.0 - TOL_EQ, 1.0]
EDGE_ESTIMATES = [SimilarityEstimate(v, EXACT) for v in EDGES]


def test_triangle_and_identity_rules_match_the_old_ladders():
    triples = list(itertools.product(EDGE_ESTIMATES, repeat=3))
    reached = set()
    for (s_ab, s_ac, s_bc), (triangle, identity) in zip(triples, _theorem_statuses(triples)):
        assert triangle == old_triangle_verdict(s_ab, s_ac, s_bc), (s_ab, s_ac, s_bc)
        assert identity == old_identity_verdict(False, s_ab), s_ab
        reached.add((triangle, identity))
    assert {t for t, _ in reached} == {PASS, FAIL_CERTIFIED}
    assert {i for _, i in reached} == {PASS, FAIL_CERTIFIED}
    triples = [(s, s, s) for s in ESTIMATES]
    for (s_ab, _, _), (_, identity) in zip(triples, _theorem_statuses(triples, equal=True)):
        assert identity == old_identity_verdict(True, s_ab)


def test_the_suites_identity_tally_matches_the_old_ladder():
    for est in EDGE_ESTIMATES + ESTIMATES:
        old, new = Check("identity"), Check("identity")
        old_identity_tally(old, est)
        new.hit(est.value < 1.0 - TOL_EQ, witness={"value": est.value})
        assert new == old, est


def test_kind_follows_from_the_shape(classical4):
    fld = generate_sigma_star(classical4, [])
    p = pure_state(classical4, 2)
    assert "kind" not in {f.name for f in dataclasses.fields(meas.ProbabilityMeasure)}
    assert (p.kind, mix([(0.5, p), (0.5, pure_state(classical4, 3))]).kind) == ("pure", "mixed")
    table = table_measure(fld, [evaluate(p, e) for e in fld.events])
    assert table.kind == "table" and mix([(0.5, table), (0.5, p)]).kind == "table"


# ---------------------------------------------------------------------------
# one exact similarity per unordered pair


def test_exact_similarity_is_symmetric_bit_for_bit(fields):
    pairs = 0
    for fld in fields:
        for a, b in itertools.combinations(fld.events, 2):
            s_ab, s_ba = subspace_similarity(a, b), subspace_similarity(b, a)
            assert s_ab.certainty == s_ba.certainty == EXACT
            assert same_bits(s_ab.value, s_ba.value), (a.to_literal(), b.to_literal())
            pairs += 1
    assert pairs > 2000


def test_ordered_similarities_match_the_ordered_loop(fields):
    for fld in fields:
        events = fld.events
        got = [(i, j, est.value, est.certainty)
               for i, j, est in ordered_similarities(events)]
        want = []
        for i, a in enumerate(events):
            for j, b in enumerate(events):
                if a is not b:
                    est = subspace_similarity(a, b)
                    want.append((i, j, est.value, est.certainty))
        assert [g[:2] for g in got] == [w[:2] for w in want]
        for g, w in zip(got, want):
            assert g[3] == w[3] and same_bits(g[2], w[2]), g


def test_an_all_exact_field_computes_each_pair_once(classical4):
    fld = generate_sigma_star(classical4, [[i] for i in range(4)])
    n = len(fld.events)
    p = pure_state(classical4, 0)
    twin = table_measure(fld, [evaluate(p, e) for e in fld.events])
    with mock.patch.object(sim, "subspace_similarity", wraps=sim.subspace_similarity) as calls:
        report = validate_measure(p, fld)
        assert calls.call_count == n * (n - 1) // 2 == 120
        # the table's own field, found through the measure, serves every pair
        assert validate_measure(twin).check("continuity_bound").status == PASS
    assert report.check("continuity_bound").status == PASS
    assert calls.call_count == n * (n - 1) // 2
    assert sorted(fld.similarities) == list(itertools.combinations(range(n), 2))


def nearly_equal_planes_field(ray3):
    """Two planes of R^3 at 4e-5, closed into a field of 12 events: the
    principal angle is below about 4.5e-5, so no zero witness holds, and
    its sin^2, 1.6e-9, is past TOL_EQ, so the planes differ."""
    a = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 4e-5]])
    return a, b, generate_sigma_star(ray3, [a, b])


def test_a_nearly_equal_pair_of_a_field_is_computed_once(ray3):
    a, b, fld = nearly_equal_planes_field(ray3)
    n = len(fld.events)
    assert n == 12
    p = pure_state(ray3, [0.0, 1.0, 0.0])
    with mock.patch.object(sim, "subspace_similarity", wraps=sim.subspace_similarity) as calls:
        first = measure_report_to_dict(validate_measure(p, fld))
        assert calls.call_count == n * (n - 1) // 2
        calls.reset_mock()
        second = measure_report_to_dict(validate_measure(p, fld))
    assert first == second and first["overall"] == PASS
    assert calls.call_count == 0
    assert sorted(fld.similarities) == list(itertools.combinations(range(n), 2))
    assert all(est.is_exact for est in fld.similarities.values())
    i, j = sorted((fld.index_of(a), fld.index_of(b)))
    assert fld.similarities[i, j] == sim.exact(0.0)


def test_planes_within_the_tolerance_are_one_event(ray3):
    # sin^2 1e-10, within TOL_EQ: the two planes generate the field of one
    a = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1e-5]])
    fld = generate_sigma_star(ray3, [a, b])
    assert len(fld.events) == 4
    assert fld.index_of(a) == fld.index_of(b)
    assert validate_measure(pure_state(ray3, [1.0, 2.0, 3.0]), fld).overall == PASS


def test_a_nearly_equal_pair_serves_both_orders(ray3):
    a, b, _ = nearly_equal_planes_field(ray3)
    with mock.patch.object(sim, "subspace_similarity", wraps=sim.subspace_similarity) as calls:
        got = list(ordered_similarities([a, b]))
    assert [(i, j) for i, j, _ in got] == [(0, 1), (1, 0)]
    assert calls.call_args_list == [mock.call(a, b)]
    assert got[0][2] is got[1][2]
    assert (got[0][2].value, got[0][2].certainty, got[0][2].witness) == (0.0, EXACT, None)
    assert got[0][2] == subspace_similarity(b, a)


def benchmark_measures(fld, rng):
    """The three measures the benchmark validates on one field: a mixture of
    points, its table twin and the twin broken at the first inner event."""
    st = fld.structure
    pts = points_of(st, rng)
    mixture = mix([(w, pure_state(st, x))
                   for w, x in zip(rng.dirichlet(np.ones(len(pts))).tolist(), pts)])
    values = [evaluate(mixture, e) for e in fld.events]
    inner = next(i for i, e in enumerate(fld.events) if not e.is_empty and not e.is_full)
    broken = list(values)
    delta = float(rng.uniform(0.05, 0.2))
    broken[inner] += delta if values[inner] + delta <= 1.0 else -delta
    return [mixture, table_measure(fld, values), table_measure(fld, broken)]


def test_a_warm_field_gives_the_reports_of_a_fresh_one(fields):
    rng = np.random.default_rng(5)
    overall = set()
    for fld in fields:
        measures = benchmark_measures(fld, rng)
        for order in (measures, measures[::-1]):
            warm = dataclasses.replace(fld)  # same events, an empty table
            for p in order:
                got = json.dumps(measure_report_to_dict(validate_measure(p, warm)))
                fresh = dataclasses.replace(fld)
                want = json.dumps(measure_report_to_dict(validate_measure(p, fresh)))
                assert got == want
                overall.add(json.loads(got)["overall"])
    assert overall == {PASS, FAIL_CERTIFIED}


def test_a_broken_table_fails_continuity_with_the_ordered_witness():
    witnesses = []
    for fld in plane_fields():
        p = pure_state(fld.structure, 0)
        values = [evaluate(p, e) for e in fld.events]
        for k, e in enumerate(fld.events):
            if e.is_empty or e.is_full:
                continue
            for delta in (-0.15, 0.15):
                broken = list(values)
                broken[k] = min(1.0, max(0.0, broken[k] + delta))
                table = table_measure(fld, broken)
                got = meas._continuity_check(list(fld.events), broken, rows=True)
                want = old_continuity_check(table, list(fld.events))
                assert got == want
                if got.status == FAIL_CERTIFIED:
                    i, j = (fld.index_of(lattice.from_points(fld.structure, ev))
                            for ev in got.witness["events"])
                    witnesses.append((i, j))
    # both orders of a pair reach the witness, the reverse one from the reused value
    assert any(i < j for i, j in witnesses) and any(i > j for i, j in witnesses)


# ---------------------------------------------------------------------------
# every carrier of an explicit table, decided on membership matrices


def carrier_fields():
    """Explicit tables with the field their points generate, which holds
    every carrier: identities, plane tables and seven lines of R^3."""
    r = 2 ** -0.5
    lines = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [r, r, 0], [r, -r, 0],
                      [r, 0, r], [r, 0, -r]])
    cube = (lines @ lines.T) ** 2
    cube[cube < 1e-15] = 0.0
    out = []
    for m in [np.eye(n) for n in range(1, 6)] + [plane_table(k) for k in (2, 4, 6, 12)] + [cube]:
        st = SPStructure.explicit(np.asarray(m).tolist())
        fld = generate_sigma_star(st, [[x] for x in range(st.n)])
        assert {e.points for e in fld.events} == set(st.explicit_lattice()["carrier_list"])
        out.append(fld)
    return out


def test_carrier_additivity_matches_the_pair_scan():
    rng = np.random.default_rng(1)
    verdicts, families = set(), 0
    for fld in carrier_fields():
        events = list(fld.events)
        for t in range(12):
            values = rng.random(len(events)) if t % 2 else np.round(rng.random(len(events)) * 4) / 4
            values = [0.0 if e.is_empty else 1.0 if e.is_full else float(v)
                      for e, v in zip(events, values)]
            table = table_measure(fld, values)
            got = meas._carrier_additivity(table, events, values)
            want = old_additivity_check(table, events)
            assert (got.status, got.witnesses) == (want.status, want.witnesses)
            verdicts.add(got.status)
            families += bool(got.witnesses) and "family_size" in got.witness
    assert verdicts == {PASS, FAIL_CERTIFIED} and families


def test_field_free_explicit_measures_match_the_scan_of_every_carrier():
    rng = np.random.default_rng(2)
    verdicts = set()
    # the seven lines of R^3 (last) hold no projection of some point onto
    # some plane, and the scan of every pair meets one and raises
    for st in [f.structure for f in carrier_fields()[:-1]] + [
            load_structure(FIXTURES / "explicit4.json")]:
        measures = [pure_state(st, x) for x in range(st.n)]
        measures += [mix([(float(w), pure_state(st, x)) for x, w in
                          enumerate(rng.dirichlet(np.ones(st.n)))]) for _ in range(2)]
        for p in measures:
            carriers = sig.SigmaStarField(st, tuple(st.measure_events(p.components)))
            got = measure_report_to_dict(validate_measure(p))
            assert got == measure_report_to_dict(old_validate_measure(p, carriers))
            verdicts.add(got["overall"])
    assert verdicts == {PASS, FAIL_CERTIFIED}


def test_field_free_continuity_computes_every_pair_that_can_fail():
    # every pair with p(A) > p(B) and s(A, B) > TOL_EQ, and no pair with p(A) <= p(B)
    rng = np.random.default_rng(3)
    two_planes = np.kron(np.eye(2), plane_table(6))
    computed = 0
    for st in [f.structure for f in carrier_fields()[:-1]] + [
            SPStructure.explicit(two_planes.tolist())]:
        for p in [pure_state(st, 0), mix([(float(w), pure_state(st, x)) for x, w in
                                          enumerate(rng.dirichlet(np.ones(st.n)))])]:
            events = st.measure_events(p.components)
            values = [evaluate(p, e) for e in events]
            got = {(i, j) for i, j, _ in meas._open_pairs(events, values, rows=True)}
            for i, j in itertools.permutations(range(len(events)), 2):
                if values[i] <= values[j]:
                    assert (i, j) not in got
                elif subspace_similarity(events[i], events[j]).value > TOL_EQ:
                    assert (i, j) in got
            computed += len(got)
    assert computed


def test_field_free_continuity_computes_only_pairs_that_can_fail():
    # on an identity table every carrier holds a point orthogonal to each
    # carrier it outweighs, so no pair can fail and none is computed
    st = SPStructure.explicit(np.eye(10).tolist())
    uniform = mix([(0.1, pure_state(st, x)) for x in range(10)])
    for p in (pure_state(st, 0), uniform):
        with mock.patch.object(meas, "subspace_similarity",
                               wraps=meas.subspace_similarity) as calls:
            assert validate_measure(p).overall == PASS
        assert calls.call_count == 0
    # a plane table computes only pairs with p(A) > p(B), each once
    st = SPStructure.explicit(plane_table(12))
    p = pure_state(st, 0)
    events = st.measure_events(p.components)
    values = [evaluate(p, e) for e in events]
    with mock.patch.object(meas, "subspace_similarity", wraps=meas.subspace_similarity) as calls:
        got = meas._continuity_check(events, values, rows=True)
    assert got == meas._continuity_check(events, values, {})
    assert got.status == FAIL_CERTIFIED
    pairs = [c.args for c in calls.call_args_list]
    assert pairs and len({(a.points, b.points) for a, b in pairs}) == len(pairs)
    assert all(evaluate(p, a) > evaluate(p, b) for a, b in pairs)


# ---------------------------------------------------------------------------
# field-free measures: the closed form against the seeded domain


def _excess(check):
    """How far a failed continuity check's witness breaks the bound."""
    w = check.witness
    return w["p_A"] - w["bound"]


def _random_mixtures(rng, count):
    """Point-backed ray measures on ``ray(2)`` to ``ray(5)``: pure states and
    mixtures of two or three random points with random weights."""
    out = []
    for i in range(count):
        st = SPStructure.ray(2 + i % 4)
        k = 1 + i % 3
        weights = rng.dirichlet(np.ones(k))
        out.append(mix([(float(w), pure_state(st, rng.standard_normal(st.d)))
                        for w in weights]))
    return out


def _gap(p, q, event):
    return abs(evaluate(p, event) - evaluate(q, event))


def test_first_difference_finds_what_the_seeded_domain_finds(ray2, ray3):
    found = agreed = 0
    for st in (ray2, ray3):
        rng = np.random.default_rng(4)
        pts = points_of(st, rng)
        measures = [pure_state(st, x) for x in pts[:3]]
        measures.append(mix([(0.5, measures[0]), (0.5, measures[1])]))
        # two bases, each weighted evenly, give the same rho = I/d
        for basis in (np.eye(st.d), np.linalg.qr(rng.standard_normal((st.d, st.d)))[0]):
            measures.append(mix([(1.0 / st.d, pure_state(st, v)) for v in basis.T]))
        for p, q in itertools.combinations(measures, 2):
            got = first_difference(p, q)
            for seed in (0, 7):
                want = old_first_difference(p, q, samples=50, seed=seed)
                if got is None:
                    agreed += 1
                    assert want is None
                if want is not None:
                    found += 1
                    assert _gap(p, q, got) >= _gap(p, q, want) - TOL_UNIT
    assert found and agreed


def test_closed_form_fails_wherever_the_seeded_domain_fails():
    rng = np.random.default_rng(11)
    failures = 0
    for p in _random_mixtures(rng, 16):
        got = validate_measure(p).check("continuity_bound")
        lam = np.linalg.eigvalsh(sum(w * np.outer(x, x) for w, x in p.components))
        spread = lam[-1] - lam[0]
        if got.status == FAIL_CERTIFIED:
            assert _excess(got) == pytest.approx((spread - 0.5) ** 2 / 4, abs=1e-12)
        else:
            assert (spread - 0.5) ** 2 / 4 <= TOL_EQ or spread <= 0.5
        for seed in (0, 1):
            want = old_seeded_continuity(p, samples=40, seed=seed)
            if want.status == FAIL_CERTIFIED:
                failures += 1
                assert got.status == FAIL_CERTIFIED
                assert _excess(got) >= _excess(want) - 1e-12
    assert failures


def test_field_free_prob_equal_builds_one_event(capsys):
    argv = ["prob", "equal", FIXTURES / "ray2.json", FIXTURES / "measure_pure_e1.json",
            FIXTURES / "measure_mix_axes.json", "--json"]
    with mock.patch.object(lattice, "from_span", wraps=lattice.from_span) as calls:
        assert run_command([str(a) for a in argv]) == 1
    assert calls.call_count == 1  # the span of rho_p - rho_q's positive eigenvector
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness == {"event": [[1.0, 0.0]], "measure": 1.0, "other": 0.5}
