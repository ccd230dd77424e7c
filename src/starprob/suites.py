"""Seeded property suites over the whole stack.

Each suite runs a family of law checks and reports one
:class:`~starprob.structures.Check` per law: trials, failures, worst
residual, and up to three witnesses.  Everything is driven by one seed, so
identical invocations produce identical reports (the command line times a
run, but keeps wall time out of the JSON form on purpose).

Law identifiers are stable strings used by the command-line reports and the
acceptance tests.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, product

import numpy as np

from . import io as spio
from . import lattice as lat
from . import measures as meas
from . import randomvars as rv_mod
from . import sigma as sig
from . import similarity as sim
from . import structures as core
from .errors import FormatError
from .structures import (
    FAIL_CERTIFIED,
    PASS,
    Check,
    Report,
    SPStructure,
    as_point,
    random_frame,
    random_unit_vector,
)

DEFAULT_SCALE = 200
_LATTICE_DIMS = (2, 3, 4, 5)

SUITE_IDS = ("lattice", "similarity", "sigma", "prob", "rv", "all")


def run_property_suite(suite_id: str, seed: int,
                       scale: int = DEFAULT_SCALE) -> Report:
    if suite_id not in SUITE_IDS:
        raise ValueError(f"unknown suite {suite_id!r}; choose from {SUITE_IDS}")
    if seed < 0:
        raise FormatError(f"suites need seed >= 0, got {seed}")
    if scale < 0:
        raise FormatError(f"suites need scale >= 0, got {scale}")
    parts = tuple(_SUITES) if suite_id == "all" else (suite_id,)
    return Report([c for part in parts for c in _SUITES[part](seed, scale)])


# ---------------------------------------------------------------------------
# shared generators


def _random_subspace(st: SPStructure, rng: np.random.Generator) -> lat.Subspace:
    return lat.from_span(st, st.random_span(rng))


def _classical_subsets(st: SPStructure) -> list[lat.Subspace]:
    pts = range(st.n)
    subs = chain.from_iterable(combinations(pts, r) for r in range(st.n + 1))
    return [lat.from_points(st, s) for s in subs]


def wheel_structure() -> SPStructure:
    """Four rays of the plane at 0, 45, 90 and 135 degrees, tabulated."""
    m = [[1.0, 0.5, 0.0, 0.5],
         [0.5, 1.0, 0.5, 0.0],
         [0.0, 0.5, 1.0, 0.5],
         [0.5, 0.0, 0.5, 1.0]]
    return SPStructure.explicit(m, labels=("r0", "r45", "r90", "r135"))


def _explicit_subspaces(st: SPStructure) -> list[lat.Subspace]:
    lattice = st.explicit_lattice()
    return [lat.from_points(st, sorted(c)) for c in lattice["carrier_list"]]


# ---------------------------------------------------------------------------
# lattice suite


def lattice_suite(seed: int, scale: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    comp = Check("lattice.complement_partition")
    invol = Check("lattice.involution")
    dims = Check("lattice.dimension_partition")
    ortho = Check("lattice.orthomodular")
    demorgan = Check("lattice.de_morgan")
    algebra = Check("lattice.absorption_idempotence")

    def exercise(st, a, b, c, total_dim):
        ca = lat.ortho_complement(a)
        comp.hit(lat.join(a, ca) == lat.full(st)
                 and lat.meet(a, ca) == lat.empty(st),
                 witness={"subspace": a.to_literal()})
        invol.hit(lat.ortho_complement(ca) == a,
                  witness={"subspace": a.to_literal()})
        dims.hit(a.dim + ca.dim == total_dim,
                 witness={"dim": a.dim, "complement_dim": ca.dim})
        big = lat.join(a, b)
        ortho.hit(lat.check_orthomodular(a, big),
                  witness={"inner": a.to_literal(), "outer": big.to_literal()})
        demorgan.hit(lat.check_de_morgan(a, b),
                     witness={"a": a.to_literal(), "b": b.to_literal()})
        ok = (lat.join(a, a) == a and lat.meet(a, a) == a
              and lat.join(a, lat.meet(a, b)) == a
              and lat.meet(a, lat.join(a, b)) == a
              and lat.join(a, b) == lat.join(b, a)
              and lat.meet(a, b) == lat.meet(b, a)
              and lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
              and lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c)))
        algebra.hit(ok, witness={"a": a.to_literal(), "b": b.to_literal()})

    for d in _LATTICE_DIMS:
        st = SPStructure.ray(d)
        for _ in range(scale):
            exercise(st, _random_subspace(st, rng), _random_subspace(st, rng),
                     _random_subspace(st, rng), d)

    st4 = SPStructure.classical(4)
    subsets = _classical_subsets(st4)
    for a in subsets:
        for b in subsets:
            exercise(st4, a, b, subsets[(a.dim * 7 + b.dim) % len(subsets)], 4)

    wheel = wheel_structure()
    wheel_subs = _explicit_subspaces(wheel)
    for a in wheel_subs:
        for b in wheel_subs:
            for c in wheel_subs:
                exercise(wheel, a, b, c, 2)

    witness_check = Check("lattice.nondistributive_witness")
    st2 = SPStructure.ray(2)
    line0 = lat.from_span(st2, [[1.0, 0.0]])
    line45 = lat.from_span(st2, [[1.0, 1.0]])
    line90 = lat.from_span(st2, [[0.0, 1.0]])
    witness_check.hit(not lat.distributes(line0, line45, line90),
                      witness={"lines": ["0deg", "45deg", "90deg"]})
    witness_check.hit(lat.check_orthomodular(line0, lat.join(line0, line45)),
                      witness={"note": "orthomodularity on the witness lines"})
    a0, a45 = lat.from_points(wheel, ["r0"]), lat.from_points(wheel, ["r45"])
    a90 = lat.from_points(wheel, ["r90"])
    witness_check.hit(not lat.distributes(a0, a45, a90),
                      witness={"points": ["r0", "r45", "r90"]})

    boolean = Check("lattice.classical_boolean")
    for a in subsets:
        for b in subsets:
            for c in subsets:
                boolean.hit(lat.distributes(a, b, c))

    return [comp, invol, dims, ortho, demorgan, algebra, witness_check, boolean]


# ---------------------------------------------------------------------------
# similarity suite


def similarity_suite(seed: int, scale: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    singleton = Check("similarity.singleton_reduction")
    line_formula = Check("similarity.exact_line_formula")
    identity = Check("similarity.identity_iff_equal")
    vantage = Check("similarity.vantage_bound")
    triangle = Check("similarity.triangle_bound_discrete")
    triangle_ray = Check("similarity.triangle_bound_ray_lines")
    triangle_planes = Check("similarity.triangle_bound_ray_planes")
    continuity = Check("similarity.point_continuity_discrete")
    continuity_ray = Check("similarity.point_continuity_ray")
    continuity_unit = Check("similarity.point_continuity_unit_coefficient")
    monotone = Check("similarity.monotone_sampling")
    symmetric = Check("similarity.symmetric_estimates")

    # singleton reduction, every model
    st4, wheel = SPStructure.classical(4), wheel_structure()
    for st in (st4, wheel):
        for x in range(4):
            for y in range(4):
                got = sim.subspace_similarity(lat.from_points(st, [x]),
                                              lat.from_points(st, [y])).value
                want = core.similarity(st, x, y)
                singleton.hit(abs(got - want) <= core.TOL_EQ, abs(got - want))
    for d in (2, 3):
        st = SPStructure.ray(d)
        for _ in range(max(4, scale // 8)):
            x = as_point(st, random_unit_vector(d, rng))
            y = as_point(st, random_unit_vector(d, rng))
            got = sim.subspace_similarity(lat.from_span(st, [x]),
                                          lat.from_span(st, [y])).value
            want = core.similarity(st, x, y)
            singleton.hit(abs(got - want) <= core.TOL_EQ, abs(got - want))

    # sampled estimates against the closed line form
    for d in (2, 3):
        st = SPStructure.ray(d)
        for _ in range(max(2, scale // 4)):
            a = lat.from_span(st, [random_unit_vector(d, rng)])
            b = lat.from_span(st, [random_unit_vector(d, rng)])
            if a == b:
                continue
            cos2 = float(np.dot(a.frame[:, 0], b.frame[:, 0]) ** 2)
            cfg = sim.SamplerConfig(samples=20_000, refine_top=16,
                                    seed=int(rng.integers(2 ** 31)))
            est = sim.sampled_similarity(a, b, cfg)
            err = abs(est.value - cos2)
            undershoot = max(0.0, cos2 - est.value)
            line_formula.hit(err <= 1e-3 and undershoot <= core.TOL_EQ,
                             max(err, undershoot),
                             witness={"cos2": cos2, "estimate": est.value})

    # identity characterization and membership bound on random ray pairs
    for d in (2, 3, 4):
        st = SPStructure.ray(d)
        for _ in range(max(4, scale // 16)):
            a = _random_subspace(st, rng)
            b = _random_subspace(st, rng)
            est = sim.subspace_similarity(a, b)
            if a == b:
                identity.hit(abs(est.value - 1.0) <= core.TOL_EQ,
                             abs(est.value - 1.0))
            else:
                identity.hit(est.value < 1.0 - core.TOL_EQ, witness={"value": est.value})
            for x in a.basis_points():
                vantage.hit(sim.compare_leq(
                    est.value, lat.similarity_to_subspace(x, b)) == PASS,
                    witness={"a": a.to_literal(), "b": b.to_literal()})

    # exhaustive triangle bound on the discrete models
    for subs in (_classical_subsets(st4), _explicit_subspaces(wheel)):
        s = {(i, i): sim.subspace_similarity(a, a).value for i, a in enumerate(subs)}
        s.update(((i, j), est.value) for i, j, est in sim.ordered_similarities(subs))
        for i, j, k in product(range(len(subs)), repeat=3):
            rhs = sim.continuity_rhs(s[i, k], s[j, k])
            triangle.hit(s[i, j] <= rhs + core.TOL_EQ, max(0.0, s[i, j] - rhs),
                         witness={"triple": [i, j, k]})

    # exact line triples: the half-coefficient bound genuinely fails for
    # close lines (worst analytic excess 1/16), and this record says so
    st2r = SPStructure.ray(2)
    for _ in range(max(4, scale // 4)):
        lines = [lat.from_span(st2r, [random_unit_vector(2, rng)])
                 for _ in range(3)]
        sab = sim.subspace_similarity(lines[0], lines[1]).value
        rhs = sim.continuity_rhs(sim.subspace_similarity(lines[0], lines[2]).value,
                                 sim.subspace_similarity(lines[1], lines[2]).value)
        triangle_ray.hit(sab <= rhs + core.TOL_EQ, max(0.0, sab - rhs),
                         witness={"lines": [ln.to_literal() for ln in lines],
                                  "excess": sab - rhs})

    # plane triples
    st4r = SPStructure.ray(4)
    for _ in range(max(2, scale // 16)):
        a = lat.from_span(st4r, random_frame(4, 2, rng).T)
        b = lat.from_span(st4r, random_frame(4, 2, rng).T)
        c = lat.from_span(st4r, random_frame(4, 2, rng).T)
        bound = sim.check_similarity_theorems(a, b, c).check("similarity.triangle_bound")
        triangle_planes.hit(bound.status == PASS, witness=bound.detail)

    # pointwise continuity: the ray model violates the half-coefficient
    # bound (tight coefficient on the square root is 1), so the ray record
    # reports real failures while the unit-coefficient variant passes
    for d in (2, 3):
        st = SPStructure.ray(d)
        n = max(10, 25 * scale)
        xs = rng.standard_normal((n, d))
        ys = rng.standard_normal((n, d))
        zs = rng.standard_normal((n, d))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        ys /= np.linalg.norm(ys, axis=1)[:, None]
        zs /= np.linalg.norm(zs, axis=1)[:, None]
        sxy = np.sum(xs * ys, axis=1) ** 2
        szy = np.sum(zs * ys, axis=1) ** 2
        lhs = np.sum(zs * xs, axis=1) ** 2
        gap = np.sqrt(np.clip(1 - sxy, 0, None))
        excess_half = lhs - (szy + 0.5 * gap + (1 - sxy))
        excess_unit = lhs - (szy + gap)
        bad = int(np.sum(excess_half > core.TOL_EQ))
        continuity_ray.hit(True, float(np.max(excess_half)), trials=n)
        if bad:
            worst_at = int(np.argmax(excess_half))
            continuity_ray.fail({
                "x": xs[worst_at].tolist(), "y": ys[worst_at].tolist(),
                "z": zs[worst_at].tolist(),
                "excess": float(excess_half[worst_at])}, count=bad)
        bad = int(np.sum(excess_unit > core.TOL_EQ))
        continuity_unit.hit(True, max(0.0, float(np.max(excess_unit))), trials=n)
        if bad:
            continuity_unit.fail(count=bad)
    for st in (st4, wheel):
        for x, y, z in product(range(st.n), repeat=3):
            res = sim.check_point_continuity(st, x, y, z)
            continuity.hit(res >= -core.TOL_EQ, max(0.0, -res))
            continuity_unit.hit(
                core.similarity(st, z, x) <= core.similarity(st, z, y)
                + math.sqrt(max(0.0, 1 - core.similarity(st, x, y))) + core.TOL_EQ)

    # monotone sampling and estimate symmetry
    for pair_seed in range(3):
        a = lat.from_span(st4r, random_frame(4, 2, rng).T)
        b = lat.from_span(st4r, random_frame(4, 2, rng).T)
        cfg_n = sim.SamplerConfig(samples=4000, refine_top=8, seed=pair_seed)
        cfg_2n = sim.SamplerConfig(samples=8000, refine_top=8, seed=pair_seed)
        v_n = sim.sampled_similarity(a, b, cfg_n).value
        v_2n = sim.sampled_similarity(a, b, cfg_2n).value
        monotone.hit(v_2n <= v_n + core.TOL_EQ, max(0.0, v_2n - v_n),
                     witness={"n": v_n, "2n": v_2n})
        v_ab = sim.sampled_similarity(a, b, cfg_n).value
        v_ba = sim.sampled_similarity(b, a, cfg_n).value
        symmetric.hit(v_ab == v_ba, abs(v_ab - v_ba))

    return [singleton, line_formula, identity, vantage, triangle,
            triangle_ray, triangle_planes, continuity, continuity_ray,
            continuity_unit, monotone, symmetric]


# ---------------------------------------------------------------------------
# sigma suite


def sigma_suite(seed: int, scale: int) -> list[Check]:
    powerset = Check("sigma.powerset_equivalence")
    line_field = Check("sigma.single_line_field")
    idempotent = Check("sigma.idempotent_generation")
    intersections = Check("sigma.intersection_closure")
    members = Check("sigma.member_laws")
    atoms_check = Check("sigma.atomic_decomposition")
    boolean = Check("sigma.boolean_classification")

    fields = []

    for n in (4, 6):
        st = SPStructure.classical(n)
        fld = sig.generate_sigma_star(st, [[i] for i in range(n)])
        fields.append(fld)
        got = {e.points for e in fld.events}
        want = {frozenset(c)
                for r in range(n + 1) for c in combinations(range(n), r)}
        powerset.hit(got == want and len(fld.events) == 2 ** n,
                     witness={"n": n, "events": len(fld.events)})
        boolean.hit(sig.is_boolean(fld), witness={"n": n})
        ats = sig.atoms(fld)
        powerset.hit(len(ats) == n and all(a.dim == 1 for a in ats))

    st2 = SPStructure.ray(2)
    fld_line = sig.generate_sigma_star(st2, [lat.from_span(st2, [[1.0, 0.0]])])
    fields.append(fld_line)
    want = [lat.empty(st2), lat.from_span(st2, [[0.0, 1.0]]),
            lat.from_span(st2, [[1.0, 0.0]]), lat.full(st2)]
    line_field.hit(len(fld_line.events) == 4
                   and all(e == w for e, w in zip(fld_line.events, want)),
                   witness={"events": len(fld_line.events)})
    boolean.hit(sig.is_boolean(fld_line))

    fld_two = sig.generate_sigma_star(
        st2, [lat.from_span(st2, [[1.0, 0.0]]),
              lat.from_span(st2, [[math.sqrt(3) / 2, 0.5]])])
    fields.append(fld_two)
    line_field.hit(len(fld_two.events) == 6,
                   witness={"events": len(fld_two.events)})
    wit = sig.distributivity_witness(fld_two)
    boolean.hit(wit is not None, witness={"witness_triple": wit})

    wheel = wheel_structure()
    fld_wheel = sig.generate_sigma_star(
        wheel, [lat.from_points(wheel, ["r0"]), lat.from_points(wheel, ["r45"])])
    fields.append(fld_wheel)
    line_field.hit(len(fld_wheel.events) == 6,
                   witness={"model": "explicit", "events": len(fld_wheel.events)})
    boolean.hit(sig.distributivity_witness(fld_wheel) is not None)

    for fld in fields:
        regen = sig.generate_sigma_star(fld.structure, fld.events,
                                        cap=max(sig.DEFAULT_CAP, len(fld) * 2))
        same = (len(regen.events) == len(fld.events)
                and all(a == b for a, b in zip(regen.events, fld.events)))
        idempotent.hit(same, witness={"events": len(fld.events)})

        closed = True
        for i, a in enumerate(fld.events):
            for b in fld.events[i + 1:]:
                if lat.meet(a, b) not in fld:
                    closed = False
        intersections.hit(closed)

        report = sig.validate_sigma_star(fld)
        members.hit(report.ok,
                    witness=None if report.ok else spio.field_report_to_dict(report))

        ats = sig.atoms(fld)
        for event in fld.events:
            decomp = sig.atomic_decomposition(fld, event, ats)
            atoms_check.hit(decomp is not None,
                            witness={"event": event.to_literal()})

    return [powerset, line_field, idempotent, intersections, members,
            atoms_check, boolean]


# ---------------------------------------------------------------------------
# probability suite


def prob_suite(seed: int, scale: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    pure_axioms = Check("prob.pure_state_axioms")
    detection = Check("prob.additivity_violation_detected")
    affine = Check("prob.mixing_affine")
    nonfree = Check("prob.nonfree_mixture_identity")
    classical_red = Check("prob.classical_reduction")
    gleason = Check("prob.d2_table_beyond_mixtures")

    st2 = SPStructure.ray(2)
    fld_line = sig.generate_sigma_star(st2, [lat.from_span(st2, [[1.0, 0.0]])])
    fld_two = sig.generate_sigma_star(
        st2, [lat.from_span(st2, [[1.0, 0.0]]),
              lat.from_span(st2, [[math.sqrt(3) / 2, 0.5]])])
    st4 = SPStructure.classical(4)
    fld_cl = sig.generate_sigma_star(st4, [[i] for i in range(4)])
    wheel = wheel_structure()
    fld_wheel = sig.generate_sigma_star(
        wheel, [lat.from_points(wheel, ["r0"]), lat.from_points(wheel, ["r45"])])

    # pure states satisfy all four axioms with exact similarities
    cases = [(st4, fld_cl, [0, 1, 2, 3]),
             (wheel, fld_wheel, ["r0", "r45", "r90", "r135"]),
             (st2, fld_line, [random_unit_vector(2, rng) for _ in range(3)]),
             (st2, fld_two, [random_unit_vector(2, rng) for _ in range(3)])]
    for st, fld, points in cases:
        for raw in points:
            report = meas.validate_measure(meas.pure_state(st, raw), fld)
            pure_axioms.hit(report.ok, witness=None if report.ok
                            else spio.measure_report_to_dict(report))

    # a broken table is caught with a witness
    vals = [0.0] * len(fld_line.events)
    vals[fld_line.index_of(lat.full(st2))] = 1.0
    vals[fld_line.index_of(lat.from_span(st2, [[1.0, 0.0]]))] = 0.6
    vals[fld_line.index_of(lat.from_span(st2, [[0.0, 1.0]]))] = 0.6
    bad = meas.table_measure(fld_line, vals)
    report = meas.validate_measure(bad, fld_line)
    additivity = report.check("orthogonal_additivity")
    detection.hit(additivity.status == FAIL_CERTIFIED
                  and additivity.witness is not None,
                  witness={"status": additivity.status})

    # affine mixing, bit-exact for flat mixtures
    for _ in range(max(5, scale // 20)):
        pts = [as_point(st2, random_unit_vector(2, rng)) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        w = w / w.sum()
        mixture = meas.mix([(float(wi), meas.pure_state(st2, x))
                            for wi, x in zip(w, pts)])
        event = _random_subspace(st2, rng)
        direct = sum(float(wi) * meas.evaluate(meas.pure_state(st2, x), event)
                     for wi, x in zip(w, pts))
        got = meas.evaluate(mixture, event)
        affine.hit(got == direct, abs(got - direct))

    # the two half/half mixtures that cannot be told apart
    e1 = meas.pure_state(st2, [1.0, 0.0])
    e2 = meas.pure_state(st2, [0.0, 1.0])
    diag = meas.pure_state(st2, [1.0, 1.0])
    anti = meas.pure_state(st2, [1.0, -1.0])
    first = meas.mix([(0.5, e1), (0.5, e2)])
    second = meas.mix([(0.5, diag), (0.5, anti)])
    worst = 0.0
    for event in fld_line.events:
        worst = max(worst, abs(meas.evaluate(first, event)
                               - meas.evaluate(second, event)))
    for _ in range(5 * scale):
        event = lat.from_span(st2, [random_unit_vector(2, rng)])
        worst = max(worst, abs(meas.evaluate(first, event)
                               - meas.evaluate(second, event)))
    nonfree.hit(worst <= core.TOL_UNIT, worst)
    nonfree.hit(meas.measures_equal(first, second, fld_line))

    # classical reduction: the continuity axiom is vacuous, tables are mixtures
    subsets = _classical_subsets(st4)
    uniform = meas.mix([(0.25, meas.pure_state(st4, x)) for x in range(4)])
    for a in subsets:
        got = meas.evaluate(uniform, a)
        classical_red.hit(abs(got - len(a.points) / 4) <= core.TOL_UNIT,
                          abs(got - len(a.points) / 4))
    for i, j, est in sim.ordered_similarities(subsets):
        rhs = sim.continuity_rhs(meas.evaluate(uniform, subsets[j]), est.value)
        classical_red.hit(est.value == 0.0 and rhs >= 1.0 - core.TOL_EQ, witness={
            "a": subsets[i].to_literal(), "b": subsets[j].to_literal()})
    report = meas.validate_measure(uniform, fld_cl)
    classical_red.hit(report.overall == PASS)

    # a d=2 table beyond every two-point mixture
    gleason_checks = _gleason_fixture(st2, fld_two)
    for ok, witness in gleason_checks:
        gleason.hit(ok, witness=witness)

    return [pure_axioms, detection, affine, nonfree, classical_red, gleason]


def _gleason_fixture(st2: SPStructure, fld_two: sig.SigmaStarField):
    """A table on the two-line field passing additivity but not continuity.

    No convex mixture of points can produce it: mixtures satisfy the
    continuity bound automatically, and a parameter grid over two-point
    mixtures confirms none comes close.
    """
    line1 = lat.from_span(st2, [[1.0, 0.0]])
    line2 = lat.from_span(st2, [[math.sqrt(3) / 2, 0.5]])
    values = [0.0] * len(fld_two.events)
    values[fld_two.index_of(lat.full(st2))] = 1.0
    values[fld_two.index_of(line1)] = 1.0
    values[fld_two.index_of(lat.ortho_complement(line1))] = 0.0
    values[fld_two.index_of(line2)] = 0.3
    values[fld_two.index_of(lat.ortho_complement(line2))] = 0.7
    table = meas.table_measure(fld_two, values)
    report = meas.validate_measure(table, fld_two)
    continuity = report.check("continuity_bound")
    checks = []
    checks.append((all(report.check(law).status == PASS for law in (
        "empty_event_zero", "full_event_one", "orthogonal_additivity")),
                   {"note": "pointwise and additivity axioms hold"}))
    checks.append((continuity.status == FAIL_CERTIFIED,
                   {"witness": continuity.witness}))

    # brute grid over two-point mixtures w * p_theta + (1-w) * p_phi
    thetas = np.linspace(0.0, math.pi, 61)
    weights = np.linspace(0.0, 1.0, 21)
    events = list(fld_two.events)
    targets = np.array(values)
    profiles = np.array([
        [lat.similarity_to_subspace(as_point(st2, [math.cos(th), math.sin(th)]), e)
         for e in events]
        for th in thetas
    ])
    best_gap = math.inf
    for px in profiles:
        for py in profiles:
            # all candidate weights at once: (21, n_events)
            mixed = weights[:, None] * px[None, :] + (1 - weights)[:, None] * py[None, :]
            gap = float(np.min(np.max(np.abs(mixed - targets[None, :]), axis=1)))
            best_gap = min(best_gap, gap)
    checks.append((best_gap > 0.05, {"closest_grid_mixture_gap": best_gap}))
    return checks


# ---------------------------------------------------------------------------
# random-variable suite


def rv_suite(seed: int, scale: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    expect_id = Check("rv.expectation_identity")
    die = Check("rv.classical_die")
    pre = Check("rv.preimage_orthogonality")
    partial = Check("rv.partiality_dichotomy")
    compat = Check("rv.compatibility")
    affine = Check("rv.expectation_affine")

    # seeded ray cases for the expectation identity
    cases = max(10, 5 * scale // 2)
    for i in range(cases):
        d = 2 if i % 2 == 0 else 3
        st = SPStructure.ray(d)
        frame = random_frame(d, d, rng)
        cut = int(rng.integers(1, d))
        events = [lat.from_span(st, frame[:, :cut].T),
                  lat.from_span(st, frame[:, cut:].T)]
        values = rng.standard_normal(2) * 3
        while abs(values[0] - values[1]) < 1e-6:
            values = rng.standard_normal(2) * 3
        x_rv = rv_mod.make_rv(st, list(zip(values.tolist(), events)))
        x = as_point(st, random_unit_vector(d, rng))
        res = abs(rv_mod.check_expect_theorem(x_rv, x))
        expect_id.hit(res <= core.TOL_EQ, res)

    # classical exhaustive: identity variable on every point
    st4 = SPStructure.classical(4)
    id_rv = rv_mod.make_rv(st4, [(float(i), lat.from_points(st4, [i]))
                                 for i in range(4)])
    for x in range(4):
        res = abs(rv_mod.check_expect_theorem(id_rv, x))
        expect_id.hit(res <= core.TOL_EQ, res)
        partial.hit(rv_mod.eval_at_point(id_rv, x) == float(x))

    # the fair die
    st6 = SPStructure.classical(6)
    die_rv = rv_mod.make_rv(st6, [(float(i + 1), lat.from_points(st6, [i]))
                                  for i in range(6)])
    uniform = meas.mix([(1 / 6, meas.pure_state(st6, i)) for i in range(6)])
    got = rv_mod.expectation(die_rv, uniform).value
    oracle = sum((i + 1) / 6 for i in range(6))
    die.hit(abs(got - oracle) <= core.TOL_UNIT, abs(got - oracle),
            witness={"value": got})

    # preimages of disjoint value sets are orthogonal
    st3 = SPStructure.ray(3)
    frame = np.eye(3)
    rv3 = rv_mod.make_rv(st3, [
        (1.0, lat.from_span(st3, [frame[:, 0]])),
        (2.0, lat.from_span(st3, [frame[:, 1]])),
        (3.0, lat.from_span(st3, [frame[:, 2]])),
    ])
    values = (1.0, 2.0, 3.0)
    subsets = list(chain.from_iterable(combinations(values, r)
                                       for r in range(4)))
    for s in subsets:
        for t in subsets:
            if set(s) & set(t):
                continue
            pre.hit(lat.is_orthogonal(rv_mod.preimage(rv3, s),
                                      rv_mod.preimage(rv3, t)),
                    witness={"s": list(s), "t": list(t)})
    pre.hit(rv_mod.preimage(rv3, values) == lat.full(st3))
    pre.hit(rv_mod.preimage(rv3, ()) == lat.empty(st3))

    # partiality on the ray model, totality on the classical one
    st2 = SPStructure.ray(2)
    plus = lat.from_span(st2, [[1.0, 1.0]])
    minus = lat.from_span(st2, [[1.0, -1.0]])
    pm = rv_mod.make_rv(st2, [(1.0, plus), (-1.0, minus)])
    try:
        rv_mod.eval_at_point(pm, as_point(st2, [1.0, 0.0]))
        partial.hit(False, witness={"note": "expected undefined value"})
    except rv_mod.ValueUndefinedAtPoint:
        partial.hit(True)
    partial.hit(rv_mod.eval_at_point(pm, as_point(st2, [1.0, 1.0])) == 1.0)
    partial.hit(rv_mod.eval_at_point(pm, as_point(st2, [1.0, -1.0])) == -1.0)

    # compatibility
    compat.hit(rv_mod.compatible(pm, pm))
    axis = rv_mod.make_rv(st2, [(1.0, lat.from_span(st2, [[1.0, 0.0]])),
                                (-1.0, lat.from_span(st2, [[0.0, 1.0]]))])
    compat.hit(not rv_mod.compatible(pm, axis),
               witness={"note": "rotated level sets should not commute"})
    two_blocks = rv_mod.make_rv(st4, [
        (0.0, lat.from_points(st4, [0, 1])),
        (1.0, lat.from_points(st4, [2, 3]))])
    compat.hit(rv_mod.compatible(id_rv, two_blocks))

    # expectation is affine in the measure
    p = meas.pure_state(st2, [1.0, 0.0])
    q = meas.pure_state(st2, [1.0, 1.0])
    mixture = meas.mix([(0.25, p), (0.75, q)])
    lhs = rv_mod.expectation(pm, mixture).value
    rhs = (0.25 * rv_mod.expectation(pm, p).value
           + 0.75 * rv_mod.expectation(pm, q).value)
    affine.hit(abs(lhs - rhs) <= core.TOL_UNIT, abs(lhs - rhs))

    return [expect_id, die, pre, partial, compat, affine]


_SUITES = {
    "lattice": lattice_suite,
    "similarity": similarity_suite,
    "sigma": sigma_suite,
    "prob": prob_suite,
    "rv": rv_suite,
}
