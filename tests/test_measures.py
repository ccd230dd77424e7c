"""Event measures: pure states, lookup tables, mixtures, and the axioms.

A measure is graded per axiom with ``pass`` / ``fail-certified``: every
subspace similarity it reads is exact, and every failure carries a witness.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from starprob import (
    SPStructure,
    from_points,
    from_span,
    generate_sigma_star,
    join,
    measures_equal,
    mix,
    ortho_complement,
    pure_state,
    table_measure,
    validate_measure,
)
from starprob.errors import EventNotInField, WeightsNotConvex
from starprob.io import load_field, load_measure, measure_report_to_dict
from starprob import lattice
from starprob import measures as meas
from starprob.cli import run_command
from starprob.lattice import RaySubspace
from starprob.measures import FAIL_CERTIFIED, PASS, evaluate, first_difference
from starprob.structures import TOL_EQ, as_point


# ---------------------------------------------------------------------------
# pure states


class TestPureStates:
    def test_values_on_single_line_field(self, ray2, fixture_dir):
        fld = load_field(ray2, fixture_dir / "field_ray2_line.json")
        p = pure_state(ray2, [1.0, 0.0], fld)
        assert [evaluate(p, e) for e in fld.events] == [0.0, 0.0, 1.0, 1.0]

    def test_values_follow_squared_cosine(self, ray2, fixture_dir):
        fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
        g = math.radians(30.0)
        p = pure_state(ray2, [1.0, 0.0], fld)
        tilted = next(
            e for e in fld.events if e.dim == 1 and abs(e.frame[0, 0] - math.cos(g)) < 1e-9
        )
        assert evaluate(p, tilted) == pytest.approx(math.cos(g) ** 2, abs=1e-12)

    def test_axioms_pass_on_generated_fields(self, ray2, classical4, wheel, fixture_dir):
        cases = [
            (classical4, pure_state(classical4, 1, generate_sigma_star(classical4, [[0], [1], [2], [3]]))),
            (ray2, pure_state(ray2, [0.6, 0.8], load_field(ray2, fixture_dir / "field_ray2_line.json"))),
            (ray2, pure_state(ray2, [1.0, 0.0], load_field(ray2, fixture_dir / "field_ray2_twolines.json"))),
            (wheel, pure_state(wheel, 0, load_field(wheel, fixture_dir / "field_explicit4_twopoints.json"))),
        ]
        for _, p in cases:
            report = validate_measure(p)
            assert report.overall == PASS, measure_report_to_dict(report)
            assert [c.law for c in report.checks] == [
                "empty_event_zero",
                "full_event_one",
                "orthogonal_additivity",
                "continuity_bound",
            ]

    def test_continuity_fails_on_lines_closer_than_30_degrees(self, ray3):
        # the half-coefficient gap of acceptance criterion 03 in the measure
        # layer: the normals of two planes 1e-4 apart are lines at an angle
        # g of about 1e-4, where p_A - p_B may reach sin(g) but the bound
        # allows only sin(g)/2 + sin(g)^2
        a = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1e-4]])
        fld = generate_sigma_star(ray3, [a, b])
        check = validate_measure(pure_state(ray3, [1, 2, 3]), fld).check("continuity_bound")
        assert check.status == FAIL_CERTIFIED
        w = check.witness
        assert [from_points(ray3, ev) for ev in w["events"]] == [
            ortho_complement(a), ortho_complement(b)]
        assert w["p_A"] == pytest.approx(9 / 14, abs=1e-12)
        assert w["p_B"] == pytest.approx(0.6427714, abs=1e-7)
        assert w["bound"] == pytest.approx(0.6428214, abs=1e-7)
        assert w["similarity"] == pytest.approx(1.0 - 1e-8, abs=1e-14)
        # the unit coefficient would hold: the gap stays within sin(g)
        assert w["bound"] < w["p_A"] <= w["p_B"] + math.sqrt(1.0 - w["similarity"])

    def test_additivity_allows_the_projector_gap_of_nearly_orthogonal_parts(self, ray3):
        # span(e3) and the plane tilted 1e-5 towards it are orthogonal
        # within TOL_EQ (squared cosine 1e-10), so the join's projector is
        # not their projectors' sum; a pure state misses additivity by
        # 8.57e-6 on them, within the spectral norm of the gap
        line = from_span(ray3, [[0.0, 0.0, 1.0]])
        plane = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1e-5]])
        fld = generate_sigma_star(ray3, [line, plane])
        assert len(fld.events) == 4
        p = pure_state(ray3, [1, 2, 3])
        assert validate_measure(p, fld).check("orthogonal_additivity").status == PASS
        res = abs(evaluate(p, join(line, plane)) - evaluate(p, line) - evaluate(p, plane))
        assert res == pytest.approx(8.57e-6, abs=1e-8)
        # the allowance is the parts' cross cosine, 1e-5
        assert RaySubspace.sum_gap((line, plane)) == pytest.approx(1e-5, rel=1e-6)
        assert 1e-9 < res <= 1e-9 + RaySubspace.sum_gap((line, plane))
        # a table keeps TOL_EQ: the same values as a table fail, certified
        twin = table_measure(fld, [evaluate(p, e) for e in fld.events])
        check = validate_measure(twin).check("orthogonal_additivity")
        assert check.status == FAIL_CERTIFIED
        assert check.witness["residual"] == pytest.approx(8.57e-6, abs=1e-8)

    def test_additivity_allowance_does_not_hide_a_wrong_join(self, ray3, monkeypatch):
        # the allowance comes from the parts, not from the join under test:
        # a join that returns its first operand misses p(B), far past 1e-5
        a = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = from_span(ray3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1e-5]])
        fld = generate_sigma_star(ray3, [a, b])
        p = pure_state(ray3, [1, 2, 3])
        monkeypatch.setattr(lattice, "join", lambda first, *rest: first)
        check = validate_measure(p, fld).check("orthogonal_additivity")
        assert check.status == FAIL_CERTIFIED
        assert check.witness["residual"] > 0.1

    def test_additivity_takes_the_gap_only_past_the_tolerance(self, ray2, fixture_dir,
                                                              monkeypatch):
        def no_gap(parts):
            raise AssertionError("a passing residual took the projector gap")

        monkeypatch.setattr(RaySubspace, "sum_gap", staticmethod(no_gap))
        fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
        for x in ([1.0, 0.0], [1.0, 2.0], [3.0, -1.0]):
            report = validate_measure(pure_state(ray2, x, fld))
            assert report.check("orthogonal_additivity").status == PASS

    def test_pure_state_point_is_canonicalized(self, ray2, fixture_dir):
        fld = load_field(ray2, fixture_dir / "field_ray2_line.json")
        p = pure_state(ray2, [-2.0, 0.0], fld)  # scales and flips to (1, 0)
        assert evaluate(p, fld.events[2]) == 1.0


# ---------------------------------------------------------------------------
# table measures


class TestTableMeasures:
    def test_lookup(self, ray2, fixture_dir):
        m = load_measure(ray2, fixture_dir / "measure_table_bad_additivity.json")
        assert m.kind == "table"
        assert [evaluate(m, e) for e in m.field.events] == [0.0, 0.6, 0.6, 1.0]

    def test_additivity_violation_certified(self, ray2, fixture_dir):
        """0.6 on a line plus 0.6 on its complement cannot reach 1."""
        m = load_measure(ray2, fixture_dir / "measure_table_bad_additivity.json")
        report = validate_measure(m)
        assert report.overall == FAIL_CERTIFIED
        check = report.check("orthogonal_additivity")
        assert check.status == FAIL_CERTIFIED
        assert check.witness["events"] == [[[0.0, 1.0]], [[1.0, 0.0]]]
        assert check.witness["residual"] == pytest.approx(0.2, abs=1e-12)

    def test_table_must_cover_every_event(self, ray2, fixture_dir):
        fld = load_field(ray2, fixture_dir / "field_ray2_line.json")
        from starprob.errors import FormatError

        with pytest.raises(FormatError):
            table_measure(fld, {0: 0.0, 3: 1.0})  # missing events 1 and 2

    def test_event_outside_field_rejected(self, ray2, fixture_dir):
        m = load_measure(ray2, fixture_dir / "measure_table_bad_additivity.json")
        diag = from_span(ray2, [[1.0, 1.0]])
        with pytest.raises(EventNotInField):
            evaluate(m, diag)


# ---------------------------------------------------------------------------
# mixtures


class TestMixtures:
    def test_mixture_is_affine(self, ray2, fixture_dir):
        fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
        p = pure_state(ray2, [1.0, 0.0], fld)
        q = pure_state(ray2, [0.0, 1.0], fld)
        m = mix([(0.25, p), (0.75, q)])
        for e in fld.events:
            want = 0.25 * evaluate(p, e) + 0.75 * evaluate(q, e)
            assert evaluate(m, e) == want  # exact: same ordered float sum

    def test_weights_must_be_convex(self, ray2, fixture_dir):
        fld = load_field(ray2, fixture_dir / "field_ray2_line.json")
        p = pure_state(ray2, [1.0, 0.0], fld)
        with pytest.raises(WeightsNotConvex):
            mix([(0.7, p), (0.7, p)])
        with pytest.raises(WeightsNotConvex):
            mix([(-0.2, p), (1.2, p)])

    @pytest.mark.parametrize("weights", [
        [math.nan, math.nan], [math.nan], [math.inf, 0.5], [-math.inf, math.inf],
        [math.inf], [0.5, 0.5, math.nan]])
    def test_weights_must_be_finite(self, ray2, weights):
        # NaN compares false both ways and a single component skips the sum
        # test, so without the finiteness check these would all mix
        p = pure_state(ray2, [1.0, 0.0])
        with pytest.raises(WeightsNotConvex, match="finite"):
            mix([(w, p) for w in weights])

    def test_axis_mixture_equals_diagonal_mixture(self, ray2, fixture_dir):
        """The flat mixture of any orthonormal pair is the same state.

        (1/2)P_x + (1/2)P_y is half the identity for every orthonormal
        basis {x, y}, so mixing the coordinate axes and mixing the two
        diagonals produce indistinguishable measures -- mixtures do not
        remember their ingredients.
        """
        axes = load_measure(ray2, fixture_dir / "measure_mix_axes.json")
        diags = load_measure(ray2, fixture_dir / "measure_mix_diagonals.json")
        assert measures_equal(axes, diags)
        fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
        for e in fld.events:
            assert evaluate(axes, e) == pytest.approx(evaluate(diags, e), abs=1e-12)

    def test_mixture_differs_from_its_components(self, ray2, fixture_dir):
        axes = load_measure(ray2, fixture_dir / "measure_mix_axes.json")
        p = pure_state(ray2, [1.0, 0.0], load_field(ray2, fixture_dir / "field_ray2_line.json"))
        assert not measures_equal(axes, p)
        # the witness: the measures differ there and agree on every event before
        fld = load_field(ray2, fixture_dir / "field_ray2_twolines.json")
        event = first_difference(axes, p, fld)
        assert abs(evaluate(axes, event) - evaluate(p, event)) > 1e-12
        before = fld.events[:fld.index_of(event)]
        assert all(evaluate(axes, e) == pytest.approx(evaluate(p, e), abs=1e-12)
                   for e in before)
        diags = load_measure(ray2, fixture_dir / "measure_mix_diagonals.json")
        assert first_difference(axes, diags, fld) is None

    def test_classical_uniform_mixture_is_counting_measure(self, classical6):
        fld = generate_sigma_star(classical6, [[i] for i in range(6)])
        parts = [(1.0 / 6.0, pure_state(classical6, i, fld)) for i in range(5)]
        parts.append((1.0 - sum(w for w, _ in parts), pure_state(classical6, 5, fld)))
        m = mix(parts)
        for e in fld.events:
            assert evaluate(m, e) == pytest.approx(len(e.points) / 6.0, abs=1e-12)
        assert validate_measure(m).overall == PASS


def test_classical_points_print_as_labels_and_events_as_indices(classical4):
    p = pure_state(classical4, 2)
    assert p.describe() == {"kind": "pure", "point": "2"}
    m = mix([(0.5, p), (0.5, pure_state(classical4, 3))])
    assert m.describe() == {"kind": "mixed", "components": [[0.5, "2"], [0.5, "3"]]}
    assert from_points(classical4, [2, 1]).to_literal() == (1, 2)


# ---------------------------------------------------------------------------
# equality of measures


def test_measures_equal_does_not_depend_on_samples_or_seed(ray2, fixture_dir):
    axes = load_measure(ray2, fixture_dir / "measure_mix_axes.json")
    diags = load_measure(ray2, fixture_dir / "measure_mix_diagonals.json")
    e1 = pure_state(ray2, [1.0, 0.0])
    for samples, seed in ((0, 0), (200, 9), (1000, 123)):
        assert measures_equal(axes, diags, samples=samples, seed=seed)
        assert not measures_equal(axes, e1, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# field-free measures, decided on the events of the closed form


def _excess(check):
    w = check.witness
    return w["p_A"] - w["bound"]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_pure_states_break_continuity_by_a_sixteenth(d):
    st = SPStructure.ray(d)
    report = validate_measure(pure_state(st, np.eye(d)[0]))
    check = report.check("continuity_bound")
    assert check.status == FAIL_CERTIFIED and report.overall == FAIL_CERTIFIED
    assert _excess(check) == pytest.approx(1 / 16, abs=1e-12)
    assert check.witness["similarity"] == pytest.approx(15 / 16, abs=1e-12)
    assert [report.check(law).status for law in
            ("empty_event_zero", "full_event_one", "orthogonal_additivity")] == [PASS] * 3


def test_cli_fails_the_ray5_pure_state(tmp_path, capsys):
    (tmp_path / "ray5.json").write_text('{"kind": "ray", "d": 5}')
    (tmp_path / "e1.json").write_text('{"kind": "pure", "point": [1, 0, 0, 0, 0]}')
    argv = ["prob", "validate", tmp_path / "ray5.json", tmp_path / "e1.json", "--json"]
    assert run_command([str(a) for a in argv]) == 1
    checks = json.loads(capsys.readouterr().out)["report"]["checks"]
    continuity = next(c for c in checks if c["name"] == "continuity_bound")
    assert continuity["status"] == FAIL_CERTIFIED
    w = continuity["witness"]
    assert w["p_A"] - w["bound"] == pytest.approx(1 / 16, abs=1e-12)


def _spread_state(st, spread):
    """The mixture of the axes whose rho is diag(spread + c, c, ..., c)."""
    c = (1.0 - spread) / st.d
    return mix([(spread + c if i == 0 else c, pure_state(st, v))
                for i, v in enumerate(np.eye(st.d))])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_continuity_fails_exactly_past_a_spread_of_a_half(d):
    st = SPStructure.ray(d)
    # just past a half the worst lines are closer than TOL_EQ, so they are ==
    # and the true excess, 2.5e-11 at 0.50001, is within the tolerance
    for spread in (0.0, 0.2, 0.4, 0.49, 0.5, 0.50001, 0.51, 0.6, 0.75, 0.9, 1.0):
        check = validate_measure(_spread_state(st, spread)).check("continuity_bound")
        if spread <= 0.5 or (spread - 0.5) ** 2 / 4 <= TOL_EQ:
            assert check.status == PASS and not check.witnesses, spread
        else:
            assert check.status == FAIL_CERTIFIED, spread
            assert _excess(check) == pytest.approx((spread - 0.5) ** 2 / 4, abs=1e-12)


def test_a_spread_under_a_half_passes_with_no_close_lines():
    st = SPStructure.ray(3)
    p = mix([(w, pure_state(st, v)) for w, v in zip((0.5, 0.3, 0.2), np.eye(3))])
    assert validate_measure(p).overall == PASS
    lines = [e for e in meas._deciding_events(p) if e.dim == 1]
    assert len(lines) == 3
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            assert a != b  # no two lines within TOL_EQ of each other


def test_classical_difference_is_the_total_variation(classical6, fixture_dir):
    uniform = load_measure(classical6, fixture_dir / "measure_uniform6.json")
    point = pure_state(classical6, 0)
    event = first_difference(uniform, point)
    assert event.to_literal() == (1, 2, 3, 4, 5)
    assert evaluate(uniform, event) - evaluate(point, event) == pytest.approx(5 / 6, abs=1e-12)
    assert first_difference(uniform, uniform) is None


def test_classical_measures_are_checked_on_every_atom(classical6, fixture_dir):
    uniform = load_measure(classical6, fixture_dir / "measure_uniform6.json")
    with mock.patch.object(meas, "evaluate", wraps=meas.evaluate) as calls:
        assert validate_measure(uniform).overall == PASS
    seen = {c.args[1].points for c in calls.call_args_list}
    assert {frozenset([x]) for x in range(6)} <= seen
    assert {frozenset(), frozenset(range(6))} <= seen


def test_explicit_measures_are_checked_on_every_carrier(wheel):
    carriers = wheel.explicit_lattice()["carrier_list"]
    for p in (pure_state(wheel, 0), mix([(0.5, pure_state(wheel, 0)),
                                         (0.5, pure_state(wheel, 1))])):
        with mock.patch.object(meas, "evaluate", wraps=meas.evaluate) as calls:
            assert validate_measure(p).overall == PASS
        seen = {c.args[1].points for c in calls.call_args_list}
        assert set(carriers) <= seen
    assert first_difference(pure_state(wheel, 0), pure_state(wheel, 0)) is None
    event = first_difference(pure_state(wheel, 0), pure_state(wheel, 1))
    assert event.points in carriers


@given(hs.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pure_state_total_mass_on_any_line(seed):
    # p(L) + p(L-perp) = 1 for every line: additivity at its smallest
    rng = np.random.default_rng(seed)
    st = SPStructure.ray(2)
    fld = generate_sigma_star(st, [[[1.0, 0.0]]])
    x = as_point(st, rng.standard_normal(2))
    p = pure_state(st, x, fld)
    line = fld.events[2]
    perp = fld.events[1]
    assert evaluate(p, line) + evaluate(p, perp) == pytest.approx(1.0, abs=1e-12)
