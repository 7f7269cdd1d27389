import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cscforge import (
    INFINITY,
    AnnulusContainsSingularity,
    FootballMetric,
    MetricField,
    NonConicalSingularityPresent,
    build_third_kind,
    classify_singular_points,
    cli,
    estimate_cone_angle,
    exclusion_points,
    is_infinity,
    gauss_bonnet_check,
    phi_field_from_a0,
    solve_phi_closed,
    total_metric_area,
)
from cscforge import singularities
from conftest import random_real_residue_form
from oracles import chart_remainder_full_grid

TWO_PI = 2.0 * math.pi


def pair_form():
    return build_third_kind([(1j, 1.0), (-1j, 1.0)])


def metric_table(form, K):
    """The metric's singular-point table, keyed by location rounded to 1e-9."""
    field = MetricField(solve_phi_closed(form, None, 2.0), K=K)
    return {i.location if is_infinity(i.location) else complex(np.round(i.location, 9)): i
            for i in field.singular_points}


class TestPredictedDivisor:
    """The divisor the metric represents: the conical entries of its table,
    weight ``order`` at zeros and ``|residue| - 1`` at poles."""

    def test_two_equal_cones(self):
        table = metric_table(build_third_kind([(0j, 2.5)]), 1)
        assert set(table) == {0j, INFINITY}
        for p in (0j, INFINITY):
            assert table[p].conical_expected
            assert abs(table[p].divisor_weight - 1.5) < 1e-12

    def test_smooth_poles_omitted(self):
        table = metric_table(pair_form(), 1)
        for p in (0j, INFINITY):
            assert table[p].conical_expected and table[p].divisor_weight == 1.0
        for p in (1j, -1j):  # the unit-residue poles are smooth points
            assert table[p].predicted_angle == TWO_PI and not table[p].conical_expected
            assert table[p].divisor_weight == 0.0

    def test_flat_negative_residue_excluded(self):
        table = metric_table(build_third_kind([(0j, -3.0)]), 0)
        assert table[0j].divisor_weight == 0.0
        assert table[0j].predicted_angle is None
        assert not table[0j].conical_expected
        assert table[INFINITY].conical_expected
        assert abs(table[INFINITY].divisor_weight - 2.0) < 1e-12

    def test_spherical_keeps_negative_residue(self):
        table = metric_table(build_third_kind([(0j, -3.0)]), 1)
        assert table[0j].conical_expected
        assert abs(table[0j].divisor_weight - 2.0) < 1e-12


class TestSingularPointTable:
    @pytest.mark.parametrize("K", [1, 0, -1])
    def test_metric_field_table_is_the_classification(self, test_forms, K):
        for form in test_forms:
            m = MetricField(solve_phi_closed(form, None, 2.0), K=K)
            assert m.singular_points == tuple(classify_singular_points(form, K))
            finite = {p.location for p in form.singular_points
                      if not is_infinity(p.location)}
            assert set(exclusion_points(m)) == finite

    @pytest.mark.parametrize("fm", [
        FootballMetric(0.5),
        FootballMetric(1.0),
        FootballMetric(2.5),
        FootballMetric(3.0, "integer", 1.0),
    ])
    def test_football_table(self, fm):
        # the degree and the angle come from the two cone rows, exactly
        assert gauss_bonnet_check(fm).deg_d == 2 * (fm.alpha - 1)
        assert estimate_cone_angle(fm, 0j).predicted_angle == TWO_PI * fm.alpha
        assert exclusion_points(fm) == (0j,)


class TestConeAngles:
    def test_half_cone(self):
        fm = FootballMetric(0.5)
        rep = estimate_cone_angle(fm, 0j)
        assert abs(rep.fitted_angle - math.pi) <= 0.01 * math.pi
        assert rep.conical
        assert rep.regression_r2 >= 0.999

    def test_order_one_zero(self):
        m = MetricField(phi_field_from_a0(pair_form(), 0.0), K=1)
        rep = estimate_cone_angle(m, 0j)
        assert abs(rep.fitted_angle - 4 * math.pi) <= 0.01 * 4 * math.pi
        assert rep.predicted_angle == pytest.approx(4 * math.pi)

    def test_smooth_pole_measures_full_turn(self):
        m = MetricField(phi_field_from_a0(pair_form(), 0.0), K=1)
        rep = estimate_cone_angle(m, 1j)
        assert abs(rep.fitted_angle - TWO_PI) <= 0.01 * TWO_PI
        assert not rep.conical

    def test_infinity_chart(self):
        fm = FootballMetric(2.5)
        rep = estimate_cone_angle(fm, INFINITY)
        assert abs(rep.fitted_angle - 5 * math.pi) <= 0.01 * 5 * math.pi

    def test_flat_negative_residue_not_conical(self):
        form = build_third_kind([(0j, -3.0)])
        m = MetricField(phi_field_from_a0(form, 0.0), K=0)
        rep = estimate_cone_angle(m, 0j)
        assert not rep.conical
        assert rep.fitted_angle < 0  # divergent end, no cone angle
        # density blows up along the approach
        assert m.density(1e-4 + 0j) > 1e6 * m.density(1e-2 + 0j)

    def test_annulus_guard(self):
        m = MetricField(phi_field_from_a0(pair_form(), 0.0), K=1)
        with pytest.raises(AnnulusContainsSingularity):
            estimate_cone_angle(m, 0j, radii=np.geomspace(1e-3, 0.8, 8))

    def test_hyperbolic_degenerate_zero(self):
        # at a0 = 0 the field value at the zero z = 0 is exactly 2
        m = MetricField(phi_field_from_a0(pair_form(), 0.0), K=-1)
        rep = estimate_cone_angle(m, 0j)
        assert rep.note.startswith("degenerate")
        assert not rep.conical

    def test_integer_family_cone(self):
        fm = FootballMetric(2.0, "integer", 1.0)
        rep = estimate_cone_angle(fm, 0j)
        assert abs(rep.fitted_angle - 4 * math.pi) <= 0.01 * 4 * math.pi

    def test_hyperbolic_angles(self):
        # K = -1: pole angle 2 pi |residue|; zero angle 2 pi (order + 1)
        # provided the field value there is not 2
        form = build_third_kind([(0j, 2.5)])
        m = MetricField(phi_field_from_a0(form, 0.4), K=-1)
        rep = estimate_cone_angle(m, 0j)
        assert abs(rep.fitted_angle - 5 * math.pi) <= 0.01 * 5 * math.pi
        m2 = MetricField(phi_field_from_a0(pair_form(), 0.8), K=-1)
        rep2 = estimate_cone_angle(m2, 0j)
        assert rep2.note == ""
        assert abs(rep2.fitted_angle - 4 * math.pi) <= 0.01 * 4 * math.pi

    def test_flat_positive_residue_angle(self):
        # K = 0 with positive residue: a genuine cone of angle 2 pi residue
        form = build_third_kind([(0j, 1.5)])
        m = MetricField(phi_field_from_a0(form, 0.2), K=0)
        rep = estimate_cone_angle(m, 0j)
        assert abs(rep.fitted_angle - 3 * math.pi) <= 0.01 * 3 * math.pi
        assert rep.conical


class TestGaussBonnet:
    def test_round_sphere(self):
        form = build_third_kind([(0j, 1.0)])
        m = MetricField(phi_field_from_a0(form, 0.0), K=1)
        rep = gauss_bonnet_check(m)
        assert rep.deg_d == 0
        assert abs(rep.total_area - 4 * math.pi) < 0.01 * 4 * math.pi

    def test_doubled_cone(self):
        form = build_third_kind([(0j, 2.0)])
        m = MetricField(phi_field_from_a0(form, 0.0), K=1)
        rep = gauss_bonnet_check(m)
        assert abs(rep.total_area - 8 * math.pi) < 0.01 * 8 * math.pi

    def test_half_cone(self):
        form = build_third_kind([(0j, 0.5)])
        m = MetricField(phi_field_from_a0(form, 0.0), K=1)
        rep = gauss_bonnet_check(m)
        assert abs(rep.total_area - 2 * math.pi) < 0.01 * 2 * math.pi

    def test_only_spherical_allowed(self):
        form = build_third_kind([(0j, 2.0)])
        for K in (0, -1):
            m = MetricField(phi_field_from_a0(form, 0.0), K=K)
            with pytest.raises(NonConicalSingularityPresent):
                gauss_bonnet_check(m)

    def test_restated_on_generic_form(self, random_forms):
        form = random_forms[0]
        m = MetricField(solve_phi_closed(form, None, 2.0), K=1)
        rep = gauss_bonnet_check(m)
        assert rep.residual < 0.01 * rep.expected_area

    def test_family_area_helper(self):
        fm = FootballMetric(1.5)
        area = total_metric_area(fm).area
        assert abs(area - 6 * math.pi) < 0.01 * 6 * math.pi


class TestAreaQuadrature:
    def test_small_exponent_cap(self, capsys):
        # exponents 0.2 to 0.5 at both cones: the cap's outer panel
        # [ln 2, v_max] carries the bump's tail down a long conical decay
        for spec, rtol in (("simple:lambda=-0.41355958064846615", 1e-7),
                           ("simple:lambda=0.2", 1e-9),
                           ("simple:lambda=0.36", 1e-9),
                           ("simple:lambda=-0.5", 1e-9)):
            code = cli.main(["gauss-bonnet", "--standard", spec, "--K", "1"])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["residual"] <= rtol * doc["expected_area"], spec
            assert doc["error_estimate"] >= doc["residual"], spec
            assert doc["nodes"] > 0

    def test_bump_is_a_partition_of_unity(self):
        bump = singularities._bump
        assert bump(0.0) == 1.0 and bump(1.0) == 0.0
        t = np.linspace(0.0, 1.0, 10_001)
        assert np.max(np.abs(bump(t) + bump(1.0 - t) - 1.0)) <= 1e-15
        assert np.all(np.diff(bump(t)) <= 0.0)
        # flat to all orders at the cone: the remainder's weight 1 - bump
        # stays smooth there
        t = np.linspace(0.0, 0.03, 301)[1:]
        assert np.all(1.0 - bump(t) < t**8)

    def test_corpus_areas_against_gauss_bonnet(self, test_forms):
        # the exact area 2 pi (chi + deg D) is 2 pi times the sum of |residue|
        # over the poles, infinity included; the six standard forms stop at
        # the second level of both charts
        for k, form in enumerate(test_forms):
            est = total_metric_area(MetricField(solve_phi_closed(form, None, 2.0), K=1))
            exact = TWO_PI * (sum(abs(lam) for _, lam in form.poles)
                              + abs(form.residue_at_infinity()))
            error = abs(est.area - exact)
            assert error <= 1e-8 * exact, k
            if error > 1e-12 * exact:
                assert est.error_estimate >= error, k
            if k < 6:
                assert est.nodes <= 50_000, k

    @staticmethod
    def _record_pieces(monkeypatch):
        """Spy on the piece integrators: per chart, the remainder's radius and
        caps, the caps' (center, delta, exponent) in order and the highest
        doubling level evaluated."""
        charts = {}
        rem, cap = singularities._chart_remainder, singularities._cap_area

        def spy_rem(field, chart, radius, caps, n_r, n_theta):
            entry = charts.setdefault(chart, {"caps": [], "level": 0})
            entry.update(field=field, radius=radius, disks=caps)
            entry["level"] = max(entry["level"], n_r // 48)
            return rem(field, chart, radius, caps, n_r, n_theta)

        def spy_cap(field, chart, c, delta, a, n_gl, n_theta):
            entry = charts[chart]
            if (c, delta, a) not in entry["caps"]:
                entry["caps"].append((c, delta, a))
            entry["level"] = max(entry["level"], n_gl // 12)
            return cap(field, chart, c, delta, a, n_gl, n_theta)

        monkeypatch.setattr(singularities, "_chart_remainder", spy_rem)
        monkeypatch.setattr(singularities, "_cap_area", spy_cap)
        return charts, rem, cap

    def test_kept_pieces_match_the_full_level(self, monkeypatch):
        # every piece of every chart evaluated at each level up to the
        # chart's last: the kept pieces change the area only by rounding
        charts, rem, cap = self._record_pieces(monkeypatch)
        form = random_real_residue_form(101, 4)
        rep = gauss_bonnet_check(MetricField(solve_phi_closed(form, None, 2.0), K=1))
        assert max(e["level"] for e in charts.values()) == 8
        full_area, full_nodes = 0.0, 0
        for chart, e in charts.items():
            for scale in (s for s in (1, 2, 4, 8) if s <= e["level"]):
                value, used = rem(e["field"], chart, e["radius"], e["disks"],
                                  48 * scale, 96 * scale)
                full_nodes += used
                for c, delta, a in e["caps"]:
                    piece, used = cap(e["field"], chart, c, delta, a, 12 * scale, 24 * scale)
                    value += piece
                    full_nodes += used
            full_area += value
        assert abs(rep.total_area - full_area) <= 1e-13 * full_area
        assert rep.nodes < full_nodes
        assert rep.error_estimate >= rep.residual

    def test_remainder_weights_against_the_full_grid(self, monkeypatch):
        # each cap's bump weight is laid only on the rings it can reach; the
        # full-grid reference gives the same value and count, bit for bit
        form = random_real_residue_form(101, 4)
        charts, _, _ = self._record_pieces(monkeypatch)
        total_metric_area(MetricField(solve_phi_closed(form, None, 2.0), K=1))
        chart, top = next((ch, e) for ch, e in charts.items() if e["level"] == 8)
        football = FootballMetric(1.5)
        cases = [
            (top["field"], chart, top["radius"], top["disks"], 384, 768),
            (football, "z", 1.0, [(0j, 0.3)], 96, 192),
            (football, "z", 1.0, [(0j, 0.3), (0.8j, 0.2)], 192, 384),
        ]
        for field, chart, radius, caps, n_r, n_theta in cases:
            args = (field, chart, radius, caps, n_r, n_theta)
            assert singularities._chart_remainder(*args) == chart_remainder_full_grid(*args)


@given(seed=st.integers(0, 2**32 - 1), n_poles=st.integers(4, 6))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_area_error_estimate_covers_error(seed, n_poles):
    """Forms under the acceptance corpus rules, poles kept 0.3 from the
    default base point 1: the area is within 1e-5 and its error estimate
    bounds the measured error."""
    form = random_real_residue_form(seed, n_poles)
    assume(min(abs(a - 1.0) for a, _ in form.poles) >= 0.3)
    rep = gauss_bonnet_check(MetricField(solve_phi_closed(form, None, 2.0), K=1))
    assert rep.residual <= 1e-5 * rep.expected_area
    if rep.residual > 1e-12 * rep.expected_area:
        assert rep.error_estimate >= rep.residual
