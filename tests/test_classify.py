import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cscforge import (
    INFINITY,
    ComplexPolynomial,
    DegenerateA,
    ExactComplex,
    InvalidAlpha,
    InvalidCaseData,
    MetricField,
    NotMonomialIdentity,
    PatternMismatch,
    ResidueMismatch,
    StandardFormCase,
    ZeroMu,
    build_third_kind,
    estimate_cone_angle,
    football_metric,
    gauss_curvature_fd,
    normalize_form,
    phi_field_from_a0,
    reduce_to_football,
    standard_form,
    wronskian_identity_check,
)

from oracles import contour_residue


class TestStandardForm:
    def test_simple(self):
        form = standard_form(StandardFormCase("simple", 2.5))
        assert form.poles == ((0j, 2.5 + 0j),)
        assert abs(form.residue_at_infinity() + 2.5) < 1e-14

    def test_unit_residues(self):
        form = standard_form(StandardFormCase("unit_residues", 3))
        assert len(form.poles) == 3
        for a, lam in form.poles:
            assert abs(lam - 1.0) < 1e-14
            assert abs(a**3 + 1.0) < 1e-12
            assert abs(contour_residue(form.eta_at, a) - 1.0) < 1e-10
        assert abs(form.residue_at_infinity() + 3.0) < 1e-12

    def test_plus_minus(self):
        form = standard_form(StandardFormCase("plus_minus", 2, a=2 + 0j))
        plus = [a for a, lam in form.poles if abs(lam - 1) < 1e-12]
        minus = [a for a, lam in form.poles if abs(lam + 1) < 1e-12]
        assert len(plus) == len(minus) == 2
        for r in plus:
            assert abs(r**2 + 1.0) < 1e-12
        for s in minus:
            assert abs(s**2 + 2.0) < 1e-12
        assert form.infinity_pole_order() <= 0  # no pole at infinity

    def test_case_validation(self):
        with pytest.raises(InvalidCaseData):
            StandardFormCase("simple", 0.0)
        with pytest.raises(InvalidCaseData):
            StandardFormCase("unit_residues", 1)
        with pytest.raises(InvalidCaseData):
            StandardFormCase("plus_minus", 2, a=1.0 + 0j)
        with pytest.raises(InvalidCaseData):
            StandardFormCase("plus_minus", 2)
        with pytest.raises(InvalidCaseData):
            StandardFormCase("nope", 2)


class TestWronskianIdentity:
    def test_basic_success(self):
        t = ComplexPolynomial([1, 0, 1])
        s = ComplexPolynomial([3, 0, 1])
        alpha, mu = wronskian_identity_check(t, s)
        assert alpha == 2
        assert mu == ExactComplex(2)

    def test_stray_term(self):
        t = ComplexPolynomial([1, 1, 1])  # z^2 + z + 1
        s = ComplexPolynomial([3, 0, 1])
        with pytest.raises(NotMonomialIdentity):
            wronskian_identity_check(t, s)

    def test_equal_polynomials(self):
        t = ComplexPolynomial([1, 0, 1])
        with pytest.raises(ZeroMu):
            wronskian_identity_check(t, t)

    def test_shared_middle_coefficients_still_fail(self):
        # equal middle coefficients cancel pairwise but the tail survives
        t = ComplexPolynomial([1, 2, 0, 1])
        s = ComplexPolynomial([5, 2, 0, 1])
        with pytest.raises(NotMonomialIdentity):
            wronskian_identity_check(t, s)

    @given(
        st.integers(2, 8),
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_forced_shape_exact(self, alpha, t0r, t0i, s0r, s0i):
        t0 = ExactComplex(t0r, t0i)
        s0 = ExactComplex(s0r, s0i)
        if t0.is_zero or s0.is_zero or t0 == s0:
            return
        t = ComplexPolynomial.monomial(alpha, ExactComplex(1)) + ComplexPolynomial([t0])
        s = ComplexPolynomial.monomial(alpha, ExactComplex(1)) + ComplexPolynomial([s0])
        got_alpha, mu = wronskian_identity_check(t, s)
        assert got_alpha == alpha
        assert mu == s0 - t0


class TestNormalize:
    def test_simple_case(self):
        case = normalize_form(build_third_kind([(0j, 2.5)]))
        assert case.case == "simple"
        assert case.alpha == 2.5
        assert case.scale == 1.0 + 0j

    def test_unit_residues_scaled(self):
        form = build_third_kind([(2j, 1.0), (-2j, 1.0)])  # poles at roots of z^2+4
        case = normalize_form(form)
        assert case.case == "unit_residues"
        assert case.alpha == 2
        assert abs(case.scale - 2.0) < 1e-9

    def test_plus_minus_round_trip_with_prescale(self):
        std = standard_form(StandardFormCase("plus_minus", 2, a=2 + 0j))
        scaled = build_third_kind([(3 * a, lam) for a, lam in std.poles])
        case = normalize_form(scaled)
        assert case.case == "plus_minus"
        assert case.alpha == 2
        assert abs(case.a - 2.0) < 1e-9
        assert abs(case.scale - 3.0) < 1e-9

    def test_identity_round_trip(self):
        for spec in (
            StandardFormCase("simple", -1.3),
            StandardFormCase("unit_residues", 2),
            StandardFormCase("unit_residues", 5),
            StandardFormCase("plus_minus", 3, a=-1.5 + 0.8j),
        ):
            case = normalize_form(standard_form(spec))
            assert case.case == spec.case
            assert case.alpha == spec.alpha
            assert abs(case.scale - 1.0) < 1e-9
            if spec.a is not None:
                assert abs(case.a - spec.a) < 1e-9

    def test_residues_invariant_under_rescaling(self):
        std = standard_form(StandardFormCase("unit_residues", 3))
        p = 1.7 * np.exp(0.6j)
        scaled = build_third_kind([(p * a, lam) for a, lam in std.poles])
        case = normalize_form(scaled)
        for a, _ in scaled.poles:
            r_in = contour_residue(scaled.eta_at, a)
            r_std = contour_residue(std.eta_at, a / case.scale)
            assert abs(r_in - r_std) < 1e-9

    @given(
        case=st.sampled_from(["unit_residues", "plus_minus"]),
        alpha=st.integers(2, 9),
        log_p=st.floats(-2.0, 2.0),
        turn_p=st.floats(0.0, 1.0),
        log_a=st.floats(-1.0, 1.0),
        turn_a=st.floats(0.0, 1.0),
        pick=st.integers(0, 17),
        log_move=st.floats(-9.0, -3.0),
        turn_move=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_one_moved_pole_is_rejected(self, case, alpha, log_p, turn_p, log_a,
                                        turn_a, pick, log_move, turn_move):
        a = None
        if case == "plus_minus":
            a = 10.0**log_a * cmath.exp(2j * math.pi * turn_a)
            assume(abs(a - 1.0) >= 0.3)
        p = 10.0**log_p * cmath.exp(2j * math.pi * turn_p)
        poles = [(p * z, lam) for z, lam in standard_form(StandardFormCase(case, alpha, a)).poles]
        found = normalize_form(build_third_kind(poles))
        assert (found.case, found.alpha) == (case, alpha)
        assert found.scale**alpha == pytest.approx(p**alpha, rel=1e-12)
        if a is not None:
            assert found.a == pytest.approx(a, rel=1e-12)
        k = pick % len(poles)
        poles[k] = (poles[k][0] * (1 + 10.0**log_move * cmath.exp(2j * math.pi * turn_move)),
                    poles[k][1])
        with pytest.raises(PatternMismatch):
            normalize_form(build_third_kind(poles))

    def test_single_pole_off_origin_rejected(self):
        with pytest.raises(PatternMismatch):
            normalize_form(build_third_kind([(1.0 + 0j, 2.0)]))

    def test_wrong_residues_rejected(self):
        form = build_third_kind([(1j, 2.0), (-1j, -2.0)])
        with pytest.raises(ResidueMismatch):
            normalize_form(form)


class TestFootballMetric:
    def test_round_sphere_limit(self):
        fm = football_metric(1.0)
        w = 0.3 + 0.4j
        assert abs(fm.density(w) - 4.0 / (1 + abs(w) ** 2) ** 2) < 1e-14

    def test_integer_b0_matches_generic(self):
        g = football_metric(2.0)
        i = football_metric(2.0, "integer", 0.0)
        for w in (0.2 + 0.1j, 1.5 - 0.8j, -2.0 + 0j):
            assert abs(g.density(w) - i.density(w)) < 1e-13

    def test_integer_with_offset_vanishes_at_origin(self):
        fm = football_metric(2.0, "integer", 1.0)
        assert fm.density(0j) == 0.0
        assert fm.density(1e-8 + 0j) < 1e-14

    def test_invalid(self):
        with pytest.raises(InvalidAlpha):
            football_metric(0.0)
        with pytest.raises(InvalidAlpha):
            football_metric(-2.0)
        with pytest.raises(InvalidAlpha):
            football_metric(2.5, "integer", 1.0)

    def test_curvature_and_angles(self):
        fm = football_metric(2.0, "integer", 1.0)
        pts = []
        rng = np.random.default_rng(8)
        while len(pts) < 200:
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if 0.45 < abs(z) < 1.5:
                pts.append(z)
        rep = gauss_curvature_fd(fm, np.array(pts), h=1e-3)
        assert rep.max_abs_residual < 1e-4
        for point in (0j, INFINITY):
            ang = estimate_cone_angle(fm, point)
            assert abs(ang.fitted_angle - 4 * math.pi) <= 0.01 * 4 * math.pi


class TestReduceToFootball:
    def test_simple_scaling(self):
        a0 = 0.8
        p, fm = reduce_to_football(StandardFormCase("simple", 2.5), a0)
        assert fm.variant == "generic"
        assert fm.alpha == 2.5
        assert abs(p - math.exp(-a0 / 5.0)) < 1e-15

    def test_simple_negative_residue(self):
        a0 = 0.8
        p, fm = reduce_to_football(StandardFormCase("simple", -2.5), a0)
        assert fm.alpha == 2.5
        assert abs(p - math.exp(a0 / 5.0)) < 1e-15

    def test_unit_residues(self):
        p, fm = reduce_to_football(StandardFormCase("unit_residues", 2), 0.0)
        assert abs(p - 1.0) < 1e-15
        assert fm.variant == "integer"
        assert fm.b == 1.0

    def test_plus_minus_worked_example(self):
        p, fm = reduce_to_football(StandardFormCase("plus_minus", 2, a=2 + 0j), 0.0)
        assert abs(abs(p) ** 2 - 0.5) < 1e-14
        assert abs(fm.b - 3.0) < 1e-12

    def test_degenerate_a(self):
        bogus = SimpleNamespace(case="plus_minus", alpha=2, a=1.0 + 0j, scale=1.0)
        with pytest.raises(DegenerateA):
            reduce_to_football(bogus, 0.0)

    def test_pipeline_equality(self):
        case = StandardFormCase("plus_minus", 3, a=-1.5 + 0.8j)
        a0 = 0.6
        p, fm = reduce_to_football(case, a0)
        form = standard_form(case)
        m = MetricField(phi_field_from_a0(form, a0), K=1)
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 50:
            w = complex(rng.uniform(0.3, 1.6) * np.exp(2j * np.pi * rng.uniform()))
            if form.min_pole_distance(p * w) < 0.1:
                continue
            checked += 1
            assert abs(fm.density(w) - m.density(p * w) * abs(p) ** 2) < 1e-9
