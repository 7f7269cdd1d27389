import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscforge import (
    INFINITY,
    ComplexPolynomial,
    Divisor,
    ExactComplex,
    build_third_kind,
    residue_at_infinity,
)

from oracles import contour_residue


class TestExactComplex:
    def test_arithmetic(self):
        a = ExactComplex(1, 2)
        b = ExactComplex(Fraction(1, 3), -1)
        assert a + b == ExactComplex(Fraction(4, 3), 1)
        assert a * b == ExactComplex(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
        assert (a / b) * b == a
        assert -a == ExactComplex(-1, -2)
        assert complex(a) == 1 + 2j

    def test_division_exact(self):
        x = ExactComplex(2, 1) / ExactComplex(1, 1)
        assert x == ExactComplex(Fraction(3, 2), Fraction(-1, 2))


class TestPolynomialArithmetic:
    def test_derivative_power_rule(self):
        p = ComplexPolynomial([1, 0, 1])  # z^2 + 1, exact
        assert p.derivative() == ComplexPolynomial([0, 2])

    def test_product_expansion(self):
        p = ComplexPolynomial([1, 0, 1])
        q = ComplexPolynomial([3, 0, 1])
        assert p * q == ComplexPolynomial([3, 0, 4, 0, 1])

    def test_product_rule_combination_is_exact(self):
        # t's - ts' for t = z^2+1, s = z^2+3 comes out exactly 4z
        t = ComplexPolynomial([1, 0, 1])
        s = ComplexPolynomial([3, 0, 1])
        w = t.derivative() * s - t * s.derivative()
        assert w == ComplexPolynomial([0, 4])
        assert w.exact

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_derivative_drops_degree_by_one(self, coeffs):
        p = ComplexPolynomial(coeffs)
        if p.degree >= 1:
            assert p.derivative().degree == p.degree - 1

    def test_regimes(self):
        assert ComplexPolynomial([1, Fraction(1, 2)]).exact
        assert not ComplexPolynomial([1.0, 2]).exact
        assert ComplexPolynomial([]).degree == -1
        assert ComplexPolynomial([0, 0]).is_zero

    def test_from_roots_and_eval(self):
        p = ComplexPolynomial.from_roots([1j, -1j])
        assert np.allclose(p.to_complex_array(), [1, 0, 1])
        assert abs(p(2.0) - 5.0) < 1e-14
        assert np.allclose(sorted(p.roots(), key=lambda z: z.imag), [-1j, 1j])


class TestResidues:
    """The table keeps each pole's given residue; the contour integral of
    the evaluated form agrees with it."""

    def test_defining_case(self):
        form = build_third_kind([(0j, 1.0)])  # 1/z
        assert form.singular_point_at(0j).residue == 1.0
        assert abs(contour_residue(form.eta_at, 0j) - 1.0) < 1e-12

    def test_unit_residue_pole(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])  # 2z/(z^2+1)
        assert form.singular_point_at(1j).residue == 1.0
        assert abs(contour_residue(form.eta_at, 1j) - 1.0) < 1e-8

    def test_negative_residue_with_contour_oracle(self):
        # 2 (2-1) z / ((z^2+2)(z^2+1)) has residue -1 at i sqrt(2)
        a = 1j * cmath.sqrt(2)
        form = build_third_kind([(1j, 1.0), (-1j, 1.0), (a, -1.0), (-a, -1.0)])
        assert form.singular_point_at(a).residue == -1.0
        assert abs(contour_residue(form.eta_at, a) - (-1.0)) < 1e-8

    def test_not_a_pole(self):
        form = build_third_kind([(0j, 1.0)])
        assert form.singular_point_at(1.0 + 0j) is None


class TestResidueAtInfinity:
    def test_simple(self):
        assert residue_at_infinity([3.0]) == -3.0
        form = build_third_kind([(0j, 3.0)])  # 3/z
        assert form.residue_at_infinity() == -3.0
        assert form.infinity_pole_order() == 1

    def test_residue_theorem(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        assert form.residue_at_infinity() == -2.0
        assert form.singular_point_at(INFINITY).residue == -2.0

    def test_vanishing(self):
        a = 1j * cmath.sqrt(2)
        form = build_third_kind([(1j, 1.0), (-1j, 1.0), (a, -1.0), (-a, -1.0)])
        assert form.residue_at_infinity() == 0
        assert form.infinity_pole_order() <= 0

    def test_double_pole_of_dz(self):
        form = build_third_kind([], ComplexPolynomial([0.0, 1.0]))  # dz
        assert form.infinity_pole_order() == 2
        assert form.residue_at_infinity() == 0


class TestDivisor:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Divisor.from_pairs([(0j, 1), (0j, 2)])

    def test_degree_and_weight(self):
        d = Divisor.from_pairs([(0j, 1.5), (INFINITY, -3.5)])
        assert d.degree == -2.0
        assert d.weight_at(0j) == 1.5
        assert d.weight_at(INFINITY) == -3.5
        assert d.weight_at(1j) == 0

    def test_matches(self):
        d1 = Divisor.from_pairs([(0j, 1), (INFINITY, -3)])
        d2 = Divisor.from_pairs([(1e-12 + 0j, 1), (INFINITY, -3)])
        assert d1.matches(d2)
        assert not d1.matches(Divisor.from_pairs([(0j, 1), (INFINITY, -2)]))


class TestOneFormDivisor:
    def test_single_pole(self):
        d = build_third_kind([(0j, 3.0)]).divisor()
        assert d.weight_at(0j) == -1
        assert d.weight_at(INFINITY) == -1
        assert d.degree == -2

    def test_zero_and_poles(self):
        d = build_third_kind([(1j, 1.0), (-1j, 1.0)]).divisor()
        assert d.weight_at(0j) == 1
        assert d.weight_at(1j) == -1
        assert d.weight_at(-1j) == -1
        assert d.weight_at(INFINITY) == -1

    def test_constant_form(self):
        d = build_third_kind([], ComplexPolynomial([0.0, 1.0])).divisor()
        assert d.weight_at(INFINITY) == -2
        assert len(d) == 1

    def test_multiple_zero_confirmed_by_contour(self):
        # 3 z^2 / (z^3 + 1) from its poles, and z^2 dz from H = z^3/3 alone:
        # an order-2 zero at 0 despite float jitter
        poles = [(cmath.exp(1j * cmath.pi * (2 * k + 1) / 3), 1.0) for k in range(3)]
        for form in (build_third_kind(poles),
                     build_third_kind([], ComplexPolynomial([0.0, 0.0, 0.0, 1.0 / 3.0]))):
            d = form.divisor()
            assert d.weight_at(0j) == 2
            assert d.degree == -2


class TestFormInvariants:
    def test_divisor_degree_minus_two(self, test_forms):
        for form in test_forms:
            assert form.divisor().degree == -2

    def test_residues_sum_to_zero(self, test_forms):
        for form in test_forms:
            total = sum(lam for _, lam in form.poles) + form.residue_at_infinity()
            assert abs(total) < 1e-12
