import cmath
from fractions import Fraction

import numpy as np
import pytest

from cscforge import (
    INFINITY,
    ComplexPolynomial,
    ExactComplex,
    ZeroTableFailed,
    build_third_kind,
    residue_at_infinity,
)
from cscforge.algebra import _point_key

from oracles import contour_residue, eta


class TestExactComplex:
    def test_arithmetic(self):
        a = ExactComplex(1, 2)
        b = ExactComplex(Fraction(1, 3), -1)
        assert a + b == ExactComplex(Fraction(4, 3), 1)
        assert a * b == ExactComplex(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
        assert (a / b) * b == a
        assert complex(a) == 1 + 2j

    def test_division_exact(self):
        x = ExactComplex(2, 1) / ExactComplex(1, 1)
        assert x == ExactComplex(Fraction(3, 2), Fraction(-1, 2))


class TestPolynomialArithmetic:
    def test_regimes(self):
        p = ComplexPolynomial([1, Fraction(1, 2)])
        assert p.coeffs == (ExactComplex(1), ExactComplex(Fraction(1, 2)))
        with pytest.raises(TypeError):
            ComplexPolynomial([1.0, 2])
        assert ComplexPolynomial([]).degree == -1
        assert ComplexPolynomial([0, 0]).degree == -1

    def test_eval_and_roots(self):
        p = ComplexPolynomial([1, 0, 1])  # (z - i)(z + i)
        assert np.allclose(sorted(p.roots(), key=lambda z: z.imag), [-1j, 1j])


class TestResidues:
    """The table keeps each pole's given residue; the contour integral of
    the evaluated form agrees with it."""

    def test_defining_case(self):
        form = build_third_kind([(0j, 1.0)])  # 1/z
        assert form.singular_point_at(0j).residue == 1.0
        assert abs(contour_residue(lambda z: eta(form, z), 0j) - 1.0) < 1e-12

    def test_unit_residue_pole(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])  # 2z/(z^2+1)
        assert form.singular_point_at(1j).residue == 1.0
        assert abs(contour_residue(lambda z: eta(form, z), 1j) - 1.0) < 1e-8

    def test_negative_residue_with_contour_oracle(self):
        # 2 (2-1) z / ((z^2+2)(z^2+1)) has residue -1 at i sqrt(2)
        a = 1j * cmath.sqrt(2)
        form = build_third_kind([(1j, 1.0), (-1j, 1.0), (a, -1.0), (-a, -1.0)])
        assert form.singular_point_at(a).residue == -1.0
        assert abs(contour_residue(lambda z: eta(form, z), a) - (-1.0)) < 1e-8

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
        form = build_third_kind([], [0.0, 1.0])  # dz
        assert form.infinity_pole_order() == 2
        assert form.residue_at_infinity() == 0


def weight_at(form, point):
    """The divisor weight of the form at ``point``: its table entry's, else 0."""
    entry = form.singular_point_at(point)
    return 0 if entry is None else entry.weight


def degree(form):
    return sum(p.weight for p in form.singular_points)


class TestDivisor:
    """The divisor of a form is its table of zeros and poles."""

    def test_duplicate_rejected(self):
        # the eigensolver puts the zero of 1/(z - 1) + d(z + 1e-200 z^2) near
        # 0 on the pole
        form = build_third_kind([(1 + 0j, 1.0)], [0.0, 1.0, 1e-200])
        with pytest.raises(ZeroTableFailed, match="coincide"):
            form.singular_points

    def test_degree_and_weight(self):
        # 2z/(z^2+1) - 2z/(z^2+2) = 2z/((z^2+1)(z^2+2)): simple zeros at 0
        # and at infinity, four simple poles
        a = 1j * cmath.sqrt(2)
        form = build_third_kind([(1j, 1.0), (-1j, 1.0), (a, -1.0), (-a, -1.0)])
        table = form.singular_points
        assert degree(form) == -2
        assert weight_at(form, 0j) == 1
        assert weight_at(form, INFINITY) == 1
        assert weight_at(form, 2j) == 0
        assert all(p.weight != 0 for p in table)
        assert list(table) == sorted(table, key=lambda p: _point_key(p.location))
        assert form.divisor() == tuple((p.location, p.weight) for p in table)

    def test_matches(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        zero = form.singular_point_at(1e-12 + 0j)
        assert zero.weight == 1 and abs(zero.location) < 1e-15
        assert form.singular_point_at(1e-6 + 0j) is None
        negated = form.negated()
        assert len(negated.singular_points) == len(form.singular_points)
        for p in form.singular_points:
            assert negated.singular_point_at(p.location).weight == p.weight


class TestOneFormDivisor:
    def test_single_pole(self):
        form = build_third_kind([(0j, 3.0)])
        assert weight_at(form, 0j) == -1
        assert weight_at(form, INFINITY) == -1
        assert degree(form) == -2

    def test_zero_and_poles(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        assert weight_at(form, 0j) == 1
        assert weight_at(form, 1j) == -1
        assert weight_at(form, -1j) == -1
        assert weight_at(form, INFINITY) == -1

    def test_constant_form(self):
        form = build_third_kind([], [0.0, 1.0])
        assert weight_at(form, INFINITY) == -2
        assert len(form.singular_points) == 1

    def test_multiple_zero_confirmed_by_contour(self):
        # 3 z^2 / (z^3 + 1) from its poles, and z^2 dz from H = z^3/3 alone:
        # an order-2 zero at 0 despite float jitter
        poles = [(cmath.exp(1j * cmath.pi * (2 * k + 1) / 3), 1.0) for k in range(3)]
        for form in (build_third_kind(poles),
                     build_third_kind([], [0.0, 0.0, 0.0, 1.0 / 3.0])):
            assert weight_at(form, 0j) == 2
            assert degree(form) == -2


class TestFormInvariants:
    def test_divisor_degree_minus_two(self, test_forms):
        for form in test_forms:
            assert degree(form) == -2

    def test_residues_sum_to_zero(self, test_forms):
        for form in test_forms:
            total = sum(lam for _, lam in form.poles) + form.residue_at_infinity()
            assert abs(total) < 1e-12
