import math

import numpy as np
import pytest

from cscforge import (
    ComplexPolynomial,
    DuplicatePole,
    EvalAtPole,
    HypothesesFailed,
    ZeroResidue,
    build_third_kind,
    check_hypotheses,
    divisor_of_form,
    form_from_json,
    form_to_json,
    potential_f,
)

from oracles import loop_integral_re


class TestBuild:
    def test_single_pole(self):
        form = build_third_kind([(0j, 0.7 + 0j)])
        assert abs(form.eta_at(2.0) - 0.35) < 1e-14

    def test_unit_residue_pair(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        zs = np.array([0.3 + 0.2j, 2.0 - 1.0j, -0.7 + 0j])
        expect = 2 * zs / (zs**2 + 1)
        assert np.allclose(form.eta_many(zs), expect, atol=1e-13)

    def test_pure_exact_part(self):
        # H = z puts a double pole at infinity: the form is inspectable only
        form = build_third_kind([], ComplexPolynomial([0.0, 1.0]))
        with pytest.raises(HypothesesFailed):
            potential_f(form, 3.7 + 2j)

    def test_duplicate_pole(self):
        with pytest.raises(DuplicatePole):
            build_third_kind([(1j, 1.0), (1j, 2.0)])

    def test_zero_residue(self):
        with pytest.raises(ZeroResidue):
            build_third_kind([(1j, 0.0)])

    def test_zero_form(self):
        with pytest.raises(ValueError):
            build_third_kind([], ComplexPolynomial([5.0]))


class TestHypotheses:
    def test_real_single_pole(self):
        rep = check_hypotheses(build_third_kind([(0j, 3.0)]))
        assert rep.is_third_kind
        assert rep.residues_all_real_nonzero
        assert rep.real_part_exact
        assert rep.ok

    def test_imaginary_residue(self):
        form = build_third_kind([(0j, 1j)])
        rep = check_hypotheses(form)
        assert not rep.real_part_exact
        assert not rep.ok
        # oracle: the loop integral of the real part does not vanish
        assert abs(loop_integral_re(form, 0j, radius=0.5)) > 1.0

    def test_exact_part_breaks_third_kind(self):
        form = build_third_kind([], ComplexPolynomial([0.0, 1.0]))  # dz
        rep = check_hypotheses(form)
        assert not rep.is_third_kind
        assert rep.real_part_exact

    def test_loop_integral_equivalence(self, test_forms):
        for form in test_forms:
            rep = check_hypotheses(form)
            loops_vanish = all(
                abs(loop_integral_re(form, a, radius=1e-2)) < 1e-8
                for a, _ in form.poles
            )
            assert rep.real_part_exact == loops_vanish

    def test_sphere_equivalence_of_flags(self, test_forms):
        # loops around poles generate every cycle on the sphere, so the two
        # flags coincide for validated forms
        for form in list(test_forms) + [build_third_kind([(0j, 1j)])]:
            rep = check_hypotheses(form)
            assert rep.real_part_exact == rep.residues_all_real_nonzero


class TestPotential:
    def test_log_modulus(self):
        form = build_third_kind([(0j, 1.0)])
        assert abs(potential_f(form, complex(math.e)) - 2.0) < 1e-14

    def test_two_pole_value(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        assert abs(potential_f(form, 2 + 0j) - math.log(25.0)) < 1e-13

    def test_gradient_matches_form(self, test_forms):
        # df = omega + conj(omega): df/dx = 2 Re(eta), df/dy = -2 Im(eta)
        h = 1e-6
        rng = np.random.default_rng(7)
        for form in test_forms:
            count = 0
            while count < 25:
                z = complex(rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2))
                if form.min_pole_distance(z) <= 0.1:
                    continue
                count += 1
                fx = (form.potential(z + h) - form.potential(z - h)) / (2 * h)
                fy = (form.potential(z + 1j * h) - form.potential(z - 1j * h)) / (2 * h)
                eta = form.eta_at(z)
                assert abs(fx - 2 * eta.real) < 1e-6 * max(1, abs(eta))
                assert abs(fy + 2 * eta.imag) < 1e-6 * max(1, abs(eta))

    def test_log_term_removed_extends_continuously(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        a, lam = form.poles[0]
        def remainder(r):
            vals = []
            for k in range(8):
                z = a + r * np.exp(2j * np.pi * k / 8)
                vals.append(form.potential(z) - lam.real * math.log(abs(z - a) ** 2))
            return np.mean(vals)
        v6, v7 = remainder(1e-6), remainder(1e-7)
        assert abs(v6 - v7) < 1e-5

    def test_eval_at_pole(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        with pytest.raises(EvalAtPole):
            form.potential(1j)

    def test_nonreal_residue_rejected(self):
        form = build_third_kind([(0j, 1j)])
        with pytest.raises(HypothesesFailed):
            potential_f(form, 1.0 + 0j)


class TestJson:
    def test_round_trip(self):
        form = build_third_kind([(1j, 1.0), (0.5 - 0.25j, -2.0)],
                                ComplexPolynomial([0.0, 0.0, 0.5]))
        doc = form_to_json(form)
        back = form_from_json(doc)
        assert back.poles == form.poles
        assert back.exact_part == form.exact_part

    def test_missing_exact_part(self):
        form = form_from_json('{"poles": [{"a": [0, 0], "lambda": [3, 0]}]}')
        assert form.exact_part.is_zero
        d = divisor_of_form(form)
        assert d.degree == -2
