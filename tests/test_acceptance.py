"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The corpus is the ten-form fixture from conftest: six standard-case
forms plus four random real-residue forms with 4 to 6 poles.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cscforge import (
    INFINITY,
    ComplexPolynomial,
    ExactComplex,
    MetricField,
    StandardFormCase,
    build_third_kind,
    classify_singular_points,
    estimate_cone_angle,
    gauss_bonnet_check,
    integrate_phi_along_path,
    negation_invariance_check,
    normalize_form,
    phi_field_from_a0,
    reduce_to_football,
    solve_phi_closed,
    standard_form,
    suggest_grid,
    gauss_curvature_fd,
    wronskian_identity_check,
)
from oracles import density_at, pole_limit

TWO_PI = 2.0 * math.pi


def _report(criterion, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {flag} -- {detail}")


# ---------------------------------------------------------------------------
# 1. constant curvature for K in {-1, 0, 1}
# ---------------------------------------------------------------------------


def test_criterion_1_constant_curvature(test_forms):
    worst = 0.0
    for form in test_forms:
        phi = solve_phi_closed(form, None, 2.0)
        for K in (-1, 0, 1):
            field = MetricField(phi, K=K)
            grid = suggest_grid(field)
            rep = gauss_curvature_fd(field, grid, h=1e-3)
            worst = max(worst, rep.max_abs_residual)
            assert rep.max_abs_residual < 1e-3, (
                f"K={K} residual {rep.max_abs_residual:.2e} on {grid.describe()}"
            )
    _report(1, "constant curvature", worst < 1e-3,
            f"max |K_est - K| = {worst:.2e} over 30 form/K pairs at h=1e-3")


# ---------------------------------------------------------------------------
# 2. closed form against the RK4 path oracle
# ---------------------------------------------------------------------------


def _sample_endpoint_pairs(form, rng, count):
    poles = [a for a, _ in form.poles]
    pairs = []
    guard = 0
    while len(pairs) < count:
        guard += 1
        if guard > 500 * count:
            raise RuntimeError("endpoint sampling starved")
        z1 = complex(rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2))
        z2 = complex(rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2))
        if abs(z1 - z2) < 0.1:
            continue
        if any(abs(z1 - p) < 0.25 or abs(z2 - p) < 0.25 for p in poles):
            continue
        d = z2 - z1
        L2 = abs(d) ** 2
        seg_ok = True
        for p in poles:
            t = max(0.0, min(1.0, ((p - z1).real * d.real + (p - z1).imag * d.imag) / L2))
            if abs(p - (z1 + t * d)) < 0.2:
                seg_ok = False
                break
        if seg_ok:
            pairs.append((z1, z2))
    return pairs


def _find_clear_circle(form, rng):
    poles = [a for a, _ in form.poles]
    for _ in range(4000):
        c = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
        for radius in (0.25, 0.4, 0.6):
            if all(abs(abs(p - c) - radius) > 0.15 for p in poles):
                return c, radius
    raise RuntimeError("no clear circle found")


def test_criterion_2_ode_consistency(test_forms):
    rng = np.random.default_rng(777)
    worst_pair = 0.0
    worst_loop = 0.0
    for form in test_forms:
        field = solve_phi_closed(form, None, 2.0)
        for z1, z2 in _sample_endpoint_pairs(form, rng, 50):
            start = field.value(z1)
            got = integrate_phi_along_path(form, [z1, z2], start)
            expect = field.value(z2)
            err = abs(got - expect)
            worst_pair = max(worst_pair, err)
            assert err < 1e-6, f"path {z1} -> {z2}: error {err:.2e}"
        for _ in range(2):
            c, radius = _find_clear_circle(form, rng)
            theta = np.linspace(0.0, TWO_PI, 257)
            loop = c + radius * np.exp(1j * theta)
            back = integrate_phi_along_path(form, loop, 2.0)
            err = abs(back - 2.0)
            worst_loop = max(worst_loop, err)
            assert err < 1e-8, f"loop at {c} r={radius}: return error {err:.2e}"
    _report(2, "path-oracle consistency", True,
            f"max endpoint error {worst_pair:.2e} (tol 1e-6) over 500 pairs, "
            f"max loop return {worst_loop:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 3. continuous extension values at poles
# ---------------------------------------------------------------------------


def test_criterion_3_pole_limits(test_forms):
    worst = 0.0
    directions = (1.0, 1j, -1.0, -1j)
    for form in test_forms:
        field = solve_phi_closed(form, None, 2.0)
        for a, _ in form.poles:
            limit = pole_limit(form, a)
            for d in directions:
                err = abs(field.value(a + 1e-6 * d) - limit)
                worst = max(worst, err)
                assert err < 1e-6, f"pole {a}: |phi - {limit}| = {err:.2e}"
        if form.infinity_pole_order() == 1:
            limit = pole_limit(form, INFINITY)
            for d in directions:
                err = abs(field.value(1.0 / (1e-6 * d)) - limit)
                worst = max(worst, err)
                assert err < 1e-6, f"infinity: |phi - {limit}| = {err:.2e}"
    _report(3, "pole limits", True,
            f"max |phi - limit| = {worst:.2e} at chart distance 1e-6 (tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. cone angles for K = 1
# ---------------------------------------------------------------------------


def test_criterion_4_cone_angles(test_forms):
    worst_rel = 0.0
    n_points = 0
    n_smooth = 0
    for form in test_forms:
        field = MetricField(solve_phi_closed(form, None, 2.0), K=1)
        for info in classify_singular_points(form, 1):
            assert info.predicted_angle is not None
            rep = estimate_cone_angle(field, info.location)
            rel = abs(rep.fitted_angle - info.predicted_angle) / info.predicted_angle
            worst_rel = max(worst_rel, rel)
            n_points += 1
            n_smooth += info.predicted_angle == TWO_PI
            assert rel <= 0.01, (
                f"point {info.location}: fitted {rep.fitted_angle:.6f} "
                f"vs predicted {info.predicted_angle:.6f} ({100 * rel:.3f}%)"
            )
    _report(4, "cone angles", True,
            f"max relative angle error {100 * worst_rel:.4f}% over {n_points} "
            f"points ({n_smooth} smooth unit-residue checks included), tol 1%")


# ---------------------------------------------------------------------------
# 5. total area of the two-cone families
# ---------------------------------------------------------------------------


def test_criterion_5_gauss_bonnet_footballs():
    worst_rel = 0.0
    for alpha in (0.5, 1.0, 2.0, 2.5, 3.0):
        form = build_third_kind([(0j, complex(alpha))])
        field = MetricField(phi_field_from_a0(form, 0.3), K=1)
        rep = gauss_bonnet_check(field)
        expect = 4.0 * math.pi * alpha
        rel = abs(rep.total_area - expect) / expect
        worst_rel = max(worst_rel, rel)
        assert rel < 0.01, f"alpha={alpha}: area {rep.total_area:.6f} vs {expect:.6f}"
        assert abs(rep.expected_area - expect) < 1e-9
    _report(5, "two-cone areas", True,
            f"max relative area error {100 * worst_rel:.5f}% (tol 1%)")


# ---------------------------------------------------------------------------
# 6. exact identity work and normalization round trips
# ---------------------------------------------------------------------------


def test_criterion_6_wronskian_and_round_trips():
    rng = np.random.default_rng(31415)
    # exact forced-shape checks across all degrees up to 8
    for alpha in range(2, 9):
        for _ in range(4):
            t0 = ExactComplex(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                              Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))
            s0 = ExactComplex(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                              Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))
            if t0.is_zero or s0.is_zero or t0 == s0:
                continue
            t = ComplexPolynomial.monomial(alpha, ExactComplex(1)) + ComplexPolynomial([t0])
            s = ComplexPolynomial.monomial(alpha, ExactComplex(1)) + ComplexPolynomial([s0])
            got_alpha, mu = wronskian_identity_check(t, s)
            assert got_alpha == alpha
            assert mu == s0 - t0  # exact, zero error

    # round trips through normalization, with and without a prescale
    specs = (
        StandardFormCase("simple", 2.5),
        StandardFormCase("unit_residues", 2),
        StandardFormCase("unit_residues", 4),
        StandardFormCase("plus_minus", 2, a=2 + 0j),
        StandardFormCase("plus_minus", 3, a=-1.5 + 0.8j),
    )
    prescales = (1.0 + 0j, 2.0 + 0j, 1.3 * np.exp(0.4j))
    checked = 0
    for spec in specs:
        base = standard_form(spec)
        for p in prescales:
            if spec.case == "simple" and p != 1.0 + 0j:
                continue  # the simple case is scale-invariant; only p=1 is canonical
            scaled = build_third_kind([(p * a, lam) for a, lam in base.poles])
            case = normalize_form(scaled)
            assert case.case == spec.case
            assert case.alpha == spec.alpha
            if spec.a is not None:
                assert abs(case.a - spec.a) <= 1e-9 * abs(spec.a)
            n = int(spec.alpha) if spec.case != "simple" else 1
            # scale is canonical up to the documented root-of-unity choice,
            # so compare its alpha-th power
            assert abs(case.scale**n - complex(p) ** n) <= 1e-8 * abs(p) ** n
            checked += 1
    _report(6, "identity work and round trips", True,
            f"exact forced shapes for degrees 2..8, {checked} round trips")


# ---------------------------------------------------------------------------
# 7. reductions of standard cases to the two-cone families
# ---------------------------------------------------------------------------


def test_criterion_7_family_reductions():
    rng = np.random.default_rng(2718)
    cases = [
        StandardFormCase("simple", 2.5),
        StandardFormCase("simple", 0.8),
        StandardFormCase("simple", -1.7),
        StandardFormCase("unit_residues", 2),
        StandardFormCase("unit_residues", 3),
        StandardFormCase("unit_residues", 4),
        StandardFormCase("plus_minus", 2, a=2 + 0j),
        StandardFormCase("plus_minus", 2, a=-0.7 + 1.1j),
        StandardFormCase("plus_minus", 3, a=1.5 - 0.9j),
    ]
    worst = 0.0
    for case in cases:
        a0 = float(rng.uniform(-2.0, 2.0))
        p, fm = reduce_to_football(case, a0)
        if case.case == "plus_minus":
            # independent realness check of the family constant
            lam2 = math.exp(a0)
            n = int(case.alpha)
            b_c = (complex(case.a) + lam2) / (p**n * (1.0 + lam2))
            assert abs(b_c.imag) <= 1e-12 * max(1.0, abs(b_c))
            assert abs(b_c.real - fm.b) <= 1e-12 * max(1.0, abs(fm.b))
        form = standard_form(case)
        field = MetricField(phi_field_from_a0(form, a0), K=1)
        checked = 0
        while checked < 100:
            w = complex(rng.uniform(0.25, 1.8) * np.exp(2j * np.pi * rng.uniform()))
            if form.min_pole_distance(p * w) < 0.1:
                continue
            checked += 1
            err = abs(density_at(fm, w) - field.density(p * w) * abs(p) ** 2)
            worst = max(worst, err)
            assert err < 1e-9, f"{case.case} a0={a0:.3f}: density gap {err:.2e} at {w}"
    _report(7, "family reductions", True,
            f"max pipeline/family density gap {worst:.2e} over 900 samples "
            "(tol 1e-9); family constants real to 1e-12")


# ---------------------------------------------------------------------------
# 8. the same metric from the negated form
# ---------------------------------------------------------------------------


def test_criterion_8_negation_invariance(test_forms):
    worst = 0.0
    for form in test_forms:
        gap = negation_invariance_check(form, 1.3)
        worst = max(worst, gap)
        assert gap < 1e-10
    _report(8, "negation invariance", True,
            f"max pointwise density gap {worst:.2e} over 100 samples per form "
            "(tol 1e-10)")


# ---------------------------------------------------------------------------
# 9. flat-case negative-residue poles are singular but not conical
# ---------------------------------------------------------------------------


def _negative_pole_reports(test_forms):
    out = []
    simple_neg = build_third_kind([(0j, -3.0)])
    for form in [simple_neg] + list(test_forms):
        field = MetricField(solve_phi_closed(form, None, 2.0), K=0)
        for a, lam in form.poles:
            if lam.real < 0:
                out.append((field, a, estimate_cone_angle(field, a)))
    return out


def test_criterion_9_flat_nonconical_behavior(test_forms):
    reports = _negative_pole_reports(test_forms)
    assert reports, "corpus must contain negative-residue poles"
    worst_growth = math.inf
    for field, a, rep in reports:
        assert not rep.conical, f"pole at {a} flagged conical"
        assert rep.fitted_angle < 0, (
            f"pole at {a}: no positive cone angle, got {rep.fitted_angle}"
        )
        # the density diverges along the approach
        near = float(np.exp(field.log_density_many(np.array([a + 1e-4]))[0]))
        far = float(np.exp(field.log_density_many(np.array([a + 1e-2]))[0]))
        growth = near / far
        worst_growth = min(worst_growth, growth)
        assert growth > 1e3
        info = [i for i in classify_singular_points(field.form, 0)
                if isinstance(i.location, complex)
                and abs(i.location - a) < 1e-9][0]
        assert info.predicted_angle is None and not info.conical_expected
    _report(9, "flat non-conical poles", True,
            f"{len(reports)} negative-residue poles: conical=False, density "
            f"growth factor >= {worst_growth:.1e} over two decades; the "
            "literal fit-quality clause is recorded as an expected failure "
            "(see test below and the notes)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "For K = 0 the density is exactly 4 e^(f + a0) |eta|^2, which is a "
        "perfect power law r^(2(residue - 1)) near every pole; the log-log "
        "fit is therefore tight (r^2 ~ 1) and never drops below 0.999.  "
        "Non-conicality manifests as a negative fitted exponent, not as a "
        "poor fit."
    ),
)
def test_criterion_9_literal_fit_failure_clause(test_forms):
    reports = _negative_pole_reports(test_forms)
    assert all(rep.regression_r2 < 0.999 for _, _, rep in reports)
