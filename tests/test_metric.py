import io
import math

import numpy as np
import pytest

from cscforge import (
    FootballMetric,
    GridSpec,
    GridTouchesSingularity,
    MetricField,
    admissible_mask,
    build_third_kind,
    exclusion_points,
    gauss_curvature_fd,
    negation_invariance_check,
    phi_field_from_a0,
    solve_phi_closed,
    suggest_grid,
    write_density_grid,
)
from cscforge.metric import _BLOCK, sample_points_avoiding
from oracles import density_at, eta


class _ConstantDensity:
    """Flat-plane stand-in implementing the density-field protocol."""

    K = 0

    singular_points = ()

    def log_density_many(self, pts, chart="z"):
        return np.zeros(np.asarray(pts).shape)


def pair_form():
    return build_third_kind([(1j, 1.0), (-1j, 1.0)])


class TestDensity:
    def test_spherical_value_on_unit_circle(self):
        field = phi_field_from_a0(build_third_kind([(0j, 1.0)]), 0.0)
        m = MetricField(field, K=1)
        assert abs(density_at(m, np.exp(0.77j)) - 1.0) < 1e-12

    def test_flat_value(self):
        # K = 0 at a point where the field value is 2 and |eta| = 1
        field = phi_field_from_a0(build_third_kind([(0j, 1.0)]), 0.0)
        m = MetricField(field, K=0)
        z = np.exp(0.3j)
        assert abs(field.value(z) - 2.0) < 1e-12
        assert abs(abs(eta(field.form, z)) - 1.0) < 1e-12
        assert abs(density_at(m, z) - 4.0) < 1e-12

    def test_zero_set(self):
        field = phi_field_from_a0(pair_form(), 0.0)
        m = MetricField(field, K=1)
        for d in (1, 1j, -1, -1j):
            assert density_at(m, 1e-5 * d) < 1e-8

    def test_k_validation(self):
        field = phi_field_from_a0(pair_form(), 0.0)
        with pytest.raises(ValueError):
            MetricField(field, K=2)


class TestCurvature:
    def test_round_sphere(self):
        rep = gauss_curvature_fd(FootballMetric(1.0), GridSpec(0j, 0.5, 41), h=1e-3)
        assert rep.max_abs_residual < 1e-4

    def test_flat_plane_machine_precision(self):
        rep = gauss_curvature_fd(_ConstantDensity(), GridSpec(0j, 0.5, 21), h=1e-3)
        assert rep.max_abs_residual < 1e-10

    def test_pipeline_annulus(self):
        field = phi_field_from_a0(pair_form(), 0.0)
        m = MetricField(field, K=1)
        rng = np.random.default_rng(3)
        pts = []
        while len(pts) < 400:
            z = complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85))
            if 0.3 < abs(z) < 0.8:
                pts.append(z)
        rep = gauss_curvature_fd(m, np.array(pts), h=1e-3)
        assert rep.max_abs_residual < 1e-3

    def test_all_curvature_signs(self):
        field = phi_field_from_a0(pair_form(), 0.0)
        for K in (-1, 0, 1):
            m = MetricField(field, K=K)
            rep = gauss_curvature_fd(m, suggest_grid(m), h=1e-3)
            assert rep.max_abs_residual < 1e-3, f"K={K}"

    def test_scale_covariance(self):
        # shifting the constant reparametrizes the field but the curvature
        # report stays put (h small enough that truncation sits below 1e-6)
        form = pair_form()
        grid = GridSpec(-1.2 + 0.4j, 0.1, 15)
        r1 = gauss_curvature_fd(MetricField(phi_field_from_a0(form, 0.2), 1), grid, h=3e-4)
        r2 = gauss_curvature_fd(MetricField(phi_field_from_a0(form, 1.2), 1), grid, h=3e-4)
        assert r1.max_abs_residual < 1e-3
        assert abs(r1.max_abs_residual - r2.max_abs_residual) < 1e-6

    def test_exclusion_counts(self):
        field = phi_field_from_a0(pair_form(), 0.0)
        m = MetricField(field, K=1)
        # grid straddles the zero at 0: the core gets excluded, the rim stays
        rep = gauss_curvature_fd(m, GridSpec(0j, 0.12, 9), h=1e-3)
        assert rep.n_excluded > 0
        assert rep.points.size + rep.n_excluded == rep.n_total
        assert all(abs(z) > 0.05 for z in rep.points)


class TestNegationInvariance:
    def test_self_dual(self):
        form = build_third_kind([(0j, 1.0)])
        assert negation_invariance_check(form, 2.0) < 1e-12

    def test_swapped_initial_values(self):
        form = build_third_kind([(0j, 1.0)])
        assert negation_invariance_check(form, 1.0) < 1e-12

    def test_two_pole_form(self):
        assert negation_invariance_check(pair_form(), 1.5) < 1e-10

    def test_unswapped_initial_value_differs(self):
        # negative control: with the SAME initial value the negated form
        # gives a genuinely different K=0 density, so the identity really
        # lives in the swapped pairing (and, off K=1, not pointwise at all)
        form = build_third_kind([(0j, 1.0)])
        f_pos = solve_phi_closed(form, 2.0 + 0j, 1.0)
        f_neg = solve_phi_closed(form.negated(), 2.0 + 0j, 1.0)
        z = 3.0 + 0j
        rho_pos = density_at(MetricField(f_pos, K=0), z)
        rho_neg = density_at(MetricField(f_neg, K=0), z)
        assert abs(rho_pos - rho_neg) > 1e-2 * max(rho_pos, rho_neg)

    @pytest.mark.parametrize("K", [1, -1])
    def test_density_even_in_offset_potential(self, test_forms, K):
        # negating the form and a0 flips f, x and eta exactly, and at K = +-1
        # the density depends on |x| and |eta| only: equal bit for bit
        for form in test_forms:
            field = solve_phi_closed(form, None, 1.5)
            neg = phi_field_from_a0(form.negated(), -field.a0, field.p0)
            m, m_neg = MetricField(field, K=K), MetricField(neg, K=K)
            pts = sample_points_avoiding(exclusion_points(m), 300, seed=7)
            for chart in ("z", "w"):
                assert np.array_equal(m.log_density_many(pts, chart),
                                      m_neg.log_density_many(pts, chart))


def reference_log_density(form, a0, K, z):
    """log rho from the paper's formula 4 Phi (4 - Phi) / (4 + (K - 1) Phi)^2
    |eta|^2, one point at a time in Python complex arithmetic."""
    eta = sum(lam / (z - a) for a, lam in form.poles)
    x = sum(lam.real * math.log(abs(z - a) ** 2) for a, lam in form.poles) + a0
    phi, four_minus_phi = 4.0 / (1.0 + math.exp(-x)), 4.0 / (1.0 + math.exp(x))
    denom = four_minus_phi if K == 0 else 4.0 + (K - 1) * phi
    return math.log(4.0 * phi * four_minus_phi / denom**2 * abs(eta) ** 2)


class TestBlockedKernel:
    """The blocked log_density_many against :func:`reference_log_density`
    at points clear of zeros, poles and (for K = -1) field value 2."""

    @staticmethod
    def clear_points(m, chart, n=257):
        rng = np.random.default_rng(11)
        sing = np.array(exclusion_points(m), dtype=complex)
        out = []
        while len(out) < n:
            p = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            if chart == "w" and abs(p) < 0.3:
                continue
            z = p if chart == "z" else 1.0 / p
            if np.min(np.abs(sing - z)) < 0.1 or abs(m.phi.value(z) - 2.0) < 0.1:
                continue
            out.append(p)
        return np.array(out)

    @pytest.mark.parametrize("K", [1, 0, -1])
    @pytest.mark.parametrize("chart", ["z", "w"])
    def test_against_reference(self, standard_forms, random_forms, K, chart):
        for form in (standard_forms[3], random_forms[0], random_forms[2]):
            field = solve_phi_closed(form, None, 1.5)
            m = MetricField(field, K=K)
            pts = self.clear_points(m, chart)
            ref = np.array([
                reference_log_density(form, field.a0, K, p if chart == "z" else 1.0 / p)
                - (0.0 if chart == "z" else 4.0 * math.log(abs(p)))
                for p in pts
            ])
            # 257 points tile every input, so a block written to the wrong
            # offset lands on the wrong reference value
            for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1):
                got = m.log_density_many(np.resize(pts, n), chart)
                assert got.shape == (n,)
                assert np.max(np.abs(got - np.resize(ref, n))) < 1e-12
            grid = np.resize(pts, (129, 257))
            got = m.log_density_many(grid, chart)
            assert got.shape == (129, 257)
            assert np.max(np.abs(got - ref[None, :])) < 1e-12


class TestGridIO:
    def test_grid_points_order(self):
        g = GridSpec(0j, 1.0, 3)
        pts = g.points()
        assert pts[0] == -1 - 1j and pts[1] == -1j and pts[3] == -1 + 0j

    def test_csv_stable(self):
        field = phi_field_from_a0(build_third_kind([(0j, 1.0)]), 0.0)
        m = MetricField(field, K=1)
        grid = GridSpec(0.7 + 0.7j, 0.1, 5)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_density_grid(m, grid, 1e-3, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        lines = bufs[0].strip().split("\n")
        assert lines[0] == "x,y,rho,phi,K_est"
        assert len(lines) == 26

    def test_touching_grid_raises(self):
        field = phi_field_from_a0(pair_form(), 0.0)
        m = MetricField(field, K=1)
        with pytest.raises(GridTouchesSingularity):
            gauss_curvature_fd(m, GridSpec(1j, 0.01, 3))

    def test_suggest_grid_admissible(self, test_forms):
        for form in test_forms[:3]:
            m = MetricField(solve_phi_closed(form, None, 2.0), K=1)
            g = suggest_grid(m)
            mask = admissible_mask(m, g.points(), 0.05, 0.05)
            assert np.all(mask)


def suggest_grid_per_patch(field, half_width=0.1, n=21, margin=0.3, phi_margin=0.25):
    """Reference: one density call per candidate patch."""
    exclusions = exclusion_points(field)
    candidates = []
    for xr in np.arange(-2.0, 2.01, 0.25):
        for yi in np.arange(-2.0, 2.01, 0.25):
            candidates.append(complex(xr, yi))
    for p in exclusions:
        for k in range(12):
            candidates.append(p + 0.55 * np.exp(2j * math.pi * k / 12))
    reach = half_width * math.sqrt(2.0)
    best = None
    best_score = -math.inf
    for c in candidates:
        dist = min((abs(c - p) for p in exclusions), default=math.inf) - reach
        if dist < margin:
            continue
        probe = c + (np.linspace(-half_width, half_width, 5)[:, None]
                     + 1j * np.linspace(-half_width, half_width, 5)[None, :]).ravel()
        if field.K == -1 and not np.all(admissible_mask(field, probe, 0.0, phi_margin)):
            continue
        level = float(np.median(np.abs(field.log_density_many(probe))))
        score = min(dist, 1.0) - 0.05 * level
        if score > best_score + 1e-12:
            best_score = score
            best = c
    return GridSpec(center=best, half_width=half_width, n=n)


@pytest.mark.parametrize("K", [1, 0, -1])
def test_suggest_grid_matches_per_patch_loop(test_forms, K):
    for form in test_forms:
        m = MetricField(solve_phi_closed(form, None, 2.0), K=K)
        assert suggest_grid(m) == suggest_grid_per_patch(m)
