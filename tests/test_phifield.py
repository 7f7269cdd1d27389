import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscforge import (
    BadInitialValue,
    BasePointIsPole,
    HypothesesFailed,
    MeromorphicOneForm,
    PathTooCloseToPole,
    PhiField,
    StepUnderflow,
    build_third_kind,
    integrate_phi_along_path,
    phi_field_from_a0,
    solve_phi_closed,
)
from cscforge import phifield
from oracles import eta


def power_form(alpha):
    return build_third_kind([(0j, complex(alpha))])


class TestClosedForm:
    def test_unit_modulus_base_point_gives_zero_constant(self):
        field = solve_phi_closed(power_form(2.5), np.exp(0.4j), 2.0)
        assert abs(field.a0) < 1e-12
        # Phi = 4 |z|^(2 alpha) / (1 + |z|^(2 alpha))
        for z in (0.5 + 0.1j, 2.0 - 1.0j, -0.3 + 0.8j):
            t = abs(z) ** 5.0
            assert abs(field.value(z) - 4 * t / (1 + t)) < 1e-12

    def test_symmetry_on_unit_circle(self):
        field = solve_phi_closed(power_form(1.7), 1.0 + 0j, 2.0)
        assert abs(field.value(np.exp(2.1j)) - 2.0) < 1e-12

    def test_worked_value(self):
        field = solve_phi_closed(power_form(1.0), 1.0 + 0j, 2.0)
        assert abs(field.value(2.0 + 0j) - 16.0 / 5.0) < 1e-13

    def test_initial_condition_reproduced(self, test_forms):
        for form in test_forms:
            field = solve_phi_closed(form, None, 1.3)
            assert abs(field.value(field.p0) - 1.3) < 1e-12
            recon = math.log(field.phi0 / (4 - field.phi0)) - form.potential(field.p0)
            assert abs(field.a0 - recon) < 1e-12

    def test_bad_initial_value(self):
        for bad in (0.0, 4.0, -1.0, 5.0):
            with pytest.raises(BadInitialValue):
                solve_phi_closed(power_form(1.0), 1.0 + 0j, bad)

    def test_base_point_is_pole(self):
        with pytest.raises(BasePointIsPole):
            solve_phi_closed(power_form(1.0), 0j, 2.0)

    def test_default_base_point_skips_what_it_would_refuse(self):
        # 2+0j is 1.5e-9 from a pole: farther than 1e-9, but within the
        # 1e-9 * |p0| that refuses a base point, so the default moves on
        form = build_third_kind([(1 + 0j, 1.0), (2 + 1.5e-9j, 1.0)])
        assert solve_phi_closed(form).p0 == 1 + 1j
        assert phi_field_from_a0(form, 0.0).p0 == 1 + 1j

    def test_hypotheses_gate(self):
        with pytest.raises(HypothesesFailed):
            solve_phi_closed(build_third_kind([(0j, 1j)]), 1.0 + 0j, 2.0)
        with pytest.raises(HypothesesFailed):
            solve_phi_closed(
                build_third_kind([], [0.0, 1.0]), 1.0 + 0j, 2.0
            )

    def test_from_a0(self):
        form = power_form(2.0)
        field = phi_field_from_a0(form, 0.7, 1.0 + 0j)
        assert abs(field.a0 - 0.7) < 1e-15
        assert abs(field.value(field.p0) - field.phi0) < 1e-12


class TestPoleLimits:
    def test_infinity(self):
        # residue -2 at infinity: the field tends to 4 far out
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        field = solve_phi_closed(form, 1.0 + 0j, 2.0)
        assert abs(field.value(1e4 + 0j) - 4.0) < 1e-6


class TestPathOracle:
    def test_zero_length(self):
        form = power_form(1.0)
        assert integrate_phi_along_path(form, [1.0 + 0j], 2.0) == 2.0
        assert integrate_phi_along_path(form, [1.0 + 0j, 1.0 + 0j], 2.0) == 2.0

    def test_closed_loop_returns(self):
        form = power_form(1.0)
        theta = np.linspace(0.0, 2 * np.pi, 1001)
        loop = np.exp(1j * theta)
        out = integrate_phi_along_path(form, loop, 2.0)
        assert abs(out - 2.0) < 1e-8

    def test_matches_closed_form(self):
        form = power_form(1.0)
        field = solve_phi_closed(form, 1.0 + 0j, 2.0)
        out = integrate_phi_along_path(form, [1.0 + 0j, 2.0 + 0j], 2.0)
        assert abs(out - field.value(2.0 + 0j)) < 1e-6
        assert abs(out - 16.0 / 5.0) < 1e-6

    def test_path_independence(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        start, end = 0.5 + 0j, 2.0 + 0.5j
        direct = integrate_phi_along_path(form, [start, end], 1.5)
        dogleg = integrate_phi_along_path(
            form, [start, 0.5 - 2.0j, 2.5 - 2.0j, end], 1.5
        )
        assert abs(direct - dogleg) < 1e-6

    def test_too_close_to_pole(self):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        with pytest.raises(PathTooCloseToPole):
            integrate_phi_along_path(form, [0j, 2j], 2.0)

    def test_step_agreement_guard(self):
        form = power_form(1.0)
        with pytest.raises(StepUnderflow):
            integrate_phi_along_path(
                form, [1.0 + 0j, 2.0 + 0j], 2.0, step=0.25, agreement_tol=1e-16
            )

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_non_finite_vertex_is_named(self, bad):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        with pytest.raises(ValueError, match=r"path vertex 1 is not finite"):
            integrate_phi_along_path(form, [0.5 + 0j, bad], 1.0)

    def test_bad_start(self):
        with pytest.raises(BadInitialValue):
            integrate_phi_along_path(power_form(1.0), [1.0 + 0j, 2.0 + 0j], 4.0)

    def test_saturated_tail_is_kept(self):
        # the path passes ~4e-3 from the residue -2.86 pole, where 4 - Phi
        # drops below 1e-16: a state stored as Phi rounds to 4 there and
        # never comes back (it returned 3.999999999999992)
        form = build_third_kind([
            (0.9836203758728685 + 1.793268441108581j, -2.8580273548166604),
            (0.8001958394412836 + 1.0490156750308648j, -0.6149381176015141),
        ])
        z1 = 0.9061355082830971 + 1.9905139174597775j
        z2 = 1.0549967213183666 + 1.599521402740245j
        field = solve_phi_closed(form, None, 2.0)
        out = integrate_phi_along_path(form, [z1, z2], field.value(z1))
        assert abs(out - field.value(z2)) < 1e-6

    def test_too_close_names_first_segment_and_pole(self):
        # after a zero-length segment and a clear one, the vertical segment
        # passes 0.05 from both poles and the last one 0.04 from -i; the
        # first of these (segment, pole) pairs is the one reported
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        path = [2.0 + 0j, 2.0 + 0j, 0.05 + 1.5j, 0.05 - 1.5j, 0.5j]
        with pytest.raises(PathTooCloseToPole) as info:
            integrate_phi_along_path(form, path, 2.0, min_pole_distance=0.1)
        assert str(info.value) == (
            "segment (0.05+1.5j) -> (0.05-1.5j) passes within 0.1 of pole 1j"
        )

    # values of the pole-by-pole scalar oracle that the numpy pole sum
    # replaced, recorded to 17 digits
    THREE_POLES = [(1j, 1.0), (-1j, 1.0), (1.5 + 0.5j, -0.7)]
    SATURATING = [
        (0.9836203758728685 + 1.793268441108581j, -2.8580273548166604),
        (0.8001958394412836 + 1.0490156750308648j, -0.6149381176015141),
    ]
    GOLDEN = {
        # one segment, 5,000 steps (10,001 nodes) in the finer run
        "clear pair": (THREE_POLES, [-1.2 + 0.3j, 1.9 - 0.8j], 1.3, 3.357339869393496),
        "loop": (
            THREE_POLES,
            list(0.4 + 0.6 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 257))),
            2.0,
            2.0000000000002145,
        ),
        # uneven segments, one of them of zero length
        "polyline": (
            THREE_POLES,
            [0.2 + 0.1j, 0.25 + 0.1j, 0.25 + 0.1j, -0.9 - 0.4j, -0.2 + 1.6j, 2.1 + 1.2j],
            2.7,
            3.9713635311257036,
        ),
        "saturated tail": (
            SATURATING,
            [0.9061355082830971 + 1.9905139174597775j, 1.0549967213183666 + 1.599521402740245j],
            3.999982759887974,
            3.999991413829009,
        ),
        # 2e-3 from the pole at i: the first two runs disagree, a third is run
        "near pole": (THREE_POLES, [0.002 + 0.8j, 0.002 + 1.3j], 1.0, 2.054377357419253),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_values(self, name):
        poles, path, start, want = self.GOLDEN[name]
        out = integrate_phi_along_path(build_third_kind(poles), path, start)
        assert abs(out - want) < 1e-13

    def test_one_pole_sum_per_node_kind(self, monkeypatch):
        # each run sums the poles once over its segment starts, once over
        # all step midpoints and once over all right ends; the pair takes
        # 2,500 + 5,000 RK4 steps
        original, calls = phifield._drive, []

        def counted(pole_data, z, dz):
            calls.append(len(z))
            return original(pole_data, z, dz)

        monkeypatch.setattr(phifield, "_drive", counted)
        poles, path, start, want = self.GOLDEN["clear pair"]
        out = integrate_phi_along_path(build_third_kind(poles), path, start)
        assert abs(out - want) < 1e-13
        assert calls == [1, 2500, 2500, 1, 5000, 5000]

    def test_independent_of_form_evaluation(self, monkeypatch):
        form = build_third_kind(self.THREE_POLES)
        field = solve_phi_closed(form, 1.0 + 0j, 2.0)
        z1, z2 = -1.2 + 0.3j, 1.9 - 0.8j
        start, want = field.value(z1), field.value(z2)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle evaluated the form or the closed form")

        for name in ("potential_and_log_eta", "potential", "potential_many"):
            monkeypatch.setattr(MeromorphicOneForm, name, refuse)
        monkeypatch.setattr(PhiField, "value", refuse)
        out = integrate_phi_along_path(form, [z1, z2], start)
        assert abs(out - want) < 1e-6


class TestProperties:
    def test_open_range(self, test_forms):
        rng = np.random.default_rng(99)
        for form in test_forms:
            field = solve_phi_closed(form, None, 2.0)
            count = 0
            while count < 40:
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if form.min_pole_distance(z) <= 0.1:
                    continue
                count += 1
                v = field.value(z)
                assert 0.0 < v < 4.0

    @given(st.floats(0.1, 3.9), st.floats(0.1, 3.9))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_constant(self, phi0a, phi0b):
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        fa = solve_phi_closed(form, 1.0 + 0j, phi0a)
        fb = solve_phi_closed(form, 1.0 + 0j, phi0b)
        z = 0.7 - 0.4j
        if fa.a0 < fb.a0:
            assert fa.value(z) < fb.value(z)
        elif fa.a0 > fb.a0:
            assert fa.value(z) > fb.value(z)

    def test_oracle_near_poles(self):
        # random 2-8 pole forms, segments passing 2e-3 - 0.3 from a pole;
        # a StepUnderflow fails the test like a wrong value does
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 80:
            poles = []
            for _ in range(int(rng.integers(2, 9))):
                a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(a - b) > 0.05 for b, _ in poles):
                    sign = rng.choice((-1.0, 1.0))
                    poles.append((a, float(sign * rng.uniform(0.2, 3.0))))
            form = build_third_kind(poles)
            near = poles[int(rng.integers(len(poles)))][0]
            u = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            mid = near + np.exp(rng.uniform(np.log(2e-3), np.log(0.3))) * u
            z1 = complex(mid - rng.uniform(0.05, 0.5) * 1j * u)
            z2 = complex(mid + rng.uniform(0.05, 0.5) * 1j * u)
            field = solve_phi_closed(form, None, 2.0)
            start = field.value(z1)
            if not 0.0 < start < 4.0:
                continue
            try:
                out = integrate_phi_along_path(form, [z1, z2], start)
            except PathTooCloseToPole:
                continue
            assert abs(out - field.value(z2)) < 1e-6, (poles, z1, z2)
            checked += 1

    def test_closed_form_satisfies_equation(self):
        # 4 dPhi/dt along a path equals Phi (4 - Phi) * 2 Re(eta gamma')
        form = build_third_kind([(1j, 1.0), (-1j, 1.0)])
        field = solve_phi_closed(form, 1.0 + 0j, 2.0)
        z0, z1 = 0.4 + 0.1j, 1.8 - 0.6j
        dz = z1 - z0
        h = 1e-5
        for t in (0.2, 0.5, 0.8):
            z = z0 + t * dz
            dphi = (field.value(z0 + (t + h) * dz) - field.value(z0 + (t - h) * dz)) / (2 * h)
            phi = field.value(z)
            rhs = phi * (4.0 - phi) * 2.0 * (eta(form, z) * dz).real
            assert abs(4.0 * dphi - rhs) < 1e-5 * max(1.0, abs(rhs))
