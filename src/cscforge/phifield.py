"""Closed-form solution of the separable field equation, plus a path oracle.

The equation ``4 dPhi / (Phi (4 - Phi)) = omega + conj(omega)`` separates:
with ``f`` the real potential of the form, the solution through
``Phi(p0) = Phi0`` is the logistic

    Phi(z) = 4 e^(f(z) + a0) / (1 + e^(f(z) + a0)),
    a0 = log(Phi0 / (4 - Phi0)) - f(p0).

The closed form is what the rest of the package evaluates; an independent
RK4 integrator along polylines serves as its oracle.  It steps at 4, 2, 1
and 1/2 times its ``step`` argument, stopping at the first two runs that
agree to 1e-2 of the agreement tolerance, and carries the smaller of Phi
and 4 - Phi so that saturation near a pole keeps its digits.  The pole sum
that drives it is evaluated with numpy at each run's half-step nodes, one
pass for all of a run's nodes of a kind, and only the scalar RK4 update
runs in Python.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import (
    BadInitialValue,
    BasePointIsPole,
    PathTooCloseToPole,
    StepUnderflow,
)
from .forms import MeromorphicOneForm, require_hypotheses

__all__ = [
    "PhiField",
    "solve_phi_closed",
    "phi_field_from_a0",
    "integrate_phi_along_path",
    "DEFAULT_BASE_POINTS",
]

DEFAULT_BASE_POINTS = (1 + 0j, 2 + 0j, 1 + 1j)


def _logistic4(x: float) -> float:
    # 4 * sigmoid(x), stable on both tails
    if x >= 0.0:
        return 4.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return 4.0 * e / (1.0 + e)


def _logistic4_many(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 4.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = 4.0 * e / (1.0 + e)
    return out


@dataclass(frozen=True, eq=False)
class PhiField:
    """The solved field: a validated form plus its initial data.

    ``a0`` is the integration constant of the separated equation, and every
    evaluation goes through the stable logistic form, so 0 < value < 4 at
    every non-pole point.
    """

    form: MeromorphicOneForm
    p0: complex
    phi0: float
    a0: float

    def offset_potential_many(self, zs: np.ndarray) -> np.ndarray:
        return self.form.potential_many(zs) + self.a0

    def value(self, z: complex) -> float:
        return _logistic4(self.form.potential(z) + self.a0)

    def value_many(self, zs: np.ndarray) -> np.ndarray:
        return _logistic4_many(self.offset_potential_many(zs))

    def __repr__(self) -> str:
        return f"PhiField(p0={self.p0!r}, phi0={self.phi0!r}, a0={self.a0!r})"


def _checked_base_point(form: MeromorphicOneForm, p0: complex | None) -> complex:
    """Require the hypotheses; default the base point to the first of
    :data:`DEFAULT_BASE_POINTS` off the poles, and refuse a pole."""
    require_hypotheses(form)
    if p0 is None:
        p0 = next((c for c in DEFAULT_BASE_POINTS
                   if form.min_pole_distance(c) > 1e-9 * max(1.0, abs(c))), None)
    if p0 is None:
        raise BasePointIsPole("all default base points are poles of the form")
    p0 = complex(p0)
    if form.min_pole_distance(p0) <= 1e-9 * max(1.0, abs(p0)):
        raise BasePointIsPole(f"base point {p0!r} is a pole")
    return p0


def solve_phi_closed(
    form: MeromorphicOneForm,
    p0: complex | None = None,
    phi0: float = 2.0,
) -> PhiField:
    """Solve the field equation in closed form.

    Raises :class:`HypothesesFailed` when the form is not third-kind with
    real nonzero residues, :class:`BasePointIsPole` when the base point sits
    on a pole, and :class:`BadInitialValue` when ``phi0`` is outside (0, 4).
    """
    p0 = _checked_base_point(form, p0)
    phi0 = float(phi0)
    if not (0.0 < phi0 < 4.0):
        raise BadInitialValue(f"initial value {phi0} outside (0, 4)")
    a0 = math.log(phi0 / (4.0 - phi0)) - form.potential(p0)
    return PhiField(form, p0, phi0, a0)


def phi_field_from_a0(
    form: MeromorphicOneForm,
    a0: float,
    p0: complex | None = None,
) -> PhiField:
    """Build a field directly from its integration constant."""
    p0 = _checked_base_point(form, p0)
    phi0 = _logistic4(form.potential(p0) + float(a0))
    if not (0.0 < phi0 < 4.0):
        raise BadInitialValue("constant so extreme the initial value saturates")
    return PhiField(form, p0, phi0, float(a0))


def _segment_pole_distances(z0: np.ndarray, dz: np.ndarray, locs: np.ndarray) -> np.ndarray:
    """Distance from each segment ``z0[k] -> z0[k] + dz[k]`` (rows) to each
    pole location (columns)."""
    z0, d = z0[:, None], dz[:, None]
    rel = locs[None, :] - z0
    L2 = d.real * d.real + d.imag * d.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip((rel.real * d.real + rel.imag * d.imag) / L2, 0.0, 1.0)
        gap = locs[None, :] - (z0 + np.where(L2 == 0.0, 0.0, t) * d)
    return np.hypot(gap.real, gap.imag)


def _drive(pole_data, z: np.ndarray, dz: np.ndarray) -> list:
    """0.5 Re(eta(z) dz) as a list, eta summed pole by pole in the form's
    order."""
    acc = np.zeros_like(z)
    for a, lam in pole_data:
        acc += lam / (z - a)
    return (0.5 * (acc * dz).real).tolist()


def integrate_phi_along_path(
    form: MeromorphicOneForm,
    path: Sequence[complex],
    phi_start: float,
    step: float = 1e-4,
    agreement_tol: float = 1e-6,
    min_pole_distance: float = 1e-3,
) -> float:
    """Integrate the field equation along a polyline with RK4 by step doubling.

    The polyline is parametrized at constant speed over [0, 1]; ``step`` is
    in that path parameter.  Each segment starts at ``ceil(L / total / (4
    step))`` RK4 steps and every count doubles until two successive runs
    agree to ``1e-2 * agreement_tol``, the finer run being returned.  Once a
    segment is at twice ``ceil(L / total / step)`` steps (half of ``step``)
    the doubling stops, the finer run is returned if the last two agree to
    ``agreement_tol``, and :class:`StepUnderflow` is raised otherwise.
    Paths clear of the poles agree at the first two runs, so their work
    does not depend on where they run.  The state is the
    smaller of Phi and 4 - Phi, the drive carrying the sign, so the tail
    4 - Phi near a negative-residue pole keeps its digits instead of
    rounding Phi to 4.

    Each run evaluates the pole sum of its drive with numpy at the run's
    half-step nodes, one pass each for the segment starts, all step
    midpoints and all step ends, and leaves only the scalar RK4 update to
    Python; the step floor stops the doubling within three rounds, so a
    run takes fewer than 2 / step steps plus eight per segment.  The
    clearance of every segment from every pole is one numpy pass; the
    first (segment, pole) pair in path and pole order that is too close
    raises :class:`PathTooCloseToPole`.  Serves as the independent oracle
    for the closed form and must not use it: the pole sum is its own, over
    ``form.poles``.  Raises :class:`HypothesesFailed` on forms the closed
    form rejects too.
    """
    require_hypotheses(form)
    phi_start = float(phi_start)
    if not (0.0 < phi_start < 4.0):
        raise BadInitialValue(f"start value {phi_start} outside (0, 4)")
    pts = [complex(p) for p in path]
    for k, p in enumerate(pts):
        if not cmath.isfinite(p):
            raise ValueError(f"path vertex {k} is not finite: {p!r}")
    ends = [(z0, z1) for z0, z1 in zip(pts, pts[1:]) if z0 != z1]
    if not ends:
        return phi_start
    z0s = np.array([z0 for z0, _ in ends])
    dzs = np.array([z1 for _, z1 in ends]) - z0s
    pole_data = tuple(form.poles)
    if pole_data:
        locs = np.array([a for a, _ in pole_data])
        dist = _segment_pole_distances(z0s, dzs, locs)
        # a clear path stops at the minimum; fmin skips NaN as "<" does
        if np.fmin.reduce(dist, axis=None) < min_pole_distance:
            k, i = divmod(int(np.flatnonzero(dist < min_pole_distance)[0]), len(locs))
            raise PathTooCloseToPole(
                f"segment {ends[k][0]!r} -> {ends[k][1]!r} passes within "
                f"{min_pole_distance} of pole {pole_data[i][0]!r}"
            )
    lengths = [abs(z1 - z0) for z0, z1 in ends]
    total = sum(lengths)

    def run(counts: Sequence[int]) -> float:
        # v is Phi (sign 1) or 4 - Phi (sign -1), switched to the one at
        # most 2 before each step; 4 - v is exact there, so nothing is lost.
        # rhs(s, phi) = phi (4 - phi) / 4 * 2 Re(eta(z(s)) dz); the drive
        # 0.5 Re(eta dz) at each segment's start and at each step's midpoint
        # z0 + (i h + h/2) dz and right end z0 + (i h + h) dz (h = 1/n for
        # the segment's n steps) is evaluated with numpy in one pass each
        i = np.concatenate([np.arange(n, dtype=float) for n in counts])
        hs = np.repeat([1.0 / n for n in counts], counts)
        z0, dz = np.repeat(z0s, counts), np.repeat(dzs, counts)
        base = i * hs
        starts = _drive(pole_data, z0s, dzs)
        steps = zip(_drive(pole_data, z0 + (base + 0.5 * hs) * dz, dz),
                    _drive(pole_data, z0 + (base + hs) * dz, dz))
        v, sign = phi_start, 1.0
        for n, start in zip(counts, starts):
            h = 1.0 / n
            w_right = sign * start
            for mid, right in islice(steps, n):
                if v > 2.0:
                    v, sign, w_right = 4.0 - v, -sign, -w_right
                w0 = w_right
                wm = sign * mid
                w_right = sign * right
                k1 = v * (4.0 - v) * w0
                p2 = v + 0.5 * h * k1
                k2 = p2 * (4.0 - p2) * wm
                p3 = v + 0.5 * h * k2
                k3 = p3 * (4.0 - p3) * wm
                p4 = v + h * k3
                k4 = p4 * (4.0 - p4) * w_right
                v += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        return v if sign > 0 else 4.0 - v

    spans = [L / total for L in lengths]
    counts = [max(1, math.ceil(span / (4.0 * step))) for span in spans]
    floor_counts = [2 * max(1, math.ceil(span / step)) for span in spans]
    fine = run(counts)
    while True:
        coarse = fine
        counts = [2 * n for n in counts]
        fine = run(counts)
        gap = abs(coarse - fine)
        if gap <= 1e-2 * agreement_tol:
            return fine
        if any(n >= f for n, f in zip(counts, floor_counts)):
            break
    if not gap <= agreement_tol:  # a NaN gap fails too
        raise StepUnderflow(
            f"step-doubling disagreement {gap:.3e} exceeds {agreement_tol:.1e}"
        )
    return fine
