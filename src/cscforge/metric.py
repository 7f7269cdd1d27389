"""Metric densities for the three curvature signs, and their verification.

The density of ``g = rho |dz|^2`` is

    rho = 4 Phi (4 - Phi) / (4 + (K - 1) Phi)^2 * |eta|^2,

and with ``Phi = 4 sigma(x)``, ``x`` the offset potential, it is elementary
in ``x``:

    K = 1:   rho = 4 e^(-|x|) / (1 + e^(-|x|))^2 * |eta|^2,
    K = 0:   rho = 4 e^x * |eta|^2,
    K = -1:  rho = 4 e^(-|x|) / (1 - e^(-|x|))^2 * |eta|^2.

It is evaluated in log space, with ``log1p`` and ``expm1`` for the two
K = +-1 denominators, which stays accurate however hard the field saturates
near poles; at K = +-1 it is even in ``x`` by construction.  Points go
through in fixed blocks, each in one pass over the poles that yields both
``x`` and ``log|eta|``.  Gauss curvature is verified with the five-point
Laplacian of ``log rho``:  ``K_est = -lap(log rho) / (2 rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Protocol, Sequence, Tuple

import numpy as np

from .errors import DegenerateHyperbolicPoint, GridTouchesSingularity
from .forms import MeromorphicOneForm
from .phifield import PhiField, solve_phi_closed
from .singularities import (
    SingularPointInfo,
    admissible_mask,
    classify_singular_points,
    exclusion_points,
)

__all__ = [
    "DensityField",
    "GridSpec",
    "MetricField",
    "CurvatureReport",
    "gauss_curvature_fd",
    "negation_invariance_check",
    "suggest_grid",
    "write_density_grid",
    "sample_points_avoiding",
]

_LOG4 = math.log(4.0)
# points per pass over the poles: on a 2-core x86-64 machine 32768 ran about
# 15% slower and 8192 no faster
_BLOCK = 16384


@dataclass(frozen=True)
class GridSpec:
    """Square n-by-n evaluation grid: center, half-width and point count."""

    center: complex
    half_width: float
    n: int

    def points(self) -> np.ndarray:
        """Grid points flattened row-major (y outer, x inner)."""
        side = np.linspace(-self.half_width, self.half_width, self.n)
        X, Y = np.meshgrid(self.center.real + side, self.center.imag + side)
        return (X + 1j * Y).ravel()

    def describe(self) -> str:
        return (
            f"center=({self.center.real:g},{self.center.imag:g}) "
            f"half_width={self.half_width:g} n={self.n}"
        )


class DensityField(Protocol):
    """What the verification routines need of a metric: its curvature sign,
    its log density in the z or w = 1/z chart, and one table of its singular
    points, from which :mod:`.singularities` derives every other view.
    :class:`MetricField` and the closed two-cone families implement it."""

    K: int

    def log_density_many(self, pts: np.ndarray, chart: str = "z") -> np.ndarray: ...

    @property
    def singular_points(self) -> Tuple[SingularPointInfo, ...]: ...


@dataclass(frozen=True, eq=False)
class MetricField:
    """Density evaluator of the constant-curvature metric for one K."""

    phi: PhiField
    K: int

    def __post_init__(self):
        if self.K not in (-1, 0, 1):
            raise ValueError("curvature sign must be one of -1, 0, 1")

    @property
    def form(self) -> MeromorphicOneForm:
        return self.phi.form

    @cached_property
    def singular_points(self) -> Tuple[SingularPointInfo, ...]:
        """The angle rules applied to every zero and pole of the form."""
        return tuple(classify_singular_points(self.form, self.K))

    # -- evaluation --------------------------------------------------------

    def log_density_many(self, pts: np.ndarray, chart: str = "z") -> np.ndarray:
        """log(rho) at an array of points, in the z chart or the w = 1/z chart
        (the w chart carries the conformal factor |dz/dw|^2 = 1/|w|^4)."""
        if chart not in ("z", "w"):
            raise ValueError("chart must be 'z' or 'w'")
        pts = np.asarray(pts, dtype=complex)
        flat = pts.ravel()
        out = np.empty(flat.shape)
        for lo in range(0, flat.size, _BLOCK):
            zs, extra = flat[lo:lo + _BLOCK], 0.0
            if chart == "w":
                with np.errstate(divide="ignore"):
                    extra = -4.0 * np.log(np.abs(zs))
                zs = 1.0 / zs
            x, log_abs_eta = self.form.potential_and_log_eta(zs)
            x += self.phi.a0
            if self.K == 0:
                factor = _LOG4 + x
            else:
                ax = np.abs(x)
                with np.errstate(divide="ignore"):
                    tail = np.log1p(np.exp(-ax)) if self.K == 1 else np.log(-np.expm1(-ax))
                factor = _LOG4 - ax - 2.0 * tail
            out[lo:lo + _BLOCK] = factor + 2.0 * log_abs_eta + extra
        return out.reshape(pts.shape)

    def density(self, z: complex) -> float:
        """rho at a single point; 0 exactly at zeros of the form.

        Raises :class:`EvalAtPole` on top of a pole and, for K = -1,
        :class:`DegenerateHyperbolicPoint` where the field value is 2.
        """
        z = complex(z)
        self.form._guard_pole(z)
        if self.K == -1:
            if abs(self.phi.value(z) - 2.0) <= 1e-9:
                raise DegenerateHyperbolicPoint(
                    f"field value is 2 at {z!r}; the K=-1 density degenerates"
                )
        val = self.log_density_many(np.array([z]))[0]
        return float(np.exp(val))


@dataclass(frozen=True)
class CurvatureReport:
    """Residuals of the finite-difference curvature against the target K."""

    description: str
    h: float
    expected_curvature: float
    points: np.ndarray
    estimates: np.ndarray
    n_total: int
    n_excluded: int

    @property
    def residuals(self) -> np.ndarray:
        return self.estimates - self.expected_curvature

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def _laplacian_log_density(field: DensityField, pts: np.ndarray, logrho: np.ndarray,
                           h: float) -> np.ndarray:
    """Five-point Laplacian of log(rho) with spacing h; ``logrho`` is
    log(rho) at ``pts``."""
    lap = -4.0 * logrho
    for off in (h, -h, 1j * h, -1j * h):
        lap += field.log_density_many(pts + off)
    lap /= h * h
    return lap


def gauss_curvature_fd(field: DensityField, grid, h: float = 1e-3) -> CurvatureReport:
    """Estimate the Gauss curvature on a grid by finite differences.

    ``grid`` is a :class:`GridSpec` or any array of complex points.  Points
    within 0.05 of a zero or pole (or, for K = -1, where the field is within
    0.05 of 2) are excluded; the report covers the admissible points only.
    Raises :class:`GridTouchesSingularity` when no admissible point remains.
    """
    if isinstance(grid, GridSpec):
        pts = grid.points()
        desc = grid.describe()
    else:
        pts = np.asarray(grid, dtype=complex).ravel()
        desc = f"{pts.size} explicit points"
    admissible = pts[admissible_mask(field, pts)]
    if admissible.size == 0:
        raise GridTouchesSingularity("no admissible grid points remain")
    center = field.log_density_many(admissible)
    lap = _laplacian_log_density(field, admissible, center, h)
    k_est = -lap / (2.0 * np.exp(center))
    return CurvatureReport(
        description=desc,
        h=h,
        expected_curvature=float(field.K),
        points=admissible,
        estimates=k_est,
        n_total=int(pts.size),
        n_excluded=int(pts.size - admissible.size),
    )


def sample_points_avoiding(excluded: Sequence[complex], n: int, seed: int) -> np.ndarray:
    """Deterministic sample of points in the box |Re z|, |Im z| <= 2.2 at
    least 0.1 from every excluded location."""
    rng = np.random.default_rng(seed)
    out: List[complex] = []
    guard = 0
    while len(out) < n:
        guard += 1
        if guard > 200 * n:
            raise RuntimeError("sampling starved; exclusion set too dense")
        z = complex(rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2))
        if all(abs(z - p) >= 0.1 for p in excluded):
            out.append(z)
    return np.array(out, dtype=complex)


def negation_invariance_check(form: MeromorphicOneForm, phi0: float = 1.5) -> float:
    """Largest pointwise K = 1 density discrepancy between the field of
    ``(form, phi0)`` and that of ``(-form, 4 - phi0)`` with the same default
    base point, over 100 seeded points.  The two describe the same metric,
    so this should vanish."""
    field_a = MetricField(solve_phi_closed(form, None, phi0), K=1)
    neg = form.negated()
    field_b = MetricField(solve_phi_closed(neg, field_a.phi.p0, 4.0 - phi0), K=1)
    pts = sample_points_avoiding(exclusion_points(field_a), 100, 20201)
    rho_a = np.exp(field_a.log_density_many(pts))
    rho_b = np.exp(field_b.log_density_many(pts))
    return float(np.max(np.abs(rho_a - rho_b)))


def suggest_grid(field: DensityField) -> GridSpec:
    """Pick a 21 x 21 grid patch of half-width 0.1 whose circumscribed disc
    stays 0.3 clear of the singular points (and, for K = -1, whose 5 x 5
    probe stays 0.25 clear of field value 2), preferring patches where the
    density is moderate."""
    half_width = 0.1
    exclusions = exclusion_points(field)
    candidates: List[complex] = []
    for xr in np.arange(-2.0, 2.01, 0.25):
        for yi in np.arange(-2.0, 2.01, 0.25):
            candidates.append(complex(xr, yi))
    for p in exclusions:
        for k in range(12):
            candidates.append(p + 0.55 * np.exp(2j * math.pi * k / 12))
    reach = half_width * math.sqrt(2.0)
    kept: List[complex] = []
    dists: List[float] = []
    for c in candidates:
        dist = min((abs(c - p) for p in exclusions), default=math.inf) - reach
        if dist >= 0.3:
            kept.append(c)
            dists.append(dist)
    # the 5x5 probe patch of every candidate, one row each, evaluated at once
    side = np.linspace(-half_width, half_width, 5)
    probes = np.array(kept, dtype=complex)[:, None] + (
        side[:, None] + 1j * side[None, :]).ravel()[None, :]
    ok = np.ones(len(kept), dtype=bool)
    if field.K == -1:
        ok = admissible_mask(field, probes.ravel(), 0.0, 0.25).reshape(
            probes.shape).all(axis=1)
    levels = np.full(len(kept), math.nan)
    logrho = field.log_density_many(probes[ok].ravel()).reshape(-1, probes.shape[1])
    # the median of each odd-sized probe row (np.median would import numpy.ma)
    mid = probes.shape[1] // 2
    levels[ok] = np.partition(np.abs(logrho), mid, axis=1)[:, mid]
    best = None
    best_score = -math.inf
    for c, dist, good, level in zip(kept, dists, ok, levels):
        if not good:
            continue
        score = min(dist, 1.0) - 0.05 * float(level)
        if score > best_score + 1e-12:
            best_score = score
            best = c
    if best is None:
        raise GridTouchesSingularity("no admissible grid patch found")
    return GridSpec(center=best, half_width=half_width, n=21)


_CSV_BLOCK = 1024  # rows formatted by one % operation
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g\n"  # the formatter of format(x, ".17g")


def write_density_grid(field: MetricField, grid: GridSpec, h: float, stream) -> float:
    """Write ``x,y,rho,phi,K_est`` rows (17 significant digits) and return the
    max curvature residual over the admissible points."""
    pts = grid.points()
    logrho = field.log_density_many(pts)
    rho = np.exp(logrho)
    phi = field.phi.value_many(pts)
    lap = _laplacian_log_density(field, pts, logrho, h)
    k_est = -lap / (2.0 * rho)
    stream.write("x,y,rho,phi,K_est\n")
    cols = (pts.real, pts.imag, rho, phi, k_est)
    for lo in range(0, len(pts), _CSV_BLOCK):
        block = np.column_stack([c[lo:lo + _CSV_BLOCK] for c in cols])
        stream.write(_CSV_ROW * len(block) % tuple(block.ravel().tolist()))
    mask = admissible_mask(field, pts)
    if not np.any(mask):
        return math.nan
    return float(np.max(np.abs(k_est[mask] - field.K)))
