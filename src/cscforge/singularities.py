"""Cone-angle prediction and measurement, and total-curvature accounting.

Near a conical point of angle ``2 pi a`` the density behaves like
``r^(2(a-1))`` times a continuous positive factor, so regressing the
angular average of ``u(r) = log(rho)/2`` against ``log r`` recovers
``a - 1`` as the slope; the fitted angle is ``2 pi (slope + 1)``.  Averaging
over angles kills the angular dependence of the holomorphic factor.

Total area is integrated by splitting the sphere into two chart disks at a
ring kept clear of singular points, excising each conical point with a C^2
bump and integrating the caps in log-radial coordinates, where the power
profile becomes a clean exponential decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import Divisor, Point, is_infinity
from .errors import AnnulusContainsSingularity, NonConicalSingularityPresent
from .forms import MeromorphicOneForm, SingularPoint, require_hypotheses

if TYPE_CHECKING:
    from .metric import DensityField

__all__ = [
    "SingularPointInfo",
    "ConeAngleReport",
    "GaussBonnetReport",
    "singular_point_info",
    "classify_singular_points",
    "predicted_divisor",
    "estimate_cone_angle",
    "gauss_bonnet_check",
    "total_metric_area",
]

TWO_PI = 2.0 * math.pi
_SMOOTH_TOL = 1e-9


@dataclass(frozen=True)
class SingularPointInfo:
    """Per-point prediction: what the divisor rules say about one location."""

    location: Point
    kind: str                       # "zero" or "pole"
    order: Optional[int]            # zero order, when kind == "zero"
    residue: Optional[float]        # real residue, when kind == "pole"
    predicted_angle: Optional[float]
    divisor_weight: float
    smooth: bool
    conical_expected: bool
    note: str = ""


@dataclass(frozen=True)
class ConeAngleReport:
    """Result of the log-slope regression around one point."""

    point: Point
    predicted_angle: Optional[float]
    fitted_angle: float
    fit_radii: Tuple[float, ...]
    regression_r2: float
    conical: bool
    note: str = ""


@dataclass(frozen=True)
class GaussBonnetReport:
    """Total curvature bookkeeping: K * area against 2 pi (chi + deg D)."""

    chi: int
    deg_d: float
    total_area: float
    K: int
    residual: float

    @property
    def expected_area(self) -> float:
        return TWO_PI * (self.chi + self.deg_d) / self.K


def singular_point_info(point: SingularPoint, K: int) -> SingularPointInfo:
    """Apply the angle rules to one zero or simple pole of a form.

    Zeros of order m get angle ``2 pi (m + 1)``.  Simple poles get angle
    ``2 pi |residue|`` whatever the sign of the residue, except that
    ``|residue| = 1`` marks a smooth point.  For K = 0 every negative-residue
    pole (unit residue included) is a singular point that is not conical:
    no angle, excluded from the divisor.
    """
    p = point.location
    if point.weight > 0:
        return SingularPointInfo(
            location=p,
            kind="zero",
            order=point.weight,
            residue=None,
            predicted_angle=TWO_PI * (point.weight + 1),
            divisor_weight=float(point.weight),
            smooth=False,
            conical_expected=True,
            note="degenerate when the K=-1 field value is 2 here"
            if K == -1 else "",
        )
    lam = point.residue.real
    mag = abs(lam)
    if K == 0 and lam < 0:
        # the flat-case density diverges here whatever |residue| is,
        # so even residue -1 is singular (only +1 is a smooth point)
        return SingularPointInfo(
            location=p, kind="pole", order=None, residue=lam,
            predicted_angle=None, divisor_weight=0.0,
            smooth=False, conical_expected=False,
            note="negative residue with K=0: singular but not conical",
        )
    if abs(mag - 1.0) <= _SMOOTH_TOL:
        return SingularPointInfo(
            location=p, kind="pole", order=None, residue=lam,
            predicted_angle=TWO_PI, divisor_weight=0.0,
            smooth=True, conical_expected=False,
            note="unit residue: smooth point of the metric",
        )
    return SingularPointInfo(
        location=p, kind="pole", order=None, residue=lam,
        predicted_angle=TWO_PI * mag, divisor_weight=mag - 1.0,
        smooth=False, conical_expected=True,
    )


def classify_singular_points(
    form: MeromorphicOneForm, K: int
) -> List[SingularPointInfo]:
    """The angle rules of :func:`singular_point_info` applied to every zero
    and pole of a form that satisfies the hypotheses (so every pole is
    simple)."""
    require_hypotheses(form)
    return [singular_point_info(p, K) for p in form.singular_points]


def predicted_divisor(form: MeromorphicOneForm, K: int) -> Divisor:
    """Divisor represented by the metric: weight ``order`` at zeros and
    ``|residue| - 1`` at poles, smooth points omitted, K = 0 negative-residue
    poles excluded (they are not conical)."""
    pairs = []
    for info in classify_singular_points(form, K):
        if info.divisor_weight != 0.0 and info.conical_expected:
            pairs.append((info.location, info.divisor_weight))
    return Divisor.from_pairs(pairs)


def _chart_exclusions(field: DensityField, point: Point) -> Tuple[complex, List[complex]]:
    """Map the field's exclusion points into the fitting chart; the chart
    center represents ``point`` itself."""
    exclusions = list(field.exclusion_points())
    if is_infinity(point):
        center = 0j
        others = [1.0 / p for p in exclusions if abs(p) > 0]
    else:
        center = complex(point)
        others = [p for p in exclusions if abs(p - center) > 1e-9]
    return center, others


def estimate_cone_angle(
    field: DensityField,
    point: Point,
    radii: Sequence[float] | None = None,
    n_theta: int = 64,
) -> ConeAngleReport:
    """Fit the cone angle at ``point`` from the density on small circles.

    ``u(r)``, the angular average of ``log(rho)/2`` over ``n_theta`` samples,
    is regressed against ``log r`` over ``radii``; the fitted angle is
    ``2 pi (slope + 1)``.  The point at infinity is handled in the w = 1/z
    chart with its conformal factor.  The report is flagged conical only
    when the regression is tight (r^2 >= 0.999) and the fitted angle is a
    genuine cone angle (positive, not the smooth 2 pi).

    The default radii span two decades at the small end of [1e-5, 1e-2]:
    keeping the largest radius at 1e-3 bounds the slope bias from the
    continuous remainder of the density well inside the 1% angle budget.
    """
    if radii is None:
        radii = np.geomspace(1e-5, 1e-3, 12)
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii.size < 2 or radii[0] <= 0:
        raise ValueError("need at least two positive radii")
    rmax = float(radii[-1])
    center, others = _chart_exclusions(field, point)
    chart = "w" if is_infinity(point) else "z"
    for q in others:
        if abs(q - center) <= 2.0 * rmax:
            raise AnnulusContainsSingularity(
                f"singular point {q!r} within the fitting annulus of {point!r}"
            )
    note = ""
    # only zeros can sit on the degeneracy locus: the field saturates to 0
    # or 4 at poles.  Radius 0 keeps the point itself in the mask.
    if field.K == -1 and not is_infinity(point):
        if not field.admissible_mask(np.array([center]), 0.0, 1e-6)[0]:
            note = "degenerate: K=-1 field value is 2 at this point"

    theta = np.exp(2j * math.pi * np.arange(n_theta) / n_theta)
    u = np.empty(radii.size)
    for i, r in enumerate(radii):
        ring = center + r * theta
        u[i] = 0.5 * float(np.mean(field.log_density_many(ring, chart=chart)))
    t = np.log(radii)
    tbar = t.mean()
    ubar = u.mean()
    stt = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (u - ubar)) / stt)
    resid = u - (ubar + slope * (t - tbar))
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((u - ubar) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-24 else 0.0
    fitted = TWO_PI * (slope + 1.0)
    predicted = field.predicted_angle_at(point)
    conical = (
        r2 >= 0.999
        and fitted > 0.0
        and abs(fitted - TWO_PI) > 0.02 * TWO_PI
        and not note
    )
    return ConeAngleReport(
        point=point,
        predicted_angle=predicted,
        fitted_angle=fitted,
        fit_radii=tuple(float(r) for r in radii),
        regression_r2=r2,
        conical=conical,
        note=note,
    )


# ---------------------------------------------------------------------------
# Total area quadrature
# ---------------------------------------------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    """C^2 cutoff: 1 for t <= 1/2, 0 for t >= 1, quintic in between."""
    s = np.clip((np.asarray(t, dtype=float) - 0.5) / 0.5, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


def _split_radius(finite_sing: Sequence[complex]) -> float:
    """Ring radius separating the two chart disks: |z| = 1 unless a singular
    point sits near that circle, in which case the ring moves to the clearest
    nearby radius."""
    mags = sorted(abs(p) for p in finite_sing)
    if min((abs(m - 1.0) for m in mags), default=math.inf) >= 0.15:
        return 1.0
    candidates = [0.75, 1.35, 0.6, 1.8]
    for lo, hi in zip(mags, mags[1:]):
        if lo > 0:
            candidates.append(math.sqrt(lo * hi))
    best, best_sep = 1.0, -1.0
    for r in candidates:
        if not (0.4 <= r <= 2.5):
            continue
        sep = min((abs(m - r) for m in mags), default=math.inf)
        if sep > best_sep:
            best, best_sep = r, sep
    return best


def _cap_area(field: DensityField, chart: str, center: complex, delta: float, a: float,
              n_theta: int, n_gl: int) -> float:
    """Area of the bump-weighted cap around one conical point, integrated in
    log-radial coordinates r = delta * exp(-v)."""
    v_max = max(10.0, 12.0 / a)
    nodes, weights = np.polynomial.legendre.leggauss(n_gl)
    v = 0.5 * v_max * (nodes + 1.0)
    wts = 0.5 * v_max * weights
    r = delta * np.exp(-v)
    theta = np.exp(2j * math.pi * np.arange(n_theta) / n_theta)
    pts = center + r[:, None] * theta[None, :]
    rho = np.exp(field.log_density_many(pts.ravel(), chart=chart)).reshape(pts.shape)
    ring_mean = rho.mean(axis=1) * _bump(r / delta)
    integrand = TWO_PI * ring_mean * (delta * np.exp(-v)) ** 2
    return float(np.sum(wts * integrand))


def _chart_remainder(field: DensityField, chart: str, chart_radius: float,
                     caps: List[Tuple[complex, float]],
                     n_r: int, n_theta: int) -> float:
    """Midpoint polar quadrature of the density over the chart disk with the
    bump caps removed."""
    dr = chart_radius / n_r
    r = (np.arange(n_r) + 0.5) * dr
    theta = np.exp(2j * math.pi * (np.arange(n_theta) + 0.5) / n_theta)
    pts = r[:, None] * theta[None, :]
    weight = np.ones(pts.shape)
    for c, delta in caps:
        weight *= 1.0 - _bump(np.abs(pts - c) / delta)
    flat = pts.ravel()
    keep = weight.ravel() > 0.0
    rho = np.zeros(flat.shape)
    rho[keep] = np.exp(field.log_density_many(flat[keep], chart=chart))
    rho = rho.reshape(pts.shape) * weight
    ring = rho.mean(axis=1) * TWO_PI * r
    return float(np.sum(ring) * dr)


def total_metric_area(
    field: DensityField,
    n_r: int = 700,
    n_theta: int = 1024,
    cap_theta: int = 192,
    cap_gl: int = 80,
) -> float:
    """Numerically integrate the density over the whole sphere.

    The plane is split at a ring clear of singular points; each side is a
    chart disk.  Conical points are excised with C^2 bumps whose caps are
    integrated in log-radial coordinates (the conical power profile becomes
    an exponential there), and the smooth remainder is integrated on a polar
    midpoint grid.
    """
    sing = field.area_singular_exponents()
    finite = [complex(p) for p, _ in sing if not is_infinity(p)]
    split = _split_radius(finite)
    area = 0.0
    for chart in ("z", "w"):
        chart_radius = split if chart == "z" else 1.0 / split
        local: List[Tuple[complex, float]] = []
        for p, a in sing:
            if chart == "z":
                if not is_infinity(p) and abs(p) < split:
                    local.append((complex(p), a))
            else:
                if is_infinity(p):
                    local.append((0j, a))
                elif abs(p) > split:
                    local.append((1.0 / complex(p), a))
        caps: List[Tuple[complex, float]] = []
        for i, (c, a) in enumerate(local):
            room = chart_radius - abs(c)
            for j, (c2, _) in enumerate(local):
                if j != i:
                    room = min(room, 0.5 * abs(c - c2))
            delta = min(0.3, 0.9 * room)
            if delta <= 1e-3:
                raise AnnulusContainsSingularity(
                    "conical points too crowded for the quadrature"
                )
            caps.append((c, delta))
            area += _cap_area(field, chart, c, delta, a, cap_theta, cap_gl)
        area += _chart_remainder(field, chart, chart_radius, caps, n_r, n_theta)
    return area


def gauss_bonnet_check(field: DensityField) -> GaussBonnetReport:
    """Compare K times the total area with ``2 pi (chi + deg D)``.

    Only K = 1 qualifies: with K = 0 the residue theorem forces a
    negative-residue pole somewhere, which is not conical, and with K = -1
    the density degenerates along the level set where the field equals 2.
    """
    K = int(field.K)
    if K != 1:
        raise NonConicalSingularityPresent(
            "total-curvature accounting requires K = 1 on the sphere"
        )
    deg_d = float(field.divisor_degree)
    area = total_metric_area(field)
    expected = TWO_PI * (2.0 + deg_d)
    return GaussBonnetReport(
        chi=2,
        deg_d=deg_d,
        total_area=area,
        K=K,
        residual=abs(K * area - expected),
    )
