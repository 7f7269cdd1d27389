"""Cone-angle prediction and measurement, and total-curvature accounting.

Every view the checks need of a field's singular points (the points to
avoid, the predicted angle at a point, the conical exponents of the area
caps, the divisor degree) is derived here from its one table of them.

Near a conical point of angle ``2 pi a`` the density behaves like
``r^(2(a-1))`` times a continuous positive factor, so regressing the
angular average of ``u(r) = log(rho)/2`` against ``log r`` recovers
``a - 1`` as the slope; the fitted angle is ``2 pi (slope + 1)``.  Averaging
over angles kills the angular dependence of the holomorphic factor.

Total area is integrated by splitting the sphere into two chart disks at a
ring kept clear of singular points, excising each conical point with a
C^infinity bump (the exp(-1/x) partition of unity, switching off across the
whole cap) and integrating the caps in log-radial coordinates, where the
power profile becomes a clean exponential decay.  The remainder is smooth
and periodic in theta, so Gauss-Legendre in r by the trapezoid rule in theta
converges geometrically (Trefethen & Weideman, SIAM Review 2014).  Each
piece of a chart (the remainder and each cap) doubles its nodes, from a
48x96 remainder grid up to 384x768, until the chart's two successive values
agree; from the third level on, a piece that has already converged keeps
its value.  The sum over charts of the last gaps, a kept piece's own
last gap included, is reported as the area's error estimate, with the number
of density points used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import Point, _points_close, is_infinity
from .errors import AnnulusContainsSingularity, NonConicalSingularityPresent
from .forms import MeromorphicOneForm, SingularPoint, require_hypotheses

if TYPE_CHECKING:
    from .metric import DensityField

__all__ = [
    "SingularPointInfo",
    "ConeAngleReport",
    "GaussBonnetReport",
    "AreaEstimate",
    "classify_singular_points",
    "exclusion_points",
    "admissible_mask",
    "estimate_cone_angle",
    "gauss_bonnet_check",
    "total_metric_area",
]

TWO_PI = 2.0 * math.pi
_SMOOTH_TOL = 1e-9


@dataclass(frozen=True)
class SingularPointInfo:
    """Per-point prediction: what the angle rules say about one location.
    ``predicted_angle`` is None where no angle is asserted."""

    location: Point
    predicted_angle: Optional[float]
    divisor_weight: float
    conical_expected: bool


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
    error_estimate: float           # quadrature's own estimate of |area error|
    nodes: int                      # density points the quadrature evaluated

    @property
    def expected_area(self) -> float:
        return TWO_PI * (self.chi + self.deg_d) / self.K


def _singular_point_info(point: SingularPoint, K: int) -> SingularPointInfo:
    """Apply the angle rules to one zero or simple pole of a form.

    Zeros of order m get angle ``2 pi (m + 1)``.  Simple poles get angle
    ``2 pi |residue|`` whatever the sign of the residue, except that
    ``|residue| = 1`` marks a smooth point.  For K = 0 every negative-residue
    pole (unit residue included) is a singular point that is not conical:
    no angle, excluded from the divisor.
    """
    p = point.location
    if point.weight > 0:
        return SingularPointInfo(p, TWO_PI * (point.weight + 1), float(point.weight), True)
    lam = point.residue.real
    mag = abs(lam)
    if K == 0 and lam < 0:
        # the flat-case density diverges here whatever |residue| is,
        # so even residue -1 is singular (only +1 is a smooth point)
        return SingularPointInfo(p, None, 0.0, False)
    if abs(mag - 1.0) <= _SMOOTH_TOL:
        return SingularPointInfo(p, TWO_PI, 0.0, False)  # a smooth point of the metric
    return SingularPointInfo(p, TWO_PI * mag, mag - 1.0, True)


def classify_singular_points(
    form: MeromorphicOneForm, K: int
) -> List[SingularPointInfo]:
    """The angle rules of :func:`_singular_point_info` applied to every zero
    and pole of a form that satisfies the hypotheses (so every pole is
    simple)."""
    require_hypotheses(form)
    return [_singular_point_info(p, K) for p in form.singular_points]


def exclusion_points(field: DensityField) -> Tuple[complex, ...]:
    """The finite locations of the field's singular-point table."""
    return tuple(complex(i.location) for i in field.singular_points
                 if not is_infinity(i.location))


def admissible_mask(field: DensityField, pts: np.ndarray, exclusion_radius: float = 0.05,
                    phi_gap: float = 0.05) -> np.ndarray:
    """Points farther than ``exclusion_radius`` from every finite singular
    point and, for K = -1, at least ``phi_gap`` from the locus where the
    field value is 2 (read from ``field.phi``).  A radius or gap of 0
    switches its test off."""
    pts = np.asarray(pts, dtype=complex)
    mask = np.ones(pts.shape, dtype=bool)
    if exclusion_radius > 0:
        for p in exclusion_points(field):
            mask &= np.abs(pts - p) > exclusion_radius
    if field.K == -1 and phi_gap > 0:
        mask &= np.abs(field.phi.value_many(pts) - 2.0) >= phi_gap
    return mask


def _ring(n_theta: int) -> np.ndarray:
    """The n_theta-th roots of unity, for equally spaced angular samples."""
    return np.exp(2j * math.pi * np.arange(n_theta) / n_theta)


def estimate_cone_angle(
    field: DensityField,
    point: Point,
    radii: Sequence[float] | None = None,
) -> ConeAngleReport:
    """Fit the cone angle at ``point`` from the density on small circles.

    ``u(r)``, the angular average of ``log(rho)/2`` over 64 samples,
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
    # the point's own table entry (1e-9 relative), if any; every other finite
    # entry, mapped into the fitting chart, must clear the annulus
    table = field.singular_points
    entry = next((i for i in table if _points_close(i.location, point, 1e-9)), None)
    others = [complex(i.location) for i in table
              if i is not entry and not is_infinity(i.location)]
    if is_infinity(point):
        center, chart = 0j, "w"
        others = [1.0 / q for q in others if abs(q) > 0]
    else:
        center, chart = complex(point), "z"
    for q in others:
        if abs(q - center) <= 2.0 * rmax:
            raise AnnulusContainsSingularity(
                f"singular point {q!r} within the fitting annulus of {point!r}"
            )
    note = ""
    # only zeros can sit on the degeneracy locus: the field saturates to 0
    # or 4 at poles.  Radius 0 keeps the point itself in the mask.
    if field.K == -1 and not is_infinity(point):
        if not admissible_mask(field, np.array([center]), 0.0, 1e-6)[0]:
            note = "degenerate: K=-1 field value is 2 at this point"

    rings = center + radii[:, None] * _ring(64)[None, :]
    logs = field.log_density_many(rings.ravel(), chart=chart).reshape(rings.shape)
    t = np.log(radii)
    tbar = t.mean()
    # an infinite log density on a ring (at a high-order zero) makes the fit
    # NaN, which the report shows; numpy need not warn about it on stderr
    with np.errstate(invalid="ignore"):
        u = 0.5 * np.mean(logs, axis=1)
        ubar = u.mean()
        stt = float(np.sum((t - tbar) ** 2))
        slope = float(np.sum((t - tbar) * (u - ubar)) / stt)
        resid = u - (ubar + slope * (t - tbar))
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((u - ubar) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-24 else 0.0
    fitted = TWO_PI * (slope + 1.0)
    # 2 pi at regular points, None where the table asserts no angle
    predicted = TWO_PI if entry is None else entry.predicted_angle
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

# Doubling schedule: level k uses (n_r, n_theta) = 2^k (48, 96) on a chart's
# remainder and 2^k (12, 24) Gauss-Legendre nodes per panel by ring samples on
# each of its caps, up to 384x768 and 96 nodes per panel at level 3.  The
# bump falls gently across its whole cap, so the standard forms meet
# _AREA_RTOL at level 1.  Levels 0 and 1 evaluate every piece; from level 2
# on a piece whose last gap is at most _PIECE_RTOL of the chart value keeps
# its value, and that gap joins the chart's.  A chart stops at the first
# level whose gap is within _AREA_RTOL of its value, and at the top level
# whatever the gap.
_AREA_LEVELS = 4
_AREA_RTOL = 1e-6
_PIECE_RTOL = 1e-2 * _AREA_RTOL


@dataclass(frozen=True)
class AreaEstimate:
    """Total area with the sum over charts of the last doubling gap, and the
    number of density points evaluated."""

    area: float
    error_estimate: float
    nodes: int


def _bump(t: np.ndarray) -> np.ndarray:
    """C^infinity cutoff over the whole cap: 1 at t = 0, 0 for t >= 1, the
    exp(-1/x) partition of unity in between.  Its only non-analytic points
    are t = 0 and t = 1, where the cap's panels end, and 1 - bump vanishes to
    all orders at t = 0, so the remainder's weight stays smooth at a cone."""
    s = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        on = np.exp(-1.0 / (1.0 - s))
        off = np.exp(-1.0 / s)
    return on / (on + off)


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


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1] (read-only; the
    doubling schedule asks for six sizes: 12, 24, 48, 96, 192 and 384), by
    Newton's method on the three-term recurrence: O(n^2) array work, where
    ``numpy.polynomial.legendre.leggauss`` solves a dense n-by-n
    eigenproblem through threaded BLAS."""
    x = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_legendre(lo: float, hi: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = _legendre_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _cap_area(field: DensityField, chart: str, center: complex, delta: float, a: float,
              n_gl: int, n_theta: int) -> Tuple[float, int]:
    """Area of the bump-weighted cap around one conical point, integrated in
    log-radial coordinates r = delta * exp(-v): Gauss-Legendre in v on
    [0, ln 2], which keeps the bump's steep half (r/delta from 1/2 to 1) on
    a panel of its own, and on [ln 2, v_max] separately, the trapezoid rule
    in theta.  The outer panel carries the bump's tail, so caps with
    exponents below about 1.2 take more levels than the standard forms'."""
    v_max = max(10.0, 12.0 / a)
    v0, w0 = _gauss_legendre(0.0, math.log(2.0), n_gl)
    v1, w1 = _gauss_legendre(math.log(2.0), v_max, n_gl)
    v = np.concatenate((v0, v1))
    r = delta * np.exp(-v)
    pts = center + r[:, None] * _ring(n_theta)[None, :]
    rho = np.exp(field.log_density_many(pts.ravel(), chart=chart)).reshape(pts.shape)
    integrand = TWO_PI * rho.mean(axis=1) * _bump(r / delta) * r * r
    return float(np.dot(np.concatenate((w0, w1)), integrand)), int(pts.size)


def _chart_remainder(field: DensityField, chart: str, chart_radius: float,
                     caps: List[Tuple[complex, float]],
                     n_r: int, n_theta: int) -> Tuple[float, int]:
    """Density over the chart disk with the bump caps removed: Gauss-Legendre
    in r, the trapezoid rule in theta (the weighted integrand is smooth and
    periodic, so it converges geometrically)."""
    r, wr = _gauss_legendre(0.0, chart_radius, n_r)
    pts = r[:, None] * _ring(n_theta)[None, :]
    weight = np.ones(pts.shape)
    for c, delta in caps:
        # |z - c| < delta only on the rings with |r - |c|| < delta
        rows = np.abs(r - abs(c)) < delta
        t = np.abs(pts[rows] - c) / delta
        near = t < 1.0
        w = weight[rows]
        w[near] *= 1.0 - _bump(t[near])
        weight[rows] = w
    flat = pts.ravel()
    keep = weight.ravel() > 0.0
    rho = np.zeros(flat.shape)
    rho[keep] = np.exp(field.log_density_many(flat[keep], chart=chart))
    ring = (rho.reshape(pts.shape) * weight).mean(axis=1) * TWO_PI * r
    return float(np.dot(wr, ring)), int(np.count_nonzero(keep))


def _chart_area(field: DensityField, chart: str, chart_radius: float,
                local: List[Tuple[complex, float]]) -> Tuple[float, float, int]:
    """Area of one chart disk, doubled piece by piece per
    :data:`_AREA_LEVELS`: the value, its gap to the level before it plus the
    last gaps of the pieces kept from an earlier level, and the density
    points used."""
    caps: List[Tuple[complex, float]] = []
    for i, (c, _) in enumerate(local):
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
    # the pieces: the remainder, then each cap, each at a level's scale
    pieces = [lambda s: _chart_remainder(field, chart, chart_radius, caps,
                                         48 * s, 96 * s)]
    pieces += [lambda s, c=c, delta=delta, a=a: _cap_area(field, chart, c, delta, a,
                                                          12 * s, 24 * s)
               for (c, delta), (_, a) in zip(caps, local)]
    values = [math.nan] * len(pieces)
    gaps = [math.nan] * len(pieces)
    nodes = 0
    prev = gap = math.nan
    for level in range(_AREA_LEVELS):
        kept = [level >= 2 and g <= _PIECE_RTOL * abs(prev) for g in gaps]
        for k, piece in enumerate(pieces):
            if not kept[k]:
                v, used = piece(2**level)
                gaps[k] = abs(v - values[k])
                values[k] = v
                nodes += used
        value = values[0]
        for v in values[1:]:    # in order, as one running sum
            value += v
        if level > 0:
            gap = abs(value - prev) + sum(g for g, k in zip(gaps, kept) if k)
            if gap <= _AREA_RTOL * abs(value):
                break
        prev = value
    return value, gap, nodes


def total_metric_area(field: DensityField) -> AreaEstimate:
    """Numerically integrate the density over the whole sphere.

    The plane is split at a ring clear of singular points; each side is a
    chart disk.  Conical points are excised with C^infinity bumps whose caps
    are integrated in log-radial coordinates (the conical power profile
    becomes an exponential there), and the smooth remainder is integrated
    with Gauss-Legendre in r by the trapezoid rule in theta.  Each piece of a
    chart doubles its node counts until the chart's two successive values
    agree, except that from the third level on a piece whose last gap is
    at most 1e-2 of the chart's tolerance keeps its value; the chart's last gap
    plus the last gaps of the pieces it kept is its error estimate.
    """
    # conical points with the local exponent a (density like r^(2(a-1)))
    sing = [(i.location, i.predicted_angle / TWO_PI)
            for i in field.singular_points if i.conical_expected]
    finite = [complex(p) for p, _ in sing if not is_infinity(p)]
    split = _split_radius(finite)
    area = error = 0.0
    nodes = 0
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
        value, gap, used = _chart_area(field, chart, chart_radius, local)
        area += value
        error += gap
        nodes += used
    return AreaEstimate(area=area, error_estimate=error, nodes=nodes)


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
    deg_d = float(sum(i.divisor_weight for i in field.singular_points
                      if i.conical_expected))
    est = total_metric_area(field)
    expected = TWO_PI * (2.0 + deg_d)
    return GaussBonnetReport(
        chi=2,
        deg_d=deg_d,
        total_area=est.area,
        K=K,
        residual=abs(K * est.area - expected),
        error_estimate=est.error_estimate,
        nodes=est.nodes,
    )
