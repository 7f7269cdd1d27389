"""Standard forms on the sphere and the two-cone (football) metric families.

Three standard cases, distinguished by the divisor pattern and residues:

* ``simple``        one simple pole at 0 with real residue, one at infinity;
* ``unit_residues`` a zero of order alpha-1 at 0, alpha poles of residue +1,
                    a simple pole at infinity;
* ``plus_minus``    zeros of order alpha-1 at 0 and infinity, alpha poles of
                    residue +1 and alpha of residue -1.

The forced shapes come from a Wronskian identity: if t and s are monic of
equal degree alpha with nonzero constant terms and ``t's - ts'`` is a single
monomial of degree alpha-1, then every middle coefficient of t and s
vanishes, so ``t = z^alpha + t0`` and ``s = z^alpha + s0``.  Matching the
top coefficients downward forces this; the check below verifies it in exact
arithmetic.  Rescaling ``z = p w`` then brings each case to its normal form,
and the K = 1 metric of a standard form reduces to a closed two-cone family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .algebra import (
    INFINITY,
    ComplexPolynomial,
    ExactComplex,
    Point,
    is_infinity,
)
from .errors import (
    DegenerateA,
    InvalidAlpha,
    InvalidCaseData,
    NotMonomialIdentity,
    PatternMismatch,
    ResidueMismatch,
    ZeroMu,
)
from .forms import MeromorphicOneForm, build_third_kind

__all__ = [
    "CASE_SIMPLE",
    "CASE_UNIT_RESIDUES",
    "CASE_PLUS_MINUS",
    "StandardFormCase",
    "standard_form",
    "wronskian_identity_check",
    "normalize_form",
    "FootballMetric",
    "football_metric",
    "reduce_to_football",
    "a0_in_standard_coordinates",
]

CASE_SIMPLE = "simple"
CASE_UNIT_RESIDUES = "unit_residues"
CASE_PLUS_MINUS = "plus_minus"

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StandardFormCase:
    """Case data recovered by normalization.

    ``alpha`` holds the real residue in the simple case and the integer
    degree in the other two.  ``a`` is the second parameter of the
    plus/minus case (a complex constant, not 0 or 1).  ``scale`` is the
    constant p of the coordinate change z = p w onto the standard
    representative.
    """

    case: str
    alpha: float
    a: Optional[complex] = None
    scale: complex = 1.0 + 0j

    def __post_init__(self):
        if self.case not in (CASE_SIMPLE, CASE_UNIT_RESIDUES, CASE_PLUS_MINUS):
            raise InvalidCaseData(f"unknown case {self.case!r}")
        if self.scale == 0:
            raise InvalidCaseData("scale must be nonzero")
        if self.case == CASE_SIMPLE:
            if self.alpha == 0:
                raise InvalidCaseData("simple case needs a nonzero residue")
            if self.a is not None:
                raise InvalidCaseData("simple case takes no second parameter")
        else:
            n = int(round(self.alpha))
            if n != self.alpha or n < 2:
                raise InvalidCaseData("degree must be an integer >= 2")
            if self.case == CASE_PLUS_MINUS:
                if self.a is None:
                    raise InvalidCaseData("plus/minus case needs its constant a")
                a = complex(self.a)
                if abs(a) < 1e-12 or abs(a - 1.0) < 1e-12:
                    raise InvalidCaseData("constant a must avoid 0 and 1")
            elif self.a is not None:
                raise InvalidCaseData("unit-residue case takes no constant a")


def _roots_of_unity_shifted(alpha: int, a: complex) -> List[complex]:
    """The alpha solutions of z^alpha = -a."""
    mod = abs(a) ** (1.0 / alpha)
    base = (cmath.phase(a) + math.pi) / alpha
    return [mod * cmath.exp(1j * (base + TWO_PI * k / alpha)) for k in range(alpha)]


def standard_form(case: StandardFormCase) -> MeromorphicOneForm:
    """Materialize the standard representative of a case as a form."""
    if case.case == CASE_SIMPLE:
        return build_third_kind([(0j, complex(case.alpha))])
    alpha = int(case.alpha)
    plus = [(r, 1.0 + 0j) for r in _roots_of_unity_shifted(alpha, 1.0 + 0j)]
    if case.case == CASE_UNIT_RESIDUES:
        return build_third_kind(plus)
    minus = [(r, -1.0 + 0j) for r in _roots_of_unity_shifted(alpha, complex(case.a))]
    return build_third_kind(plus + minus)


def _coeff_is_zero(c, scale: float, tol: float) -> bool:
    if isinstance(c, ExactComplex):
        return c.is_zero
    return abs(c) <= tol * scale


def wronskian_identity_check(
    t: ComplexPolynomial, s: ComplexPolynomial, tol: float = 0.0
):
    """Verify that ``t's - ts'`` is a single monomial ``alpha mu z^(alpha-1)``.

    ``t`` and ``s`` must be monic of the same degree alpha >= 2 with nonzero
    constant terms.  On success returns ``(alpha, mu)`` with
    ``mu = s0 - t0`` and asserts the forced conclusion: every middle
    coefficient of t and s vanishes, so ``t = z^alpha + t0`` and
    ``s = z^alpha + s0``.  With ``tol == 0`` everything is checked exactly
    (exact coefficients required); a positive ``tol`` runs the floating
    variant with relative coefficient cutoff.

    Raises :class:`ZeroMu` when the Wronskian vanishes identically and
    :class:`NotMonomialIdentity` otherwise.
    """
    alpha = t.degree
    if alpha < 2 or s.degree != alpha:
        raise ValueError("need equal degrees >= 2")
    one = ExactComplex(1) if t.exact else 1.0 + 0j
    if t.leading_coefficient != one or s.leading_coefficient != one:
        raise ValueError("polynomials must be monic")
    if not t.constant_term() or not s.constant_term():
        raise ValueError("constant terms must be nonzero")
    if tol == 0.0 and not (t.exact and s.exact):
        raise ValueError("exact check requires exact coefficients (or pass tol > 0)")

    w = t.derivative() * s - t * s.derivative()
    if w.is_zero:
        raise ZeroMu("the Wronskian vanishes identically")
    scale = max(abs(complex(c)) for c in w.coeffs)
    if tol > 0.0 and all(_coeff_is_zero(c, scale, tol) for c in w.coeffs):
        raise ZeroMu("the Wronskian vanishes to working precision")
    if w.degree != alpha - 1:
        raise NotMonomialIdentity(
            f"Wronskian has degree {w.degree}, expected {alpha - 1}"
        )
    for k, c in enumerate(w.coeffs[:-1]):
        if not _coeff_is_zero(c, scale, tol):
            raise NotMonomialIdentity(f"Wronskian has a stray z^{k} term")
    lead = w.leading_coefficient
    mu = lead / alpha if t.exact else complex(lead) / alpha

    # forced conclusion: only the constant terms of t and s may differ from
    # z^alpha, and mu is exactly their difference
    tail_scale = max(
        max(abs(complex(c)) for c in t.coeffs),
        max(abs(complex(c)) for c in s.coeffs),
    )
    for poly in (t, s):
        for k in range(1, alpha):
            if not _coeff_is_zero(poly.coeffs[k], tail_scale, max(tol, 0.0)):
                raise NotMonomialIdentity(
                    "monomial Wronskian with surviving middle coefficient"
                )
    diff = s.constant_term() - t.constant_term()
    if t.exact:
        if diff != mu:
            raise NotMonomialIdentity("mu does not match the constant-term gap")
    else:
        if abs(complex(diff) - complex(mu)) > max(tol, 1e-12) * max(
            1.0, abs(complex(mu))
        ):
            raise NotMonomialIdentity("mu does not match the constant-term gap")
    return alpha, mu


def _canonical_scale(p_alpha: complex, alpha: int) -> complex:
    """The alpha-th root of ``p_alpha`` with argument in [0, 2 pi / alpha).

    Arguments within rounding of the branch edge are snapped to 0 so that a
    positive real ``p_alpha`` with tiny phase jitter stays on the real axis.
    """
    mod = abs(p_alpha) ** (1.0 / alpha)
    width = TWO_PI / alpha
    arg = (cmath.phase(p_alpha) / alpha) % width
    if width - arg < 1e-9 or arg < 1e-9:
        arg = 0.0
    return mod * cmath.exp(1j * arg)


def _monic_from_poles(locs: List[complex], tol: float) -> ComplexPolynomial:
    """Monic polynomial with the given roots (in the unit disc, so that the
    leading 1 stays above the cutoff), with near-zero coefficients snapped
    to exact zero (the forced identities are about exact zeros)."""
    poly = ComplexPolynomial.from_roots(locs)
    scale = max(abs(c) for c in poly.coeffs)
    cleaned = [0j if abs(c) <= tol * scale else c for c in poly.coeffs]
    return ComplexPolynomial(cleaned)


def _pullback_matches(form: MeromorphicOneForm, case: StandardFormCase,
                      tol: float = 1e-10) -> bool:
    """Check that substituting z = p w turns the input into the standard
    representative, at ten sample points clear of both forms' poles (in
    units of the standard coordinate w); False if 100 draws find no ten."""
    std = standard_form(
        StandardFormCase(case.case, case.alpha, case.a)
    )
    p = case.scale
    rng = np.random.default_rng(911)
    checked = 0
    for _ in range(100):
        w = complex(rng.uniform(0.35, 1.65) * cmath.exp(2j * math.pi * rng.uniform(0, 1)))
        if std.min_pole_distance(w) < 0.15 or form.min_pole_distance(p * w) < 0.15 * abs(p):
            continue
        lhs = form.eta_at(p * w) * p
        rhs = std.eta_at(w)
        if abs(lhs - rhs) > tol * (1.0 + abs(rhs)):
            return False
        checked += 1
        if checked == 10:
            return True
    return False


def normalize_form(form: MeromorphicOneForm, tol: float = 1e-9) -> StandardFormCase:
    """Recover the standard case data of a form.

    Matches the divisor and residues against the three patterns, rebuilds
    the monic pole polynomials, runs the Wronskian identity check where
    applicable, and extracts the scale p (principal root, canonicalized to
    argument in [0, 2 pi / alpha)) so that z = p w maps the input onto the
    standard representative.  The recovered pullback is verified at sample
    points.
    """
    residues = [lam for _, lam in form.poles]
    for lam in residues:
        if abs(lam.imag) > tol * max(1.0, abs(lam)):
            raise ResidueMismatch(f"residue {lam!r} is not real")
    div = form.divisor()

    # pole polynomials in units of the farthest pole; the scale is multiplied back
    reach = max((abs(a) for a, _ in form.poles), default=0.0) or 1.0
    plus = [a / reach for a, lam in form.poles if abs(lam - 1.0) <= tol]
    minus = [a / reach for a, lam in form.poles if abs(lam + 1.0) <= tol]

    if len(form.poles) == 1:
        a, lam = form.poles[0]
        if abs(a) > tol:
            raise PatternMismatch("the single finite pole must sit at 0")
        if div.weight_at(0j) != -1 or div.weight_at(INFINITY) != -1 or len(div) != 2:
            raise PatternMismatch("divisor is not -(0) - (infinity)")
        case = StandardFormCase(CASE_SIMPLE, lam.real, scale=1.0 + 0j)
        return case

    if len(plus) == len(form.poles):
        alpha = len(plus)
        if alpha < 2:
            raise PatternMismatch("need at least two unit-residue poles")
        if div.weight_at(0j) != alpha - 1 or div.weight_at(INFINITY) != -1:
            raise PatternMismatch(
                "divisor must be (alpha-1) 0 - poles - infinity"
            )
        t = _monic_from_poles(plus, tol)
        dt = t.derivative()
        scale = max(abs(c) for c in dt.coeffs)
        for k, c in enumerate(dt.coeffs[:-1]):
            if abs(c) > tol * scale:
                raise PatternMismatch("pole polynomial derivative is not a monomial")
        p = reach * _canonical_scale(complex(t.constant_term()), alpha)
        case = StandardFormCase(CASE_UNIT_RESIDUES, float(alpha), scale=p)
        if not _pullback_matches(form, case):
            raise PatternMismatch("rescaled form does not match the standard one")
        return case

    if plus and minus and len(plus) == len(minus) and \
            len(plus) + len(minus) == len(form.poles):
        alpha = len(plus)
        if alpha < 2:
            raise PatternMismatch("need at least two poles of each sign")
        if div.weight_at(0j) != alpha - 1 or div.weight_at(INFINITY) != alpha - 1:
            raise PatternMismatch(
                "divisor must be (alpha-1)(0 + infinity) - all poles"
            )
        t = _monic_from_poles(plus, tol)
        s = _monic_from_poles(minus, tol)
        walpha, _mu = wronskian_identity_check(t, s, tol=tol)
        if walpha != alpha:
            raise PatternMismatch("inconsistent degree from the identity check")
        t0 = complex(t.constant_term())
        s0 = complex(s.constant_term())
        a = s0 / t0
        if abs(a) < 1e-9 or abs(a - 1.0) < 1e-9:
            raise PatternMismatch("recovered constant a degenerates to 0 or 1")
        p = reach * _canonical_scale(t0, alpha)
        case = StandardFormCase(CASE_PLUS_MINUS, float(alpha), a=a, scale=p)
        if not _pullback_matches(form, case):
            raise PatternMismatch("rescaled form does not match the standard one")
        return case

    raise ResidueMismatch(
        "residues must be a single real (simple case), all +1, or a +1/-1 split"
    )


# ---------------------------------------------------------------------------
# Two-cone families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FootballMetric:
    """Closed-form K = 1 metric with two cones of equal angle ``2 pi alpha``.

    generic variant:  rho(w) = 4 a^2 |w|^(2(a-1)) / (1 + |w|^(2a))^2
    integer variant:  rho(w) = 4 a^2 |w|^(2(a-1)) / (1 + |w^a + b|^2)^2,
                      a a positive integer and b real.
    """

    alpha: float
    variant: str = "generic"
    b: float = 0.0

    K = 1

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidAlpha("cone parameter must be positive")
        if self.variant not in ("generic", "integer"):
            raise InvalidAlpha(f"unknown variant {self.variant!r}")
        if self.variant == "integer":
            if int(round(self.alpha)) != self.alpha or self.alpha < 1:
                raise InvalidAlpha("integer variant needs a positive integer")

    def log_density_many(self, pts: np.ndarray, chart: str = "z") -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        with np.errstate(divide="ignore"):
            log_r = np.log(np.abs(pts))
        a = self.alpha
        lead = math.log(4.0 * a * a)
        if self.variant == "generic":
            # identical in both charts: the family is symmetric under w -> 1/w
            return lead + (2 * a - 2) * log_r - 2.0 * np.logaddexp(0.0, 2 * a * log_r)
        n = int(round(a))
        if chart == "z":
            wa = pts**n
            return lead + (2 * a - 2) * log_r - 2.0 * np.log1p(np.abs(wa + self.b) ** 2)
        if chart == "w":
            va = pts**n
            return (
                lead
                + (2 * a - 2) * log_r
                - 2.0 * np.log(np.abs(va) ** 2 + np.abs(1.0 + self.b * va) ** 2)
            )
        raise ValueError("chart must be 'z' or 'w'")

    def density(self, w: complex) -> float:
        return float(np.exp(self.log_density_many(np.array([complex(w)]))[0]))

    def density_many(self, pts: np.ndarray, chart: str = "z") -> np.ndarray:
        return np.exp(self.log_density_many(pts, chart))

    def exclusion_points(self) -> Tuple[complex, ...]:
        return (0j,)

    def admissible_mask(self, pts: np.ndarray, exclusion_radius: float = 0.05,
                        phi_gap: float = 0.05) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        return np.abs(pts) > exclusion_radius

    def predicted_angle_at(self, point: Point) -> float:
        if is_infinity(point) or abs(complex(point)) <= 1e-9:
            return TWO_PI * self.alpha
        return TWO_PI

    def area_singular_exponents(self) -> List[Tuple[Point, float]]:
        return [(0j, self.alpha), (INFINITY, self.alpha)]

    @property
    def divisor_degree(self) -> float:
        return 2.0 * (self.alpha - 1.0)


def football_metric(alpha: float, variant: str = "generic", b: float = 0.0
                    ) -> FootballMetric:
    """Build a two-cone family member; ``b`` only matters for the integer
    variant (b = 0 collapses it onto the generic one)."""
    if not math.isfinite(alpha) or alpha <= 0:
        raise InvalidAlpha("cone parameter must be positive and finite")
    return FootballMetric(float(alpha), variant, float(b))


def a0_in_standard_coordinates(case: StandardFormCase, a0: float) -> float:
    """Transport the integration constant from the original coordinates to
    the standard representative's coordinates (the potential shifts by a
    constant under z = p w)."""
    p = abs(case.scale)
    if case.case == CASE_SIMPLE:
        return a0 + 2.0 * case.alpha * math.log(p)
    if case.case == CASE_UNIT_RESIDUES:
        return a0 + 2.0 * case.alpha * math.log(p)
    return a0


def reduce_to_football(case: StandardFormCase, a0: float
                       ) -> Tuple[complex, FootballMetric]:
    """Reduce the K = 1 metric of a standard form with constant ``a0`` to a
    two-cone family member.

    Returns ``(p, football)`` where z = p w carries the standard
    representative's coordinates to the family's: the pipeline density at
    ``p w`` times the chart factor ``|p|^2`` equals the family density at
    ``w``.  In the plus/minus case the argument of ``p^alpha`` is chosen so
    the family constant b comes out real (and positive).
    """
    a0 = float(a0)
    if case.case == CASE_SIMPLE:
        lam = float(case.alpha)
        alpha = abs(lam)
        a_eff = a0 if lam > 0 else -a0
        p = complex(math.exp(-a_eff / (2.0 * alpha)))
        return p, FootballMetric(alpha, "generic")
    alpha = int(case.alpha)
    if case.case == CASE_UNIT_RESIDUES:
        p = complex(math.exp(-a0 / (2.0 * alpha)))
        b = math.exp(a0 / 2.0)
        return p, FootballMetric(float(alpha), "integer", b)
    a = complex(case.a)
    if abs(a) < 1e-12 or abs(a - 1.0) < 1e-12:
        raise DegenerateA("constant a degenerates to 0 or 1")
    lam2 = math.exp(a0)  # square of the scale constant
    shift = a + lam2
    modulus = math.sqrt(lam2) * abs(a - 1.0) / (1.0 + lam2)
    if abs(shift) < 1e-15:
        p_alpha = complex(modulus)
        b = 0.0
    else:
        p_alpha = modulus * shift / abs(shift)
        b_c = shift / (p_alpha * (1.0 + lam2))
        if abs(b_c.imag) > 1e-12 * max(1.0, abs(b_c)):
            raise DegenerateA("family constant failed to come out real")
        b = b_c.real
    p = _canonical_scale(p_alpha, alpha)
    return p, FootballMetric(float(alpha), "integer", b)
