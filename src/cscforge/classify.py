"""Standard forms on the sphere and the two-cone (football) metric families.

Three standard cases, with these divisors and residues:

* ``simple``        one simple pole at 0 with real residue, one at infinity;
* ``unit_residues`` a zero of order alpha-1 at 0, alpha poles of residue +1,
                    a simple pole at infinity;
* ``plus_minus``    zeros of order alpha-1 at 0 and infinity, alpha poles of
                    residue +1 and alpha of residue -1.

The forced shapes come from a Wronskian identity: if t and s are monic of
equal degree alpha with nonzero constant terms and ``t's - ts'`` is a single
monomial of degree alpha-1, then every middle coefficient of t and s
vanishes, so ``t = z^alpha + t0`` and ``s = z^alpha + s0``.  Matching the
top coefficients downward forces this; ``wronskian_identity_check`` verifies
it in exact arithmetic.  Normalization checks the forced shape directly on
the pole table: a form is the standard representative moved by ``z = p w``
exactly when its poles divided by p are that representative's poles, with
the same residues.  The K = 1 metric of a standard form reduces to a closed
two-cone family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .algebra import INFINITY, ComplexPolynomial, ExactComplex
from .errors import (
    InvalidAlpha,
    InvalidCaseData,
    NotMonomialIdentity,
    PatternMismatch,
    ResidueMismatch,
    ZeroMu,
)
from .forms import MeromorphicOneForm, build_third_kind
from .singularities import SingularPointInfo

__all__ = [
    "CASE_SIMPLE",
    "CASE_UNIT_RESIDUES",
    "CASE_PLUS_MINUS",
    "StandardFormCase",
    "standard_form",
    "wronskian_identity_check",
    "normalize_form",
    "FootballMetric",
    "reduce_to_football",
    "a0_in_standard_coordinates",
]

CASE_SIMPLE = "simple"
CASE_UNIT_RESIDUES = "unit_residues"
CASE_PLUS_MINUS = "plus_minus"

TWO_PI = 2.0 * math.pi
_MATCH_RTOL = 1e-11  # pole match under z = p w, relative to the standard pole


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
        if not math.isfinite(self.alpha) or not cmath.isfinite(self.a or 0):
            raise InvalidCaseData(f"case data must be finite, got alpha={self.alpha!r}, "
                                  f"a={self.a!r}")
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


def wronskian_identity_check(t: ComplexPolynomial, s: ComplexPolynomial):
    """Verify that ``t's - ts'`` is a single monomial ``alpha mu z^(alpha-1)``.

    ``t`` and ``s`` must be monic of the same degree alpha >= 2 with nonzero
    constant terms.  On success returns ``(alpha, mu)`` with
    ``mu = s0 - t0`` and asserts the forced conclusion: every middle
    coefficient of t and s vanishes, so ``t = z^alpha + t0`` and
    ``s = z^alpha + s0``.  Everything is checked in exact arithmetic.

    Raises :class:`ZeroMu` when the Wronskian vanishes identically and
    :class:`NotMonomialIdentity` otherwise.
    """
    alpha = t.degree
    if alpha < 2 or s.degree != alpha:
        raise ValueError("need equal degrees >= 2")
    one = ExactComplex(1)
    if t.leading_coefficient != one or s.leading_coefficient != one:
        raise ValueError("polynomials must be monic")
    if not t.constant_term() or not s.constant_term():
        raise ValueError("constant terms must be nonzero")

    w = t.derivative() * s - t * s.derivative()
    if w.is_zero:
        raise ZeroMu("the Wronskian vanishes identically")
    if w.degree != alpha - 1:
        raise NotMonomialIdentity(
            f"Wronskian has degree {w.degree}, expected {alpha - 1}"
        )
    for k, c in enumerate(w.coeffs[:-1]):
        if not c.is_zero:
            raise NotMonomialIdentity(f"Wronskian has a stray z^{k} term")
    mu = w.leading_coefficient / alpha

    # forced conclusion: only the constant terms of t and s may differ from
    # z^alpha, and mu is exactly their difference
    for poly in (t, s):
        if any(not c.is_zero for c in poly.coeffs[1:alpha]):
            raise NotMonomialIdentity(
                "monomial Wronskian with surviving middle coefficient"
            )
    if s.constant_term() - t.constant_term() != mu:
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


def _constant_term(roots: List[complex]) -> complex:
    """Constant term of the monic polynomial with these roots, (-1)^n times
    their product, taken in the given order as c <- 0 - r c from c = 1 (the
    constant term of multiplying out (z - r) one root at a time)."""
    c = 1.0 + 0j
    for r in roots:
        c = 0j - r * c
    return c


def _matches_standard(form: MeromorphicOneForm, case: StandardFormCase) -> bool:
    """True when z = p w carries the poles of the form one to one onto the
    standard representative's poles with the same residue sign.

    One pole moved by delta (relative) shows up here as at least delta / 2,
    because the recovered p absorbs 1/alpha of the move, so every move above
    2e-11 is rejected.  Standard forms moved by |p| in [1e-2, 1e2] match to
    8 eps.
    """
    left = list(standard_form(case).poles)
    for a, lam in form.poles:
        w = a / case.scale
        b, mu = min((q for q in left if (q[1].real > 0) == (lam.real > 0)),
                    key=lambda q: abs(w - q[0]))
        if abs(w - b) > _MATCH_RTOL * abs(b):
            return False
        left.remove((b, mu))
    return True


def normalize_form(form: MeromorphicOneForm) -> StandardFormCase:
    """Recover the standard case data of a form.

    Sorts the residues into the three patterns and reads the forced shape
    directly off the pole table: the Wronskian identity makes the pole
    polynomials ``z^alpha + t0`` and ``z^alpha + s0``, so the form is the
    standard representative moved by z = p w exactly when its poles divided
    by p are that representative's poles with the same residues.  p is the
    alpha-th root of t0 with argument in [0, 2 pi / alpha) and ``a = s0 / t0``.
    Residues and the single pole's location are compared at 1e-9.
    """
    tol = 1e-9
    for _, lam in form.poles:
        if abs(lam.imag) > tol * max(1.0, abs(lam)):
            raise ResidueMismatch(f"residue {lam!r} is not real")
    if len(form.exact_part) > 1:
        raise PatternMismatch("a standard form has a constant exact part")

    # pole products in units of the farthest pole; the scale is multiplied back
    reach = max((abs(a) for a, _ in form.poles), default=0.0) or 1.0
    plus = [a / reach for a, lam in form.poles if abs(lam - 1.0) <= tol]
    minus = [a / reach for a, lam in form.poles if abs(lam + 1.0) <= tol]

    if len(form.poles) == 1:
        a, lam = form.poles[0]
        if abs(a) > tol:
            raise PatternMismatch("the single finite pole must sit at 0")
        return StandardFormCase(CASE_SIMPLE, lam.real, scale=1.0 + 0j)

    alpha = len(plus)
    if alpha == len(form.poles):
        if alpha < 2:
            raise PatternMismatch("need at least two unit-residue poles")
        p = reach * _canonical_scale(_constant_term(plus), alpha)
        case = StandardFormCase(CASE_UNIT_RESIDUES, float(alpha), scale=p)
    elif minus and len(minus) == alpha and 2 * alpha == len(form.poles):
        if alpha < 2:
            raise PatternMismatch("need at least two poles of each sign")
        t0 = _constant_term(plus)
        a = _constant_term(minus) / t0
        if abs(a) < 1e-9 or abs(a - 1.0) < 1e-9:
            raise PatternMismatch("recovered constant a degenerates to 0 or 1")
        p = reach * _canonical_scale(t0, alpha)
        case = StandardFormCase(CASE_PLUS_MINUS, float(alpha), a=a, scale=p)
    else:
        raise ResidueMismatch(
            "residues must be a single real (simple case), all +1, or a +1/-1 split"
        )
    if not _matches_standard(form, case):
        raise PatternMismatch("poles divided by the scale are not the standard poles")
    return case


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
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise InvalidAlpha("cone parameter must be positive and finite")
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

    @cached_property
    def singular_points(self) -> Tuple[SingularPointInfo, ...]:
        """The two cones, at 0 and at infinity.  At alpha = 1 they are
        smooth, but stay conical rows so the area quadrature still caps them."""
        return tuple(SingularPointInfo(p, TWO_PI * self.alpha, self.alpha - 1.0, True)
                     for p in (0j, INFINITY))


def a0_in_standard_coordinates(case: StandardFormCase, a0: float) -> float:
    """Transport the integration constant from the original coordinates to
    the standard representative's coordinates (the potential shifts by a
    constant under z = p w; the plus/minus residues sum to zero)."""
    if case.case == CASE_PLUS_MINUS:
        return a0
    return a0 + 2.0 * case.alpha * math.log(abs(case.scale))


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
    lam2 = math.exp(a0)  # square of the scale constant
    shift = a + lam2
    modulus = math.sqrt(lam2) * abs(a - 1.0) / (1.0 + lam2)
    if abs(shift) < 1e-15:
        p_alpha = complex(modulus)
        b = 0.0
    else:
        p_alpha = modulus * shift / abs(shift)
        b = (shift / (p_alpha * (1.0 + lam2))).real
    p = _canonical_scale(p_alpha, alpha)
    return p, FootballMetric(float(alpha), "integer", b)
