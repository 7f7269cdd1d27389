"""Complex polynomial and rational-function arithmetic on the Riemann sphere.

Two coefficient regimes live side by side:

* exact Gaussian rationals (:class:`ExactComplex`, backed by
  :class:`fractions.Fraction`) for identity work where coefficients must
  vanish exactly, and
* double-precision complex for field evaluation on grids.

The point at infinity is a distinguished value (:data:`INFINITY`), never a
large coordinate.  Order and residue bookkeeping at infinity goes through the
w = 1/z chart algebraically, via coefficient reversal and power-series
division, so the chart change is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .errors import NotASimplePole, RootFindingFailed

__all__ = [
    "INFINITY",
    "Point",
    "is_infinity",
    "ExactComplex",
    "ComplexPolynomial",
    "RationalFunction",
    "Divisor",
    "residue_at_simple_pole",
    "residue_at_infinity",
    "pole_order_at_infinity",
    "one_form_divisor",
]


class _PointAtInfinity:
    """The point at infinity on the sphere, kept symbolic on purpose."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _PointAtInfinity()

Point = Union[complex, _PointAtInfinity]


def is_infinity(p) -> bool:
    return isinstance(p, _PointAtInfinity)


class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @classmethod
    def coerce(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a coefficient")
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {value!r} to ExactComplex")

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def __add__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return ExactComplex(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __eq__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"


def _is_exact_scalar(c) -> bool:
    return isinstance(c, (int, Fraction, ExactComplex)) and not isinstance(c, bool)


class ComplexPolynomial:
    """Dense univariate polynomial, coefficients stored in ascending degree.

    The coefficient regime is inferred at construction: if every coefficient
    is an int, Fraction or :class:`ExactComplex` the polynomial is exact,
    otherwise everything is coerced to ``complex``.  The zero polynomial has
    ``degree == -1`` and ``is_zero`` set.
    """

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs: Sequence = (), exact: bool | None = None):
        items = list(coeffs)
        if exact is None:
            exact = bool(items) and all(_is_exact_scalar(c) for c in items)
        if exact:
            cs = [ExactComplex.coerce(c) for c in items]
            while cs and cs[-1].is_zero:
                cs.pop()
        else:
            cs = [complex(c) for c in items]
            while cs and cs[-1] == 0:
                cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "exact", bool(exact))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, exact: bool = False) -> "ComplexPolynomial":
        return cls((), exact=exact)

    @classmethod
    def one(cls, exact: bool = False) -> "ComplexPolynomial":
        return cls((1,) if exact else (1.0,), exact=exact)

    @classmethod
    def monomial(cls, degree: int, coefficient=1.0) -> "ComplexPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        exact = _is_exact_scalar(coefficient)
        zero = ExactComplex(0) if exact else 0.0
        return cls([zero] * degree + [coefficient], exact=exact)

    @classmethod
    def from_roots(cls, roots: Iterable, leading=1.0) -> "ComplexPolynomial":
        roots = list(roots)
        exact = _is_exact_scalar(leading) and all(_is_exact_scalar(r) for r in roots)
        if exact:
            coeffs: List = [ExactComplex.coerce(leading)]
            for r in roots:
                r = ExactComplex.coerce(r)
                nxt = [ExactComplex(0)] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i] = nxt[i] - r * c
                    nxt[i + 1] = nxt[i + 1] + c
                coeffs = nxt
        else:
            coeffs = [complex(leading)]
            for r in roots:
                r = complex(r)
                nxt = [0j] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i] -= r * c
                    nxt[i + 1] += c
                coeffs = nxt
        return cls(coeffs, exact=exact)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 flags the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self):
        if self.is_zero:
            return None
        return self.coeffs[-1]

    def constant_term(self):
        if self.is_zero:
            return ExactComplex(0) if self.exact else 0j
        return self.coeffs[0]

    def to_float(self) -> "ComplexPolynomial":
        if not self.exact:
            return self
        return ComplexPolynomial([complex(c) for c in self.coeffs], exact=False)

    def to_complex_array(self) -> np.ndarray:
        return np.array([complex(c) for c in self.coeffs], dtype=complex)

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other: "ComplexPolynomial"):
        if self.exact == other.exact:
            return self, other
        return self.to_float(), other.to_float()

    def __add__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        a, b = self._pair(other)
        n = max(len(a.coeffs), len(b.coeffs))
        zero = ExactComplex(0) if a.exact else 0j
        out = []
        for i in range(n):
            ca = a.coeffs[i] if i < len(a.coeffs) else zero
            cb = b.coeffs[i] if i < len(b.coeffs) else zero
            out.append(ca + cb)
        return ComplexPolynomial(out, exact=a.exact)

    def __sub__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ComplexPolynomial([-c for c in self.coeffs], exact=self.exact)

    def __mul__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        a, b = self._pair(other)
        if a.is_zero or b.is_zero:
            return ComplexPolynomial.zero(exact=a.exact)
        zero = ExactComplex(0) if a.exact else 0j
        out = [zero] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                out[i + j] = out[i + j] + ca * cb
        return ComplexPolynomial(out, exact=a.exact)

    def scale(self, factor) -> "ComplexPolynomial":
        if _is_exact_scalar(factor) and self.exact:
            f = ExactComplex.coerce(factor)
            return ComplexPolynomial([f * c for c in self.coeffs], exact=True)
        f = complex(factor)
        return ComplexPolynomial([f * complex(c) for c in self.coeffs], exact=False)

    def derivative(self) -> "ComplexPolynomial":
        if self.degree <= 0:
            return ComplexPolynomial.zero(exact=self.exact)
        return ComplexPolynomial(
            [i * c for i, c in enumerate(self.coeffs) if i >= 1], exact=self.exact
        )

    def __call__(self, z):
        if self.is_zero:
            return ExactComplex(0) if (self.exact and _is_exact_scalar(z)) else 0j
        if self.exact and _is_exact_scalar(z):
            z = ExactComplex.coerce(z)
            acc = self.coeffs[-1]
            for c in reversed(self.coeffs[:-1]):
                acc = acc * z + c
            return acc
        z = complex(z)
        acc = complex(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + complex(c)
        return acc

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        if self.is_zero:
            return np.zeros_like(zs)
        acc = np.full_like(zs, complex(self.coeffs[-1]))
        for c in reversed(self.coeffs[:-1]):
            acc = acc * zs + complex(c)
        return acc

    def __eq__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        if self.exact and other.exact:
            return self.coeffs == other.coeffs
        return tuple(complex(c) for c in self.coeffs) == tuple(
            complex(c) for c in other.coeffs
        )

    def __hash__(self):
        return hash((self.exact,) + tuple(complex(c) for c in self.coeffs))

    def __repr__(self) -> str:
        tag = "exact" if self.exact else "float"
        return f"ComplexPolynomial({list(self.coeffs)!r}, {tag})"

    # -- roots -------------------------------------------------------------

    def roots(self) -> np.ndarray:
        """Roots via the companion matrix, up to degree 16: forms with a
        nonconstant H and :func:`one_form_divisor` reach this cap, the rest
        take their zeros from the pole data.  The monomial basis loses a
        form's zeros as poles are added: over 300 random forms per size
        (poles in |z| < 2 at least 0.05 apart, residues +-0.3 to 3), the
        worst |eta| at the returned zeros relative to sum |lambda_i/(z - a_i)|
        was 2.8e-10 at 17 poles, 6.0e-8 at 24, 1.7e-6 at 32, 2.7e-5 at 40."""
        if self.degree <= 0:
            return np.empty(0, dtype=complex)
        if self.degree > 16:
            raise RootFindingFailed(
                f"root finding is supported up to degree 16 only (degree {self.degree})"
            )
        return np.roots(self.to_complex_array()[::-1])


# ---------------------------------------------------------------------------
# Numerical multiplicity
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _contour_counts(log_derivative, centers: np.ndarray, radii: np.ndarray):
    """Zeros minus poles inside each circle, by the trapezoid rule on the
    logarithmic derivative at 64 nodes (singular points outside lie beyond
    radius / 0.45, so their aliasing is below 0.45**64), and their first
    moments about the centers (so that rounding in the node positions stays
    relative to the radius); NaN where rounding swamps the function."""
    ring = radii[:, None] * np.exp(2j * math.pi * np.arange(64) / 64)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = ring * log_derivative((centers[:, None] + ring).ravel()).reshape(ring.shape)
        return np.add.reduce(vals, axis=1).real / 64, np.add.reduce(ring * vals, axis=1) / 64


def _clustered_roots(raw, log_derivative, singular=()) -> List[Tuple[complex, int]]:
    """Gather floating roots into zeros with numerical multiplicities.

    An eigensolver scatters an m-fold zero over about eps**(1/m) of its
    scale (Zeng, Math. Comp. 74, 2005): at most 5.6 eps**(1/m) for the
    pole-data zeros of 480 rescaled standard forms (alpha 3 to 9, |p| from
    1e-2 to 1e2, |a| from 0.1 to 10).  From each root in turn, the largest
    group of its nearest neighbours is one zero of order m if its spread is
    within 16 eps**(1/m) of its scale (max(1, |z|), or the distance to the
    nearest ``singular`` point if smaller) and the logarithmic derivative
    counts m zeros on the widest circle clear of all other roots and
    singular points, whose first moment recentres it.  A root that no group
    claims is a simple zero where it lies.
    """
    raw, singular = np.asarray(raw, dtype=complex), np.asarray(singular, dtype=complex)
    n = len(raw)
    # near[i] orders the roots by distance from root i (itself first, even among
    # duplicates), [i, m - 1] indexes the group of its m nearest, gaps[i, m - 1, j]
    # the j-th's distance from its center; a lone root's circle stops at 0.9 of its scale
    near = np.argsort(np.abs(raw[:, None] - raw) - np.eye(n), axis=1)
    sizes = np.arange(1, n + 1)
    centers = np.cumsum(raw[near], axis=1) / sizes
    gaps = np.abs(raw[near][:, None, :] - centers[:, :, None])
    member = np.arange(n) < sizes[:, None]
    spreads = np.where(member, gaps, 0.0).max(axis=2, initial=0.0)
    to_singular = np.abs(centers[:, :, None] - singular).min(axis=2, initial=np.inf)
    scales = np.minimum(np.maximum(1.0, np.abs(centers)), to_singular)
    reach = np.minimum(np.where(member, np.inf, gaps).min(axis=2, initial=np.inf), 2.0 * scales)
    radii = 0.45 * np.minimum(reach, to_singular)
    valid = (spreads <= 16.0 * _EPS ** (1.0 / sizes) * scales) & (radii > spreads)
    counts, moments = np.zeros(valid.shape), np.zeros(valid.shape, dtype=complex)
    counts[valid], moments[valid] = _contour_counts(log_derivative, centers[valid], radii[valid])
    confirmed = valid & (np.abs(counts - sizes) <= 0.05)
    zeros = np.where(confirmed, centers + moments / sizes, centers).tolist()
    confirmed, near = confirmed.tolist(), near.tolist()
    claimed = [False] * n
    out: List[Tuple[complex, int]] = []
    for i in range(n):
        if not claimed[i]:
            m = next((m for m in range(n, 0, -1) if confirmed[i][m - 1]
                      and not any(claimed[j] for j in near[i][:m])), 1)
            for j in near[i][:m]:
                claimed[j] = True
            out.append((zeros[i][m - 1], m))
    return out


def _polynomial_zeros(poly: ComplexPolynomial) -> List[Tuple[complex, int]]:
    """The zeros of ``poly`` with their multiplicities (degree cap of
    :meth:`ComplexPolynomial.roots`)."""
    deriv = poly.derivative()
    return _clustered_roots(poly.roots(), lambda zs: deriv.eval_many(zs) / poly.eval_many(zs))


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Ratio of two polynomials with a monic denominator.

    No common factors are cancelled: callers build the two polynomials
    coprime (the forms of this package have distinct poles with nonzero
    residues).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not isinstance(num, ComplexPolynomial):
            num = ComplexPolynomial(num)
        if not isinstance(den, ComplexPolynomial):
            den = ComplexPolynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.exact != den.exact:
            num, den = num.to_float(), den.to_float()
        lead = den.leading_coefficient
        if num.exact:
            if lead != ExactComplex(1):
                inv = ExactComplex(1) / lead
                num, den = num.scale(inv), den.scale(inv)
        else:
            if lead != 1.0:
                num, den = num.scale(1.0 / lead), den.scale(1.0 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def exact(self) -> bool:
        return self.num.exact

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        return self.num.eval_many(zs) / self.den.eval_many(zs)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _poly_eval_scale(poly: ComplexPolynomial, a: complex) -> float:
    """Scale of rounding error when evaluating ``poly`` at ``a``."""
    s = 0.0
    p = 1.0
    for c in poly.coeffs:
        s += abs(complex(c)) * p
        p *= abs(a) if abs(a) > 0 else 1.0
    return max(s, 1e-300)


def residue_at_simple_pole(r: RationalFunction, a):
    """Residue of ``r`` at a simple pole ``a``, computed as num(a)/den'(a).

    Raises :class:`NotASimplePole` when ``a`` is not a simple root of the
    denominator, or is a root of the numerator.
    """
    den_d = r.den.derivative()
    if r.exact and _is_exact_scalar(a):
        a = ExactComplex.coerce(a)
        if not r.den(a).is_zero:
            raise NotASimplePole(f"{a!r} is not a pole")
        if den_d(a).is_zero:
            raise NotASimplePole(f"pole at {a!r} is not simple")
        if r.num(a).is_zero:
            raise NotASimplePole(f"{a!r} is a removable point")
        return r.num(a) / den_d(a)
    a = complex(a)
    den_val = r.den(a)
    if abs(den_val) > 1e-7 * _poly_eval_scale(r.den, a):
        raise NotASimplePole(f"{a!r} is not a pole")
    dval = den_d(a)
    if abs(dval) <= 1e-7 * _poly_eval_scale(den_d, a):
        raise NotASimplePole(f"pole at {a!r} is not simple")
    nval = r.num(a)
    if abs(nval) <= 1e-10 * _poly_eval_scale(r.num, a):
        raise NotASimplePole(f"{a!r} is a removable point")
    return nval / dval


def pole_order_at_infinity(r: RationalFunction) -> int:
    """Order of the pole of ``r dz`` at infinity (non-positive: no pole)."""
    if r.num.is_zero:
        raise ValueError("the zero form has no divisor")
    return r.num.degree - r.den.degree + 2


def residue_at_infinity(r: RationalFunction):
    """Residue at infinity of the form ``r dz``.

    Computed in the w = 1/z chart: the pullback is ``-r(1/w)/w^2 dw`` and its
    residue at w = 0 is read off a power-series division of the reversed
    coefficient sequences.  Works for poles of any order at infinity; when
    all finite poles are simple it equals minus the sum of finite residues.
    """
    if r.num.is_zero:
        return ExactComplex(0) if r.exact else 0j
    m, n = r.num.degree, r.den.degree
    k = m - n + 1
    zero = ExactComplex(0) if r.exact else 0j
    if k < 0:
        return zero
    # reversed coefficient sequences: p~_i = p_{m-i}, q~_i = q_{n-i}
    p_rev = list(reversed(r.num.coeffs))
    q_rev = list(reversed(r.den.coeffs))
    c: List = []
    for j in range(k + 1):
        acc = p_rev[j] if j < len(p_rev) else zero
        for i in range(1, j + 1):
            qi = q_rev[i] if i < len(q_rev) else zero
            acc = acc - qi * c[j - i]
        c.append(acc / q_rev[0])
    return -c[k]


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------


def _point_key(p: Point):
    if is_infinity(p):
        return (1, 0.0, 0.0)
    return (0, complex(p).real, complex(p).imag)


def _points_close(p: Point, q: Point, tol: float) -> bool:
    if is_infinity(p) or is_infinity(q):
        return is_infinity(p) and is_infinity(q)
    p, q = complex(p), complex(q)
    return abs(p - q) <= tol * max(1.0, abs(p), abs(q))


@dataclass(frozen=True)
class Divisor:
    """Formal sum of points of the sphere with real weights.

    Locations are pairwise distinct; the degree is the sum of weights.
    The point at infinity is the :data:`INFINITY` sentinel.
    """

    points: Tuple[Tuple[Point, float], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Point, float]]) -> "Divisor":
        kept = [(p, w) for p, w in pairs if w != 0]
        for i, (p, _) in enumerate(kept):
            for q, _ in kept[i + 1:]:
                if _points_close(p, q, 1e-12):
                    raise ValueError(f"duplicate divisor location {p!r}")
        kept.sort(key=lambda pw: _point_key(pw[0]))
        return cls(tuple(kept))

    @property
    def degree(self):
        return sum(w for _, w in self.points)

    def weight_at(self, location: Point, tol: float = 1e-9):
        for p, w in self.points:
            if _points_close(p, location, tol):
                return w
        return 0

    def matches(self, other: "Divisor", loc_tol: float = 1e-9,
                weight_tol: float = 1e-9) -> bool:
        if len(self.points) != len(other.points):
            return False
        used = [False] * len(other.points)
        for p, w in self.points:
            hit = False
            for j, (q, v) in enumerate(other.points):
                if used[j]:
                    continue
                if _points_close(p, q, loc_tol) and abs(float(w) - float(v)) <= weight_tol:
                    used[j] = True
                    hit = True
                    break
            if not hit:
                return False
        return True

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __repr__(self) -> str:
        inner = " + ".join(f"{w}*({p!r})" for p, w in self.points)
        return f"Divisor({inner or '0'})"


def one_form_divisor(eta: RationalFunction) -> Divisor:
    """Zero/pole divisor on the sphere of the form ``eta dz``.

    Finite zeros carry their multiplicity, finite poles carry minus theirs,
    and the order at infinity is read off the w = 1/z chart:
    ``ord_inf = deg(den) - deg(num) - 2``.  The total degree is always -2.
    """
    if eta.num.is_zero:
        raise ValueError("the zero form has no divisor")
    num = eta.num.to_float()
    den = eta.den.to_float()
    pairs: List[Tuple[Point, float]] = list(_polynomial_zeros(num))
    pairs += [(z, -m) for z, m in _polynomial_zeros(den)]
    ord_inf = den.degree - num.degree - 2
    if ord_inf != 0:
        pairs.append((INFINITY, ord_inf))
    div = Divisor.from_pairs(pairs)
    if div.degree != -2:
        raise ValueError(f"divisor degree {div.degree} != -2: num and den share a root")
    return div
