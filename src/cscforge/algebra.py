"""Points and polynomials on the Riemann sphere.

:class:`ComplexPolynomial` has exact Gaussian-rational coefficients
(:class:`ExactComplex`, backed by :class:`fractions.Fraction`), for identity
work where coefficients must vanish exactly (the Wronskian identity of the
classifier).  A form's exact part H is its tuple of complex coefficients.

The point at infinity is a distinguished value (:data:`INFINITY`), never a
large coordinate.  A form's zeros come from eigenproblems on its pole data
(see :mod:`cscforge.forms`); this module gathers the eigenvalues into zeros
with numerical multiplicities.  The form's table of its zeros and poles is
its divisor; :func:`_point_key` is the order that table is kept in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "INFINITY",
    "Point",
    "is_infinity",
    "ExactComplex",
    "ComplexPolynomial",
    "residue_at_infinity",
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


def _point_key(p: Point):
    if is_infinity(p):
        return (1, 0.0, 0.0)
    return (0, complex(p).real, complex(p).imag)


def _points_close(p: Point, q: Point, tol: float) -> bool:
    if is_infinity(p) or is_infinity(q):
        return is_infinity(p) and is_infinity(q)
    p, q = complex(p), complex(q)
    return abs(p - q) <= tol * max(1.0, abs(p), abs(q))


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

    def __add__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactComplex.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

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


class ComplexPolynomial:
    """Dense univariate polynomial with exact coefficients, stored in
    ascending degree.

    Every coefficient is coerced to :class:`ExactComplex`, so a float
    raises ``TypeError``.  The zero polynomial has ``degree == -1`` and
    ``is_zero`` set.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [ExactComplex.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "ComplexPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls([0] * degree + [coefficient])

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

    def constant_term(self) -> ExactComplex:
        if self.is_zero:
            return ExactComplex(0)
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        zero = ExactComplex(0)
        out = []
        for i in range(n):
            ca = self.coeffs[i] if i < len(self.coeffs) else zero
            cb = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(ca + cb)
        return ComplexPolynomial(out)

    def __sub__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ComplexPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ComplexPolynomial()
        out = [ExactComplex(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            for j, cb in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ca * cb
        return ComplexPolynomial(out)

    def derivative(self) -> "ComplexPolynomial":
        if self.degree <= 0:
            return ComplexPolynomial()
        return ComplexPolynomial([i * c for i, c in enumerate(self.coeffs) if i >= 1])

    def __call__(self, z) -> ExactComplex:
        acc = ExactComplex(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ComplexPolynomial({list(self.coeffs)!r})"

    # -- roots -------------------------------------------------------------

    # No zero table calls this; it stays because perfbench/tracing.py traces it by name.
    def roots(self) -> np.ndarray:
        return np.roots([complex(c) for c in reversed(self.coeffs)])


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


def residue_at_infinity(residues: Iterable[complex]) -> complex:
    """Residue at infinity of a form whose finite poles are simple with these
    residues: by the residue theorem, minus their sum (dH has no residue)."""
    return -sum(residues, 0j)

