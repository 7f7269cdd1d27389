"""Differentials of the third kind on the sphere and their real potentials.

A form is stored by its simple-pole data ``(a_i, lambda_i)`` plus a polynomial
exact part H, so ``omega = sum lambda_i/(z - a_i) dz + dH``.  The hypotheses
of the construction (all poles simple including infinity, all residues real
and nonzero) are statements about this data, which keeps their validation
structural; so is the order at infinity, read from H and the residue
moments.  Construction stores the data and nothing else, and the table
of the form's zeros and poles comes from the same data: the zeros are the
eigenvalues of one matrix built from the poles, the residues and H'.

A nonconstant H makes infinity a pole of order at least 2, so every form
that satisfies the hypotheses has dH = 0: evaluation covers the pole part
only, and H lives on in the schema, the hypothesis check and the divisor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    INFINITY,
    ComplexPolynomial,
    Divisor,
    Point,
    _clustered_roots,
    _point_key,
    _points_close,
    residue_at_infinity,
)
from .errors import DuplicatePole, EvalAtPole, HypothesesFailed, ZeroResidue

__all__ = [
    "MeromorphicOneForm",
    "SingularPoint",
    "ExactnessReport",
    "build_third_kind",
    "check_hypotheses",
    "potential_f",
    "divisor_of_form",
    "form_to_json",
    "form_from_json",
]

_RESIDUE_IMAG_TOL = 1e-12
_LOCATION_TOL = 1e-9


@dataclass(frozen=True)
class SingularPoint:
    """One zero or pole of a form on the sphere.

    ``weight`` is the divisor weight: the order of a zero, minus the order
    of a pole.  ``residue`` is set at poles and None at zeros.
    """

    location: Point
    weight: int
    residue: Optional[complex] = None


@dataclass(frozen=True, eq=False)
class MeromorphicOneForm:
    """A meromorphic 1-form ``sum lambda_i/(z - a_i) dz + dH`` on the sphere."""

    poles: Tuple[Tuple[complex, complex], ...]
    exact_part: ComplexPolynomial

    @cached_property
    def _locs(self) -> np.ndarray:
        return np.array([a for a, _ in self.poles], dtype=complex)

    # -- evaluation (the pole part; see the module docstring) ---------------

    def eta_at(self, z: complex) -> complex:
        z = complex(z)
        acc = 0j
        for (a, lam) in self.poles:
            acc += lam / (z - a)
        return acc

    def eta_many(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        acc = np.zeros_like(zs)
        for (a, lam) in self.poles:
            acc += lam / (zs - a)
        return acc

    def potential(self, z: complex) -> float:
        """Real potential f with df = omega + conj(omega), constant fixed to 0."""
        z = complex(z)
        self._guard_pole(z)
        f = 0.0
        for (a, lam) in self.poles:
            d = z - a
            f += lam.real * math.log(d.real * d.real + d.imag * d.imag)
        return f

    def potential_many(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        f = np.zeros(zs.shape, dtype=float)
        with np.errstate(divide="ignore"):
            for (a, lam) in self.poles:
                d = zs - a
                f += lam.real * np.log(d.real * d.real + d.imag * d.imag)
        return f

    # -- structure ---------------------------------------------------------

    def min_pole_distance(self, z: complex) -> float:
        if not self.poles:
            return math.inf
        return float(np.min(np.abs(self._locs - complex(z))))

    def _guard_pole(self, z: complex):
        for (a, _) in self.poles:
            if abs(z - a) <= 1e-13 * max(1.0, abs(a), abs(z)):
                raise EvalAtPole(f"evaluation at pole {a!r}")

    def residue_at_infinity(self) -> complex:
        """Minus the sum of the finite residues (dH has no residue)."""
        return residue_at_infinity(lam for _, lam in self.poles)

    def infinity_pole_order(self) -> int:
        """Order of the pole of the form at infinity (<= 0 means no pole)."""
        return self._infinity_order

    @cached_property
    def _infinity_order(self) -> int:
        """deg H + 1 for a nonconstant H.  Otherwise eta = sum_k mu_k
        z^(-k-1) near infinity, with moments mu_k = sum lambda_i a_i^k, and
        the order is 1 - k for the first mu_k above 1e-12 sum |lambda_i
        a_i^k|; the first n moments of n distinct poles cannot all vanish."""
        if self.exact_part.degree > 0:
            return self.exact_part.degree + 1
        lam = np.array([r for _, r in self.poles], dtype=complex)
        terms = (lam * self._locs**k for k in range(len(lam) - 1))
        k = next((k for k, t in enumerate(terms) if abs(t.sum()) > 1e-12 * np.abs(t).sum()),
                 len(lam) - 1)
        return 1 - k

    def _zeros_from_poles(self) -> List[Tuple[complex, int]]:
        """Finite zeros from the pole data (dH = 0).  w = 1/(z - a_k) sends
        the pole of largest |lambda_k| to infinity, leaving lambda_i at
        c_i = 1/(a_i - a_k) and, when infinity is a pole, -sum lambda at 0.
        The zeros of sum mu_j/(w - c_j) are the eigenvalues of the deflated
        arrowhead c_1 + (I - mu' 1^T / sum mu) diag(c' - c_1) (the AAA
        pole-residue linearisation, Nakatsukasa, Sete & Trefethen, SIAM J.
        Sci. Comput. 2018); the -order nearest 0 are the zero at infinity.
        The rest are gathered in w, where their scatter scales with the
        chart's pole spacing; mapped to z it also grows as |z - a_k|^2."""
        lam = np.array([r for _, r in self.poles], dtype=complex)
        k = int(np.argmax(np.abs(lam)))
        rest = np.arange(len(lam)) != k
        c, mu = 1.0 / (self._locs[rest] - self._locs[k]), lam[rest]
        order = self._infinity_order
        if order == 1:
            c, mu = np.concatenate((c, [0j])), np.concatenate((mu, [-lam.sum()]))
        if len(c) < 2:
            return []
        d = c[1:] - c[0]
        w = c[0] + np.linalg.eigvals((np.eye(len(d)) - mu[1:, None] / mu.sum()) * d)
        w = w[np.argsort(np.abs(w))[max(-order, 0):]]

        def log_derivative(ws):
            g = dg = 0.0
            for cj, mj in zip(c, mu):
                t = mj / (ws - cj)
                g, dg = g + t, dg - t / (ws - cj)
            return dg / g

        singular = c if order >= 0 else np.concatenate((c, [0j]))
        return [(self._locs[k] + 1.0 / x, m)
                for x, m in _clustered_roots(w, log_derivative, singular)]

    def _zeros_with_exact_part(self) -> List[Tuple[complex, int]]:
        """Finite zeros for a nonconstant H, with H' = sum_{j<=d} h_j z^j.
        With y_i = lambda_i s/(z - a_i) and s_j = z^j s, the rows
        z y_i = a_i y_i + lambda_i s_0, z s_j = s_{j+1} and
        z s_{d-1} = -(sum y_i + sum_{j<d} h_j s_j)/h_d make the zeros of eta
        the eigenvalues of the pole data's arrowhead bordered by the
        companion block of H'; for d = 0 the matrix is diag(a) - lambda 1^T/h_0."""
        lam = np.array([r for _, r in self.poles], dtype=complex)
        h = self.exact_part.derivative().to_complex_array()
        n, d = len(lam), len(h) - 1
        m = np.zeros((n + d, n + d), dtype=complex)
        m[range(n), range(n)] = self._locs
        if d == 0:
            m -= lam[:, None] / h[0]
        else:
            m[:n, n] = lam
            m[range(n, n + d - 1), range(n + 1, n + d)] = 1.0
            m[-1, :n], m[-1, n:] = -1.0 / h[d], -h[:d] / h[d]
        rev = h[::-1]

        def log_derivative(zs):
            g, dg = np.polyval(rev, zs), np.polyval(np.polyder(rev), zs)
            for a, r in self.poles:
                t = r / (zs - a)
                g, dg = g + t, dg - t / (zs - a)
            return dg / g

        return _clustered_roots(np.linalg.eigvals(m), log_derivative, self._locs)

    @cached_property
    def singular_points(self) -> Tuple[SingularPoint, ...]:
        """Every zero and pole of the form, infinity included, in divisor
        order.  Poles sit exactly at their given locations; the zeros come
        from the pole data, with H' in the eigenproblem when H is nonconstant."""
        zeros = (self._zeros_with_exact_part() if self.exact_part.degree > 0
                 else self._zeros_from_poles())
        table = [SingularPoint(z, m) for z, m in zeros]
        table += [SingularPoint(a, -1, lam) for a, lam in self.poles]
        order = self.infinity_pole_order()
        if order > 0:
            table.append(SingularPoint(INFINITY, -order, self.residue_at_infinity()))
        elif order < 0:
            table.append(SingularPoint(INFINITY, -order))
        return tuple(sorted(table, key=lambda p: _point_key(p.location)))

    def singular_point_at(self, point: Point) -> Optional[SingularPoint]:
        """The table entry at ``point`` (to 1e-9 relative), None elsewhere."""
        for p in self.singular_points:
            if _points_close(p.location, point, _LOCATION_TOL):
                return p
        return None

    def divisor(self) -> Divisor:
        return Divisor.from_pairs((p.location, p.weight) for p in self.singular_points)

    def negated(self) -> "MeromorphicOneForm":
        return build_third_kind(
            [(a, -lam) for a, lam in self.poles],
            ComplexPolynomial([-complex(c) for c in self.exact_part.coeffs]),
        )

    def __repr__(self) -> str:
        return f"MeromorphicOneForm(poles={self.poles!r}, H={self.exact_part!r})"


def build_third_kind(
    poles: Iterable[Tuple[complex, complex]],
    exact_part: ComplexPolynomial | Sequence | None = None,
) -> MeromorphicOneForm:
    """Build a validated form from pole/residue data and a polynomial part.

    Raises :class:`DuplicatePole` if two locations collide and
    :class:`ZeroResidue` if any residue is zero.  Nothing is expanded or
    evaluated here.
    """
    pole_list = [(complex(a), complex(lam)) for a, lam in poles]
    for i, (a, _) in enumerate(pole_list):
        for b, _ in pole_list[i + 1:]:
            if _points_close(a, b, _LOCATION_TOL):
                raise DuplicatePole(f"poles at {a!r} and {b!r} coincide")
    for a, lam in pole_list:
        if lam == 0:
            raise ZeroResidue(f"pole at {a!r} has zero residue")
    if exact_part is None:
        h = ComplexPolynomial.zero()
    elif isinstance(exact_part, ComplexPolynomial):
        h = exact_part.to_float()
    else:
        h = ComplexPolynomial([complex(c) for c in exact_part])
    if not pole_list and h.degree <= 0:
        raise ValueError("the form is identically zero")
    return MeromorphicOneForm(tuple(pole_list), h)


@dataclass(frozen=True)
class ExactnessReport:
    """Validation flags for the construction hypotheses."""

    is_third_kind: bool
    residues_all_real_nonzero: bool
    real_part_exact: bool
    diagnostics: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.is_third_kind and self.residues_all_real_nonzero


def check_hypotheses(form: MeromorphicOneForm) -> ExactnessReport:
    """Check that the form is third-kind with real nonzero residues.

    On the sphere the loop integrals around poles generate every cycle, so
    the real part of the form is exact exactly when every residue (the one
    at infinity included) is real.
    """
    notes: List[str] = []
    real_ok = True
    nonzero_ok = True
    for a, lam in form.poles:
        if abs(lam.imag) > _RESIDUE_IMAG_TOL * max(1.0, abs(lam)):
            real_ok = False
            notes.append(f"pole at {a!r}: residue {lam!r} is not real")
        if lam == 0:
            nonzero_ok = False
            notes.append(f"pole at {a!r}: residue vanishes")
    inf_order = form.infinity_pole_order()
    third_kind = inf_order <= 1
    if not third_kind:
        notes.append(f"pole of order {inf_order} at INFINITY (not simple)")
    if inf_order == 1:
        res_inf = form.residue_at_infinity()
        if abs(res_inf.imag) > _RESIDUE_IMAG_TOL * max(1.0, abs(res_inf)):
            real_ok = False
            notes.append(f"residue {res_inf!r} at INFINITY is not real")
    return ExactnessReport(
        is_third_kind=third_kind,
        residues_all_real_nonzero=real_ok and nonzero_ok,
        real_part_exact=real_ok,
        diagnostics=tuple(notes),
    )


def require_hypotheses(form: MeromorphicOneForm) -> None:
    """Raise :class:`HypothesesFailed` unless the form is third-kind with
    real nonzero residues."""
    report = check_hypotheses(form)
    if not report.ok:
        raise HypothesesFailed("; ".join(report.diagnostics) or "hypotheses failed")


def potential_f(form: MeromorphicOneForm, z: complex) -> float:
    """The real potential at ``z``; requires the hypotheses to hold."""
    require_hypotheses(form)
    return form.potential(z)


def divisor_of_form(form: MeromorphicOneForm) -> Divisor:
    """Full zero/pole divisor of the form on the sphere, infinity included."""
    return form.divisor()


# ---------------------------------------------------------------------------
# JSON form schema:
#   {"poles": [{"a": [re, im], "lambda": [re, im]}, ...],
#    "exact_part": [[re, im], ...]}       (coefficients ascending)
# ---------------------------------------------------------------------------


def form_to_json(form: MeromorphicOneForm) -> dict:
    return {
        "poles": [
            {"a": [a.real, a.imag], "lambda": [lam.real, lam.imag]}
            for a, lam in form.poles
        ],
        "exact_part": [
            [complex(c).real, complex(c).imag] for c in form.exact_part.coeffs
        ],
    }


def form_from_json(data: dict | str) -> MeromorphicOneForm:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("form document must be a JSON object")
    poles = []
    for entry in data.get("poles", []):
        a = entry["a"]
        lam = entry["lambda"]
        poles.append((complex(a[0], a[1]), complex(lam[0], lam[1])))
    coeffs = [complex(c[0], c[1]) for c in data.get("exact_part", [])]
    return build_third_kind(poles, ComplexPolynomial(coeffs))
