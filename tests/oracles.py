"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own evaluation paths: residues are
checked by trapezoid contour quadrature, exactness by numeric loop
integrals, derivatives by central differences, eta by a plain pole sum and
the field's value at a pole by the sign of its residue.  The exceptions are
``density_at``, one point through a field's own ``log_density_many``, and
the chart remainder, whose reference shares the library's nodes, bump and
density and differs only in how the cap weights are laid on the grid.
"""

import numpy as np

from cscforge import is_infinity
from cscforge.singularities import _bump, _gauss_legendre, _ring

TWO_PI = 2.0 * np.pi


def eta(form, z):
    """The pole part of the form at ``z``: sum lambda_i/(z - a_i)."""
    return sum(lam / (complex(z) - a) for a, lam in form.poles)


def pole_limit(form, pole):
    """The field's value at a simple pole: 0 where the residue is positive,
    4 where it is negative; at infinity the residue is minus the sum of the
    finite ones."""
    if is_infinity(pole):
        lam = -sum(lam for _, lam in form.poles)
    else:
        lam = next(lam for a, lam in form.poles if a == pole)
    return 0.0 if lam.real > 0 else 4.0


def density_at(field, z):
    """The density of a field at one point."""
    return float(np.exp(field.log_density_many(np.array([complex(z)]))[0]))


def contour_residue(func, center, radius=1e-2, nodes=4096):
    """(1/2 pi i) * closed integral of ``func`` on a circle, by trapezoid
    quadrature (spectrally accurate for smooth periodic integrands)."""
    theta = np.linspace(0.0, TWO_PI, nodes, endpoint=False)
    e = np.exp(1j * theta)
    zs = center + radius * e
    vals = np.asarray([func(z) for z in zs], dtype=complex)
    return (radius / nodes) * np.sum(vals * e)


def loop_integral_re(form, center, radius=1e-2, nodes=4096):
    """Closed integral of the real part of the form around a circle."""
    theta = np.linspace(0.0, TWO_PI, nodes, endpoint=False)
    e = np.exp(1j * theta)
    zs = center + radius * e
    gamma_prime = 1j * radius * e
    vals = sum(lam / (zs - a) for a, lam in form.poles) * gamma_prime
    return float(np.sum(vals.real) * (TWO_PI / nodes))


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def chart_remainder_full_grid(field, chart, chart_radius, caps, n_r, n_theta):
    """The bump-weighted chart remainder with each cap's weight computed on
    every point of the polar grid (Gauss-Legendre in r by the trapezoid rule
    in theta): the reference for a weight restricted to the rings a cap can
    reach.  Returns the value and the number of density points used."""
    r, wr = _gauss_legendre(0.0, chart_radius, n_r)
    pts = r[:, None] * _ring(n_theta)[None, :]
    weight = np.ones(pts.shape)
    for c, delta in caps:
        t = np.abs(pts - c) / delta
        near = t < 1.0
        weight[near] *= 1.0 - _bump(t[near])
    flat = pts.ravel()
    keep = weight.ravel() > 0.0
    rho = np.zeros(flat.shape)
    rho[keep] = np.exp(field.log_density_many(flat[keep], chart=chart))
    ring = (rho.reshape(pts.shape) * weight).mean(axis=1) * TWO_PI * r
    return float(np.dot(wr, ring)), int(np.count_nonzero(keep))
