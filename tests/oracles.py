"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own evaluation paths: residues are
checked by trapezoid contour quadrature, exactness by numeric loop
integrals, derivatives by central differences.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


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
