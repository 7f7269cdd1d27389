"""Seeded inputs for the benchmark, built with numpy alone.

Nothing here calls cscforge: forms are generated as pole/residue data (plus
an optional polynomial exact part) and their zeros are found with
``numpy.polynomial``, so the program under test receives only the generated
inputs and the reference values stay independent of it.

``Form.to_json`` gives the JSON schema the CLI reads:
``{"poles": [{"a": [re, im], "lambda": [re, im]}, ...], "exact_part": [...]}``.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import polynomial as P

TWO_PI = 2.0 * math.pi

# The program imposes the initial value at this base point by default.  A
# pole within about 0.15 of it saturates the field, and verify's curvature
# and angle checks then fail; corpus forms keep their poles BASE_GAP away,
# and the envelope probe "pole near base point" keeps the defect in view.
BASE_POINT = 1.0 + 0j
BASE_GAP = 0.3

# The six standard cases of the acceptance corpus, as ``--standard`` specs.
STANDARD_SPECS = (
    "simple:lambda=2.5",
    "simple:lambda=1",
    "unit:alpha=2",
    "unit:alpha=3",
    "pm:alpha=2,a=2+0j",
    "pm:alpha=3,a=-1.5+0.8j",
)


@dataclass(frozen=True)
class Form:
    """One generated input form.

    ``spec`` is set for standard cases (passed as ``--standard``); every
    form also carries its pole data so the benchmark can evaluate the pole
    sum and place paths and grids without the program.  ``two_cone_alpha``
    is the alpha of a two-cone metric (total area ``4 pi alpha``), or None.
    ``meta`` holds a standard form's case data: case, alpha, a, and the
    scale p of a rescaled form.
    """

    label: str
    poles: Tuple[Tuple[complex, float], ...]
    exact_part: Tuple[complex, ...] = ()
    spec: Optional[str] = None
    two_cone_alpha: Optional[float] = None
    meta: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> str:
        doc = {
            "poles": [
                {"a": [a.real, a.imag], "lambda": [float(lam), 0.0]}
                for a, lam in self.poles
            ],
            "exact_part": [[c.real, c.imag] for c in self.exact_part],
        }
        return json.dumps(doc)

    def source_args(self) -> List[str]:
        """CLI arguments that name this form."""
        if self.spec is not None:
            return ["--standard", self.spec]
        return ["--form", self.to_json()]


# ---------------------------------------------------------------------------
# pole-sum algebra (independent of the package)
# ---------------------------------------------------------------------------


def eta_numerator(poles: Sequence[Tuple[complex, float]],
                  exact_part: Sequence[complex] = ()) -> np.ndarray:
    """Ascending coefficients of N with eta = N / prod(z - a_i)."""
    locs = [a for a, _ in poles]
    num = np.zeros(1, dtype=complex)
    for i, (_, lam) in enumerate(poles):
        others = locs[:i] + locs[i + 1:]
        num = P.polyadd(num, lam * P.polyfromroots(others) if others else [lam])
    if len(exact_part) > 1:
        dh = P.polyder(np.asarray(exact_part, dtype=complex))
        num = P.polyadd(num, P.polymul(dh, P.polyfromroots(locs)))
    scale = max(abs(c) for c in num)
    coeffs = list(num)
    while coeffs and abs(coeffs[-1]) <= 1e-12 * scale:
        coeffs.pop()
    return np.asarray(coeffs, dtype=complex)


def eta_zeros(poles, exact_part=()) -> np.ndarray:
    num = eta_numerator(poles, exact_part)
    if num.size <= 1:
        return np.empty(0, dtype=complex)
    return P.polyroots(num)


def eta_terms(form: Form, z: complex, residue_scale: float = 1.0
              ) -> Tuple[complex, float]:
    """The pole sum eta(z) and the sum of the magnitudes of its terms.

    ``residue_scale`` multiplies the first residue; the self-check uses it to
    perturb the reference.
    """
    acc = 0j
    mag = 0.0
    for i, (a, lam) in enumerate(form.poles):
        term = (lam * residue_scale if i == 0 else lam) / (z - a)
        acc += term
        mag += abs(term)
    if len(form.exact_part) > 1:
        dh = P.polyval(z, P.polyder(np.asarray(form.exact_part, dtype=complex)))
        acc += dh
        mag += abs(dh)
    return acc, mag


def _min_pairwise(points) -> float:
    pts = list(points)
    best = math.inf
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            best = min(best, abs(p - q))
    return best


def _min_cross(points, others) -> float:
    return min((abs(p - q) for p in points for q in others), default=math.inf)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_real_residue_form(rng: np.random.Generator, n_poles: int,
                             label: str, base_gap: float = BASE_GAP) -> Form:
    """Random real-residue form under the acceptance corpus rules: poles in
    0.35 <= |z| <= 1.9 at least 0.45 apart, residues of magnitude 1 to 2.2,
    residue sum of magnitude at least 1 and not within 0.15 of 1, simple
    zeros at least 0.25 apart and from every pole; and poles ``base_gap``
    from BASE_POINT."""
    for _ in range(400):
        locs: List[complex] = []
        while len(locs) < n_poles:
            z = complex(rng.uniform(-1.9, 1.9), rng.uniform(-1.9, 1.9))
            if not 0.35 <= abs(z) <= 1.9 or abs(z - BASE_POINT) < base_gap:
                continue
            if any(abs(z - w) < 0.45 for w in locs):
                continue
            locs.append(z)
        residues = [
            float(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.2))
            for _ in range(n_poles)
        ]
        total = sum(residues)
        if abs(total) < 1.0 or abs(abs(total) - 1.0) < 0.15:
            continue
        poles = tuple(zip(locs, residues))
        zeros = eta_zeros(poles)
        if _min_pairwise(zeros) < 0.25 or _min_cross(zeros, locs) < 0.25:
            continue
        return Form(label, poles)
    raise RuntimeError(f"no admissible random form for {label}")


def roots_of_minus(alpha: int, a: complex) -> List[complex]:
    """The alpha solutions of z^alpha = -a."""
    mod = abs(a) ** (1.0 / alpha)
    base = (cmath.phase(a) + math.pi) / alpha
    return [mod * cmath.exp(1j * (base + TWO_PI * k / alpha)) for k in range(alpha)]


def standard_poles(case: str, alpha: int, a: complex | None = None,
                   p: complex = 1.0 + 0j) -> Tuple[Tuple[complex, float], ...]:
    """Poles of a standard unit or plus/minus form after z = p w."""
    plus = [(p * r, 1.0) for r in roots_of_minus(alpha, 1.0 + 0j)]
    if case == "unit":
        return tuple(plus)
    minus = [(p * r, -1.0) for r in roots_of_minus(alpha, complex(a))]
    return tuple(plus + minus)


def parse_spec(spec: str) -> Form:
    """Pole data of a ``--standard`` spec (simple, unit or pm)."""
    name, _, body = spec.partition(":")
    kv = dict(item.split("=") for item in body.split(","))
    if name == "simple":
        lam = float(kv["lambda"])
        return Form(spec, ((0j, lam),), spec=spec, two_cone_alpha=abs(lam),
                    meta={"case": name, "alpha": lam, "a": None})
    alpha = int(kv["alpha"])
    a = complex(kv["a"]) if "a" in kv else None
    return Form(spec, standard_poles(name, alpha, a), spec=spec,
                two_cone_alpha=float(alpha), meta={"case": name, "alpha": alpha, "a": a})


def corpus(seed: int) -> List[Form]:
    """The shared 15-form corpus: the six standard cases, three seeded
    ``simple:lambda`` values and two seeded random forms each with 4, 5 and
    6 poles.  The composition is fixed; the seed moves only the values.

    The list is interleaved so that any prefix mixes the cheap standard
    forms with the dearer random ones.
    """
    rng = np.random.default_rng([seed, 1])
    standard = [parse_spec(s) for s in STANDARD_SPECS]
    simple = []
    for k in range(3):
        lam = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0))
        simple.append(parse_spec(f"simple:lambda={lam!r}"))
    random = [
        random_real_residue_form(rng, n, f"random{n}#{k}")
        for k in range(2) for n in (4, 5, 6)
    ]
    order = "SRsSRSRsSRSRsSR"  # S standard, s simple, R random
    pools = {"S": iter(standard), "s": iter(simple), "R": iter(random)}
    return [next(pools[c]) for c in order]


def probe_forms() -> List[Form]:
    """Paper-allowed inputs that fail today (fixed, independent of the seed):
    high-order zeros, more than 16 poles, and a corpus-rule form with a pole
    within 0.1 of the default base point."""
    forms = [parse_spec(s) for s in (
        "unit:alpha=5", "pm:alpha=4,a=2+0j", "pm:alpha=7,a=2+0j",
        "pm:alpha=9,a=2+0j",
    )]
    rng = np.random.default_rng(20220411)
    for n in (17, 24, 40):
        forms.append(spread_form(rng, n, f"poles={n}", zero_gap=0.1))
    while True:
        form = random_real_residue_form(rng, 6, "pole near base point", base_gap=0.0)
        if min(abs(a - BASE_POINT) for a, _ in form.poles) < 0.1:
            forms.append(form)
            return forms


def spread_form(rng: np.random.Generator, n_poles: int, label: str,
                balanced: bool = False, exact_degree: int = 0,
                zero_gap: float = 0.05) -> Form:
    """Random real-residue form with poles in [-2, 2]^2 at least 0.25 apart
    and residues of magnitude 0.5 to 2.

    ``balanced`` makes the residues sum to zero (infinity is then not a
    pole); ``exact_degree`` > 0 adds a polynomial exact part of that degree,
    which breaks the third-kind hypothesis.  Zeros are kept at least
    ``zero_gap`` apart and from the poles, so every zero is simple.
    """
    for _ in range(400):
        locs: List[complex] = []
        while len(locs) < n_poles:
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            if any(abs(z - w) < 0.25 for w in locs):
                continue
            locs.append(z)
        residues = [
            float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
            for _ in range(n_poles)
        ]
        if balanced:
            residues[-1] = -sum(residues[:-1])
            if abs(residues[-1]) < 0.5:
                continue
        elif abs(sum(residues)) < 0.5:
            continue
        exact: Tuple[complex, ...] = ()
        if exact_degree:
            exact = tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(exact_degree + 1)
            )
        poles = tuple(zip(locs, residues))
        zeros = eta_zeros(poles, exact)
        if _min_pairwise(zeros) < zero_gap or _min_cross(zeros, locs) < zero_gap:
            continue
        return Form(label, poles, exact)
    raise RuntimeError(f"no admissible spread form for {label}")


def clear_patch(form: Form) -> complex:
    """Centre of a grid patch as far as possible from every pole and zero,
    on a lattice over [-2, 2]^2 (for forms the program cannot place)."""
    sing = [a for a, _ in form.poles] + list(eta_zeros(form.poles, form.exact_part))
    best, best_d = 0j, -1.0
    for x in np.arange(-2.0, 2.01, 0.125):
        for y in np.arange(-2.0, 2.01, 0.125):
            c = complex(x, y)
            d = min(abs(c - s) for s in sing)
            if d > best_d + 1e-12:
                best, best_d = c, d
    return best
