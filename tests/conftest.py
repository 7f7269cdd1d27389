import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cscforge import (
    StandardFormCase,
    build_third_kind,
    standard_form,
)

# ---------------------------------------------------------------------------
# Test form corpus: standard cases plus random real-residue forms.  The
# random generator enforces the separations the measurement machinery needs
# (pole spacing, zero spacing, residue magnitudes >= 1 so the pole limits are
# sharp at distance 1e-6).
# ---------------------------------------------------------------------------


def random_real_residue_form(seed: int, n_poles: int):
    rng = np.random.default_rng(seed)
    for _ in range(400):
        locs = []
        while len(locs) < n_poles:
            z = complex(rng.uniform(-1.9, 1.9), rng.uniform(-1.9, 1.9))
            if not 0.35 <= abs(z) <= 1.9:
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
        form = build_third_kind(list(zip(locs, residues)))
        finite = [p.location for p in form.singular_points
                  if isinstance(p.location, complex)]
        ok = all(
            not (isinstance(p.location, complex) and p.weight > 1)
            for p in form.singular_points
        )  # want simple zeros only
        for i, p in enumerate(finite):
            for q in finite[i + 1:]:
                if abs(p - q) < 0.25:
                    ok = False
        if ok:
            return form
    raise RuntimeError(f"no admissible random form for seed {seed}")


STANDARD_CASES = (
    StandardFormCase("simple", 2.5),
    StandardFormCase("simple", 1.0),
    StandardFormCase("unit_residues", 2),
    StandardFormCase("unit_residues", 3),
    StandardFormCase("plus_minus", 2, a=2 + 0j),
    StandardFormCase("plus_minus", 3, a=-1.5 + 0.8j),
)

RANDOM_SPECS = ((101, 4), (202, 5), (303, 6), (404, 5))


@pytest.fixture(scope="session")
def standard_forms():
    return [standard_form(case) for case in STANDARD_CASES]


@pytest.fixture(scope="session")
def random_forms():
    return [random_real_residue_form(seed, n) for seed, n in RANDOM_SPECS]


@pytest.fixture(scope="session")
def test_forms(standard_forms, random_forms):
    """The ten-form corpus used throughout the acceptance suite."""
    return standard_forms + random_forms
