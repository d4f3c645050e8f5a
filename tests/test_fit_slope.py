"""The closed-form line fit gives np.polyfit's slope."""

import random

import numpy as np
import pytest

from hilsim.harness.stats import fit_slope


def test_fit_slope_equals_polyfit():
    rng = random.Random(4)
    for _ in range(200):
        x = np.cumsum([rng.uniform(1e-4, 1e-3) for _ in range(rng.randint(2, 130))])
        y = [rng.gauss(0, 300) + rng.uniform(-1e4, 1e4) * xi for xi in x]
        assert fit_slope(x, y) == pytest.approx(float(np.polyfit(x, y, 1)[0]), rel=1e-9, abs=1e-6)
    assert fit_slope(range(1, 11), [30_000 * n + 7 for n in range(1, 11)]) == pytest.approx(30_000)
