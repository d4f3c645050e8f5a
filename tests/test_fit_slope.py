"""The line fit and the drift are the correctly rounded exact least-squares slopes."""

import random
from fractions import Fraction

from hilsim.harness.stats import compute_timing_stats, fit_slope
from hilsim.sim.gpio import GpioEvent


def exact_slope(x, y) -> Fraction:
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


def test_fit_slope_equals_the_exact_slope():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(2, 130)
        x = sorted(rng.sample(range(-(2**40), 2**40), n))
        y = [rng.randrange(-(2**32), 2**32) + rng.randint(-10_000, 10_000) * xi for xi in x]
        assert fit_slope(x, y) == float(exact_slope(x, y))
    assert fit_slope(range(1, 11), [30_000 * n + 7 for n in range(1, 11)]) == 30_000


def test_timing_stats_equal_their_exact_values_on_random_traces():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(2, 128)
        period = rng.choice([1_000, 20_000, 1_000_000, 2_000_000])
        jitter = rng.choice([0, 1, 50, 400, 5_000])
        start = rng.randrange(2**32)
        ts = [start + i * period + rng.randint(-jitter, jitter) for i in range(n)]
        stats = compute_timing_stats([GpioEvent(0, 1, t) for t in ts], period)

        mean = Fraction(ts[-1] - ts[0], n - 1)
        assert stats.mean_period_ns == float(mean)
        # ppm is the relative error of the rounded mean: (mean - nominal) is exact, / and * round once each
        ppm = (Fraction(stats.mean_period_ns) - period) / period * 10**6
        assert abs(stats.ppm_error - ppm) <= abs(ppm) * 2**-51
        assert stats.jitter_ns == max(abs(b - a - stats.mean_period_ns) for a, b in zip(ts, ts[1:]))

        if ts[-1] <= ts[0]:
            assert stats.drift_ns_per_s == 0.0
            continue
        residuals = [t - (ts[0] + i * stats.mean_period_ns) for i, t in enumerate(ts)]
        drift = exact_slope([Fraction(t - ts[0], 10**9) for t in ts], residuals)
        assert abs(stats.drift_ns_per_s - drift) <= abs(drift) * 1e-12
