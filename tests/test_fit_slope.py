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


def random_traces(seed: int):
    """(timestamps, nominal same-direction period) of 300 seeded traces with jitter and drift."""
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(2, 128)
        period = rng.choice([1_000, 20_000, 1_000_000, 2_000_000])
        jitter = rng.choice([0, 1, 50, 400, 5_000])
        curve = rng.choice([0, 1, 3, 17])  # edge i comes curve * i**2 / 1000 ns late
        start = rng.randrange(2**32)
        yield [start + i * period + curve * i * i // 1000 + rng.randint(-jitter, jitter) for i in range(n)], period


def test_timing_stats_equal_their_exact_values_on_random_traces():
    for ts, period in random_traces(6):
        stats = compute_timing_stats([GpioEvent(0, 1, t) for t in ts], period)
        k, span = len(ts) - 1, ts[-1] - ts[0]
        mean = Fraction(span, k)
        assert stats.mean_period_ns == float(mean)
        assert stats.ppm_error == float((mean - period) / period * 10**6)
        assert stats.jitter_ns == float(max(abs(b - a - mean) for a, b in zip(ts, ts[1:])))
        if span <= 0:
            assert stats.drift_ns_per_s == 0.0
            continue
        residuals = [t - ts[0] - i * mean for i, t in enumerate(ts)]
        assert stats.drift_ns_per_s == float(exact_slope([Fraction(t - ts[0], 10**9) for t in ts], residuals))


def test_timing_stats_are_bit_identical_after_any_shift():
    rng = random.Random(8)
    for ts, period in random_traces(7):
        stats = compute_timing_stats([GpioEvent(0, 1, t) for t in ts], period)
        shift = rng.randrange(-(2**40), 2**40)
        assert compute_timing_stats([GpioEvent(0, 1, t + shift) for t in ts], period) == stats
