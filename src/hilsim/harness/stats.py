"""Timing statistics over captured GPIO traces, in plain Python over lists.

Timestamps are integer nanoseconds, so periods, their sum and the elapsed
times are exact integers, and the line fits run on exact integer sums.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import mul, sub

from hilsim.sim.gpio import GpioEvent


@dataclass(frozen=True)
class TimingStats:
    n_events: int
    mean_period_ns: float
    ppm_error: float
    jitter_ns: float
    drift_ns_per_s: float


def fit_slope(x: Sequence[int], y: Sequence[int]) -> float:
    """Least-squares slope of integer points, correctly rounded: every sum is exact integer arithmetic."""
    n, sx = len(x), sum(x)
    return (n * sum(map(mul, x, y)) - sx * sum(y)) / (n * sum(map(mul, x, x)) - sx * sx)


def compute_timing_stats(events: list[GpioEvent], nominal_period_ns: float) -> TimingStats:
    """Period statistics from consecutive same-direction edges.

    ``nominal_period_ns`` is the expected spacing of same-direction edges
    (twice the toggle period for an alternating trace). Drift is the slope of
    the residuals ``t[i] - (t[0] + i * mean_period_ns)``, taken in float
    arithmetic, against the elapsed time ``t[i] - t[0]``, in ns per second.
    """
    if len(events) < 2:
        raise ValueError("need at least 2 events for period statistics")
    level = events[0].level
    timestamps = [e.timestamp_ns for e in events if e.level == level]
    n = len(timestamps)
    if n < 2:
        raise ValueError("need at least 2 same-direction edges")

    t0 = timestamps[0]
    span = timestamps[-1] - t0
    mean_period = span / (n - 1)
    ppm_error = (mean_period - nominal_period_ns) / nominal_period_ns * 1e6
    periods = list(map(sub, islice(timestamps, 1, None), timestamps))
    jitter = max(max(periods) - mean_period, mean_period - min(periods))

    if span > 0:
        # Timestamps are non-negative, so every grid point past t0 is at least mean_period.
        # Every grid point, and with it every residual, is then a multiple of 2**-shift,
        # so the scaled residuals are exact integers.
        shift = max(0, 53 - math.frexp(mean_period)[1])
        scale = math.ldexp(1.0, shift)
        scaled = [int((t - (t0 + i * mean_period)) * scale) for i, t in enumerate(timestamps)]
        drift = math.ldexp(fit_slope(timestamps, scaled), -shift) * 1e9
    else:
        drift = 0.0

    return TimingStats(
        n_events=len(events),
        mean_period_ns=mean_period,
        ppm_error=ppm_error,
        jitter_ns=jitter,
        drift_ns_per_s=drift,
    )
