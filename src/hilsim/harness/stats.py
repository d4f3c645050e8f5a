"""Timing statistics over captured GPIO traces, in plain Python over lists.

Timestamps are integer nanoseconds. Every figure is one correctly rounded
division of exact integers taken over the elapsed times ``t[i] - t[0]``, so
no figure depends on when the trace began.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul

from hilsim.sim.gpio import GpioEvent


@dataclass(frozen=True)
class TimingStats:
    n_events: int
    mean_period_ns: float
    ppm_error: float
    jitter_ns: float
    drift_ns_per_s: float


def _slope_terms(x: Sequence[int], y: Sequence[int]) -> tuple[int, int]:
    """Numerator and denominator of the least-squares slope of integer points, as exact integers."""
    n, sx = len(x), sum(x)
    return n * sum(map(mul, x, y)) - sx * sum(y), n * sum(map(mul, x, x)) - sx * sx


def fit_slope(x: Sequence[int], y: Sequence[int]) -> float:
    """Least-squares slope of integer points, correctly rounded."""
    num, den = _slope_terms(x, y)
    return num / den


def compute_timing_stats(events: list[GpioEvent], nominal_period_ns: int) -> TimingStats:
    """Period statistics from consecutive same-direction edges.

    ``nominal_period_ns`` is the expected spacing of same-direction edges (twice
    the toggle period for an alternating trace). Over the elapsed times ``u`` of
    ``k + 1`` edges, ``u[i] * k - i * u[k]`` is ``k`` times the residual from the
    mean-period grid; drift is their slope against ``u``, in ns per second.
    """
    if len(events) < 2:
        raise ValueError("need at least 2 events for period statistics")
    level = events[0].level
    timestamps = [e.timestamp_ns for e in events if e.level == level]
    if len(timestamps) < 2:
        raise ValueError("need at least 2 same-direction edges")

    elapsed = [t - timestamps[0] for t in timestamps]
    k, span = len(elapsed) - 1, elapsed[-1]
    periods = [b - a for a, b in zip(elapsed, elapsed[1:])]
    nominal = k * nominal_period_ns
    drift = 0.0
    if span > 0:
        num, den = _slope_terms(elapsed, [u * k - i * span for i, u in enumerate(elapsed)])
        drift = num * 10**9 / (den * k)
    return TimingStats(
        n_events=len(events),
        mean_period_ns=span / k,
        ppm_error=(span - nominal) * 10**6 / nominal,
        jitter_ns=max(max(periods) * k - span, span - min(periods) * k) / k,
        drift_ns_per_s=drift,
    )
