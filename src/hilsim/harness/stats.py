"""Timing statistics over captured GPIO traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hilsim.sim.gpio import GpioEvent


@dataclass(frozen=True)
class TimingStats:
    n_events: int
    mean_period_ns: float
    ppm_error: float
    jitter_ns: float
    drift_ns_per_s: float


def compute_timing_stats(events: list[GpioEvent], nominal_period_ns: float) -> TimingStats:
    """Period statistics from consecutive same-direction edges.

    ``nominal_period_ns`` is the expected spacing of same-direction edges
    (twice the toggle period for an alternating trace).
    """
    if len(events) < 2:
        raise ValueError("need at least 2 events for period statistics")
    levels = {e.level for e in events}
    if len(levels) > 1:
        timestamps = np.array(
            [e.timestamp_ns for e in events if e.level == events[0].level], dtype=float
        )
    else:
        timestamps = np.array([e.timestamp_ns for e in events], dtype=float)
    if len(timestamps) < 2:
        raise ValueError("need at least 2 same-direction edges")

    periods = np.diff(timestamps)
    mean_period = float(np.mean(periods))
    ppm_error = (mean_period - nominal_period_ns) / nominal_period_ns * 1e6
    jitter = float(np.max(np.abs(periods - mean_period)))

    # drift: slope of timestamp residuals against an ideal grid, in ns per
    # second of elapsed trace time
    idx = np.arange(len(timestamps))
    residuals = timestamps - (timestamps[0] + idx * mean_period)
    elapsed_s = (timestamps - timestamps[0]) / 1e9
    if float(elapsed_s[-1]) > 0:
        drift = float(np.polyfit(elapsed_s, residuals, 1)[0])
    else:
        drift = 0.0

    return TimingStats(
        n_events=len(events),
        mean_period_ns=mean_period,
        ppm_error=float(ppm_error),
        jitter_ns=jitter,
        drift_ns_per_s=drift,
    )
