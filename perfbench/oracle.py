"""Expectations the benchmark checks hilsim's outputs against.

Each expectation comes from outside the code under test: the README's fault
table, the simulated GpioTrace events (the capture hardware's ground truth,
which the register publish path, the PAL and the harness reader must
reproduce), and, for served suites, in-process verdicts for the same suite and
seed. A check returns ``None`` or a ``Miss``. A miss whose symptom matches a
defect listed in ROADMAP item 1 names that defect; every miss counts as a
failed operation, and only misses without a known defect make a run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass

TICK_MASK = 0xFFFFFFFF
TICK_WRAP = 1 << 32
TRACE_SLOTS = 128  # trace.source/value/tick array length in the reference map
GPIO_IRQ = 2  # timer.mode.capture_method code of the unbounded gpio-irq method

# README "Fault detection" table: the suite category that catches each fault.
README_FAULT_CATEGORY = {
    "extra_read_byte": "usage",
    "swallow_error_return": "negative",
    "inverted_status_check": "usage",
    "missing_error_cleanup": "recovery",
    "stop_while_busy_hang": "usage",
}

KNOWN_DEFECTS = {
    "trace_overflow": "ROADMAP item 1, trace overflow: gpio-irq publishes more than 128 "
    "trace entries, growing the register file; the PAL rejects the read-back",
    "tick_wrap": "ROADMAP item 1, 32-bit tick wrap: trace ticks hold t mod 2^32 and the "
    "harness compares them with 64-bit simulated time",
    "remote_reset_leak": "ROADMAP item 1, remote reset leak: over TCP only *.mode.* registers "
    "are restored between cases, so the user window keeps earlier cases' bytes",
}

# i2c cases that read back user-window bytes an earlier served case left behind
LEAK_CASES = frozenset({"i2c.usage.read_count", "i2c.recovery.missing_addr"})
WRAP_CASES = frozenset({"timer.accuracy", "timer.overlap_delay"})


@dataclass(frozen=True)
class Miss:
    detail: str
    defect: str | None = None


# -- suites ---------------------------------------------------------------


def check_fault_free(reports) -> Miss | None:
    """A fault-free bench fails no case."""
    failed = [f"{c.id}: {c.reason}" for r in reports for c in r.failed]
    if failed:
        return Miss("fault-free run failed " + "; ".join(failed))
    return None


def check_faulted(fault: str, reports) -> Miss | None:
    """The README category for ``fault`` is among the failures of its five suite runs."""
    wanted = README_FAULT_CATEGORY[fault]
    seen = sorted({c.category for r in reports for c in r.failed})
    if wanted not in seen:
        return Miss(f"{fault}: failing categories {seen}, expected {wanted}")
    return None


def check_remote_case(case, expected_verdict: str, suite_pass: int) -> Miss | None:
    """A served case gets the verdict the same suite and seed get in-process.

    ``suite_pass`` counts earlier runs of the same suite against this server.
    """
    if case.verdict == expected_verdict:
        return None
    detail = f"{case.id}: served {case.verdict}, in-process {expected_verdict} ({case.reason})"
    if case.id in LEAK_CASES and suite_pass > 0:
        return Miss(detail, "remote_reset_leak")
    if case.id in WRAP_CASES and _wrapped_measurement(case.measured):
        return Miss(detail, "tick_wrap")
    return Miss(detail)


def _wrapped_measurement(measured: dict) -> bool:
    """True when a timing result is off by about 2^32 ns, the tick-wrap signature."""
    delays = measured.get("delays_ns") or []
    if any(abs(d) > TICK_WRAP // 2 for d in delays):
        return True
    timing = measured.get("timing")
    if timing:
        # one wrapped period among k shifts the mean by about 2^32 / k
        error = abs(timing["mean_period_ns"] * (timing["ppm_error"] / 1e6))
        return error * timing["n_events"] > TICK_WRAP // 4
    return False


# -- edge captures --------------------------------------------------------


def truth_tuples(events) -> list[tuple[int, int, int]]:
    """Ground-truth GpioTrace events as the (pin, level, tick) rows the registers hold."""
    return [(e.pin, e.level, e.timestamp_ns & TICK_MASK) for e in events]


def truth_mean_period(events, pin: int) -> float:
    """Mean same-direction edge spacing on ``pin`` from 64-bit simulated timestamps."""
    on_pin = [e for e in events if e.pin == pin]
    if len({e.level for e in on_pin}) > 1:
        on_pin = [e for e in on_pin if e.level == on_pin[0].level]
    return (on_pin[-1].timestamp_ns - on_pin[0].timestamp_ns) / (len(on_pin) - 1)


def check_capture(method: int, truth, readback, error: str | None = None,
                  pin: int = 0, mean_period: float | None = None) -> Miss | None:
    """Read-back rows equal ground truth; a timer_trace's mean period matches too.

    ``readback`` is a list of (pin, level, tick) rows, or None when reading
    failed with ``error``; ``mean_period`` is timer_accuracy's result, if any.
    """
    overflow = "trace_overflow" if method == GPIO_IRQ and len(truth) > TRACE_SLOTS else None
    if readback is None:
        return Miss(f"read-back failed: {error}", overflow)
    expected = truth_tuples(truth)
    if readback != expected:
        diffs = sum(a != b for a, b in zip(readback, expected)) + abs(len(readback) - len(expected))
        return Miss(f"read-back differs from ground truth in {diffs} of {len(expected)} events", overflow)
    if mean_period is not None:
        wanted = truth_mean_period(truth, pin)
        if abs(mean_period - wanted) > 1e-9 * abs(wanted):
            ticks = [e.timestamp_ns for e in truth]
            wrap = "tick_wrap" if ticks[0] // TICK_WRAP != ticks[-1] // TICK_WRAP else None
            return Miss(f"timer_accuracy mean period {mean_period} != ground truth {wanted}", wrap or overflow)
    return None
