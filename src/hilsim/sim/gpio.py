"""GPIO edge capture with per-method timing envelopes.

Three capture methods are modeled, each with a minimum inter-event spacing
(events arriving faster are dropped with overrun accounting) and a bounded,
seeded timestamp perturbation. Timer-backed methods hold at most 128 events
and overwrite the oldest when full.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

TIMER_BUFFER_LEN = 128


@dataclass(frozen=True)
class CaptureMethod:
    kind: str
    t_min_ns: int
    t_jitter_ns: int
    edges: str  # "rising-only" or "both"
    buffer_len: int | None  # None = unbounded


CAPTURE_METHODS = {
    "timer-capture-dma": CaptureMethod("timer-capture-dma", 200, 28, "rising-only", TIMER_BUFFER_LEN),
    "timer-capture-irq": CaptureMethod("timer-capture-irq", 1_000, 200, "both", TIMER_BUFFER_LEN),
    "gpio-irq": CaptureMethod("gpio-irq", 10_000, 600, "both", None),
}


class GpioEvent(NamedTuple):
    """One captured edge. A named tuple: it equals the plain ``(pin, level, timestamp_ns)``."""

    pin: int
    level: int
    timestamp_ns: int


# a GpioEvent from a (pin, level, timestamp_ns) tuple, without the named tuple's Python-level __new__
as_event = partial(tuple.__new__, GpioEvent)


@dataclass
class GpioTrace:
    """Captured edge log for one capture method."""

    method: CaptureMethod
    seed: int = 0
    overrun_count: int = field(default=0, init=False)
    kept: int = field(default=0, init=False)  # events kept since construction, dropped ones included
    buffer: deque = field(init=False)  # a timer buffer keeps its newest buffer_len events
    _rng: random.Random = field(init=False)  # seeded in __post_init__
    _last_accept_ns: dict = field(default_factory=dict, init=False)
    _last_level: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.buffer = deque(maxlen=self.method.buffer_len)
        self._rng = random.Random(self.seed)

    def record_train(self, pin: int, level: int, times) -> tuple[int, int | None, int | None]:
        """Record a train of edges on ``pin`` at ``times`` (ascending), alternating from ``level``.

        Returns how many the capture kept and the unperturbed times of the last kept rise and
        fall (None where the train kept none). Each edge is handled as on its own: a falling
        edge is skipped by a rising-only method; an edge closer than ``t_min_ns`` to the pin's
        last kept edge, or one that repeats its level on a both-edge method, is an overrun; a
        kept edge is stamped with a seeded jitter in ``[-t_jitter_ns, t_jitter_ns]``, clamped at 0,
        and appended to ``buffer`` as a ``GpioEvent`` (built by ``as_event``) before the next edge.
        """
        method = self.method
        t_min = method.t_min_ns
        both = method.edges == "both"
        rising_only = not both
        # randint(-jitter, jitter) as CPython draws it: getrandbits of the span's bit length,
        # redrawn while out of range, so the values and the generator's state are the same
        jitter = method.t_jitter_ns
        span = 2 * jitter + 1
        bits = span.bit_length()
        getrandbits = self._rng.getrandbits
        append = self.buffer.append
        last_t = self._last_accept_ns.get(pin)
        last_level = self._last_level.get(pin)
        kept = overruns = 0
        rise_t = fall_t = None
        for t in times:
            if rising_only and level != 1:
                pass  # a falling edge is not captured: neither kept nor an overrun
            elif (last_t is not None and t - last_t < t_min) or (both and level == last_level):
                # too fast, or an intervening edge was dropped: skip until alternation resumes
                overruns += 1
            else:
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                stamp = t + r - jitter
                append(as_event((pin, level, stamp if stamp > 0 else 0)))
                last_t = t
                last_level = level
                kept += 1
                if level:
                    rise_t = t
                else:
                    fall_t = t
            level ^= 1
        self.overrun_count += overruns
        if kept:
            self._last_accept_ns[pin] = last_t
            self._last_level[pin] = last_level
            self.kept += kept
        return kept, rise_t, fall_t

    @property
    def events(self) -> list[GpioEvent]:
        return list(self.buffer)
