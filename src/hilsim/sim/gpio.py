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


@dataclass(frozen=True)
class GpioEvent:
    pin: int
    level: int
    timestamp_ns: int


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

    def record(self, pin: int, level: int, t_ns: int) -> bool:
        """Record one physical edge; returns True if the event was kept."""
        if self.method.edges == "rising-only" and level != 1:
            return False
        last_t = self._last_accept_ns.get(pin)
        last_level = self._last_level.get(pin)
        if last_t is not None and t_ns - last_t < self.method.t_min_ns:
            self.overrun_count += 1
            return False
        if last_level is not None and self.method.edges == "both" and level == last_level:
            # an intervening edge was dropped; skip until alternation resumes
            self.overrun_count += 1
            return False
        jitter = self.method.t_jitter_ns
        perturbed = t_ns + self._rng.randint(-jitter, jitter)
        self.buffer.append(GpioEvent(pin=pin, level=level, timestamp_ns=max(perturbed, 0)))
        self._last_accept_ns[pin] = t_ns
        self._last_level[pin] = level
        self.kept += 1
        return True

    @property
    def events(self) -> list[GpioEvent]:
        return list(self.buffer)
