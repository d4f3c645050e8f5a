"""Nanosecond virtual clock and single-threaded event scheduler."""

from __future__ import annotations

import heapq
from typing import Callable


class SimClock:
    """Monotonic simulated time in nanoseconds since simulation start."""

    def __init__(self):
        self._now = 0

    @property
    def now(self) -> int:
        return self._now

    def advance_to(self, t: int) -> None:
        if t < self._now:
            raise ValueError(f"clock cannot move backwards: {t} < {self._now}")
        self._now = t

    def advance(self, delta: int) -> None:
        if delta < 0:
            raise ValueError("negative advance")
        self._now += delta


class EventScheduler:
    """Ordered callback queue driving one SimClock.

    Events scheduled at equal times fire in submission order.
    """

    def __init__(self):
        self.clock = SimClock()
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule_at(self, t: int, callback: Callable[[], None]) -> None:
        if t < self.clock.now:
            raise ValueError(f"cannot schedule in the past: {t} < {self.clock.now}")
        heapq.heappush(self._queue, (t, self._seq, callback))
        self._seq += 1

    def run_until_idle(self) -> None:
        """Pop and run events in time order, advancing the clock; a callback that raises drops the rest."""
        try:
            while self._queue:
                t, _, callback = heapq.heappop(self._queue)
                self.clock.advance_to(t)
                callback()
        except BaseException:
            self.clear()
            raise

    def clear(self) -> None:
        """Drop every pending event."""
        self._queue.clear()

    @property
    def pending(self) -> int:
        return len(self._queue)
