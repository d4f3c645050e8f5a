"""Trace unit: routes pin edges into a capture backend and publishes the
captured events and per-pin accounting into the reference device registers."""

from __future__ import annotations

from itertools import islice

from hilsim.refdev import RegisterFile
from hilsim.sim.clock import SimClock
from hilsim.sim.gpio import CAPTURE_METHODS, GpioTrace

_METHOD_BY_CODE = {
    0: "timer-capture-dma",
    1: "timer-capture-irq",
    2: "gpio-irq",
}

GPIO_MODULES = ("gpio0", "gpio1", "gpio2")


class TraceUnit:
    def __init__(self, regs: RegisterFile, clock: SimClock, seed: int = 0):
        self.regs = regs
        self.clock = clock
        self.seed = seed
        self.slots = regs.map.lookup("trace.source").array_len
        self._arrays = [regs.map.lookup(name) for name in ("trace.source", "trace.value", "trace.tick")]
        # bound once: the capture method and the two timing registers a re-init reads and writes,
        # each pin's level, edge and overrun counts and last rise and fall ticks, and the four counters
        self._method_code, self._min_tick, self._min_holdoff = (
            regs.bind(name) for name in ("timer.mode.capture_method", "timer.min_tick", "timer.min_holdoff")
        )
        pin_fields = ("status.level", "edge_count", "overrun_count", "rise_ticks", "fall_ticks")
        self._pins = [[regs.bind(f"{mod}.{name}") for name in pin_fields] for mod in GPIO_MODULES]
        counters = ("trace.index", "trace.overrun_count", "timer.event_count", "timer.overrun_count")
        self._counters = [regs.bind(name) for name in counters]
        self.reinit()

    @property
    def method(self):
        return self.trace.method

    def reinit(self) -> None:
        """Re-init the timer and trace modules: apply the capture method, drop every capture and
        the pin accounting published for it."""
        method = CAPTURE_METHODS[_METHOD_BY_CODE.get(self._method_code.get(), "timer-capture-irq")]
        self.trace = GpioTrace(method, seed=self.seed)
        self.regs.restore(*GPIO_MODULES)
        self._min_tick.set(method.t_min_ns)
        self._min_holdoff.set(method.t_jitter_ns)

    def record_edge(self, pin: int, level: int) -> bool:
        """Record one edge at the clock's time; returns True if the capture kept it."""
        return self.record_edges(pin, level, (self.clock.now,)) == 1

    def record_edges(self, pin: int, level: int, times) -> int:
        """Record a train of edges on ``pin`` at ``times`` (ascending, at least one), alternating
        from ``level``; returns how many the capture kept.

        The pin's registers are written once, with what per-edge writes would have left:
        ``status.level`` follows the last edge, kept or not, ``edge_count`` counts kept edges
        and ``overrun_count`` dropped ones, each wrapping at its width, and
        ``rise_ticks``/``fall_ticks`` hold the last kept rise/fall time, wrapped at their width.
        The trace counters and arrays wait: ``regs`` is marked with ``publish``, which the
        register file runs before its image is next read, so a burst of edges rewrites them
        once, the arrays whole. A commit need not run it: they are read-only, and an ``ex`` that
        restores them re-inits this unit, whose capture then holds nothing.
        """
        trace = self.trace
        overruns_before = trace.overrun_count
        kept, rise_t, fall_t = trace.record_train(pin, level, times)
        if pin < len(self._pins):
            status, edges, dropped, rise, fall = self._pins[pin]
            status.set(level ^ (len(times) - 1) & 1)  # the last edge's level
            if kept:
                edges.add(kept)
                if rise_t is not None:
                    rise.wrap(rise_t)
                if fall_t is not None:
                    fall.wrap(fall_t)
            overruns = trace.overrun_count - overruns_before
            if overruns:
                dropped.add(overruns)
        # looked up per call, so a wrapper installed on the class is what runs
        self.regs.pending = self.publish
        return kept

    def publish(self) -> None:
        """Mirror the first ``slots`` held events into the trace arrays, the rest counting as
        overruns; then clear the pending mark.

        The DUT runs it after a timer train, the register file before a ``read`` after single edges.
        It writes the window whole: it only grows within a capture, and a re-init zeroes the rest.
        """
        trace = self.trace
        held = len(trace.buffer)
        count = min(held, self.slots)
        overruns = trace.overrun_count + held - count
        index, trace_overruns, event_count, timer_overruns = self._counters
        index.set(count)
        trace_overruns.set(overruns)
        event_count.set(count)
        timer_overruns.set(overruns)
        if count:
            sources, values, stamps = zip(*islice(trace.buffer, count))
            columns = (sources, values, [t & 0xFFFFFFFF for t in stamps])
            for entry, column in zip(self._arrays, columns):
                self.regs.poke(entry.offset, entry.pack(column))
        self.regs.pending = None
