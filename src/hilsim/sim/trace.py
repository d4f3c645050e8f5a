"""Trace unit: routes pin edges into a capture backend and publishes the
captured events and per-pin accounting into the reference device registers."""

from __future__ import annotations

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
        self.trace = GpioTrace(CAPTURE_METHODS["timer-capture-irq"], seed=seed)
        self.reinit()

    @property
    def method(self):
        return self.trace.method

    def reinit(self) -> None:
        """Reconfigure the capture backend from the timer registers."""
        code = self.regs.read_param("timer.mode.capture_method")
        method = CAPTURE_METHODS[_METHOD_BY_CODE.get(code, "timer-capture-irq")]
        self.trace = GpioTrace(method, seed=self.seed)
        self.regs.poke_param("timer.min_tick", method.t_min_ns)
        self.regs.poke_param("timer.min_holdoff", method.t_jitter_ns)
        self.regs.poke_param("timer.overrun_count", 0)
        self.regs.poke_param("timer.event_count", 0)
        self.clear()

    def clear(self) -> None:
        self.trace.clear()
        self.publish()
        for mod in GPIO_MODULES:
            for param in ("edge_count", "rise_ticks", "fall_ticks", "overrun_count"):
                self.regs.poke_param(f"{mod}.{param}", 0)

    def record_edge(self, pin: int, level: int) -> bool:
        t = self.clock.now
        kept = self.trace.record(pin, level, t)
        if pin < len(GPIO_MODULES):
            mod = GPIO_MODULES[pin]
            self.regs.poke_param(f"{mod}.status.level", level)
            if kept:
                self.regs.poke_param(f"{mod}.edge_count", self.regs.read_param(f"{mod}.edge_count") + 1)
                which = "rise_ticks" if level else "fall_ticks"
                self.regs.poke_param(f"{mod}.{which}", t & 0xFFFFFFFF)
        return kept

    def publish(self) -> None:
        """Mirror the first ``slots`` captured events into the trace arrays; the rest count as overruns."""
        captured = self.trace.events
        events = captured[: self.slots]
        overruns = self.trace.overrun_count + len(captured) - len(events)
        self.regs.poke_param("trace.index", len(events))
        self.regs.poke_param("trace.overrun_count", overruns)
        self.regs.poke_param("timer.event_count", len(events))
        self.regs.poke_param("timer.overrun_count", overruns)
        if events:  # every reset publishes an empty trace; trace.index already says so
            self.regs.poke_param("trace.source", [e.pin for e in events])
            self.regs.poke_param("trace.value", [e.level for e in events])
            self.regs.poke_param("trace.tick", [e.timestamp_ns & 0xFFFFFFFF for e in events])
