"""Trace publish: the arrays, counters and per-pin registers always mirror the capture, and a
publish writes the shown window whole, one poke per array from its first element."""

import random
from collections import Counter

import pytest

from hilsim.harness import RunConfig, SuiteRunner
from hilsim.sim.gpio import GpioEvent, GpioTrace

from conftest import make_bench

ARRAYS = ("trace.source", "trace.value", "trace.tick")
COUNTERS = ("trace.index", "trace.overrun_count", "timer.event_count", "timer.overrun_count")
GPIO_IRQ = 2  # timer.mode.capture_method code of the unbounded capture method
PERIODS = (300, 1_500, 12_000, 40_000)  # ns; the shorter ones overrun a capture method
PIN_REGISTERS = tuple(
    f"gpio{pin}.{name}"
    for pin in range(3)
    for name in ("status.level", "edge_count", "overrun_count", "rise_ticks", "fall_ticks")
)


class PinWatch:
    """The per-pin registers the edges recorded since the capture began should give.

    ``status.level`` follows every edge, ``edge_count`` counts kept edges, ``overrun_count``
    counts dropped ones (a falling edge a rising-only method skips is neither), and a kept
    rise or fall stores its unperturbed time mod 2^32. A capture re-init restores the defaults.
    The watch wraps ``GpioTrace.record_train``, which every edge goes through, alone or in a
    timer train. It hands the capture the train's times one at a time and tells a kept edge by
    the event the capture appended for it, not by the call's result. A kept edge is not found
    by matching events to times afterwards: a dropped edge of the same level can lie within
    the jitter of a kept one's stamp.
    """

    def __init__(self, bench, monkeypatch):
        self.unit = bench.trace
        layout = bench.refdev.regs.map
        self.defaults = {name: layout.lookup(name).default for name in PIN_REGISTERS}
        self.capture = self.expected = None
        self.dropped = Counter()  # edges the capture did not keep, by capture method
        record_train = GpioTrace.record_train

        def recording(capture, pin, level, times):
            if capture is self.unit.trace:
                times = self.watched(capture, pin, level, times)
            return record_train(capture, pin, level, times)

        monkeypatch.setattr(GpioTrace, "record_train", recording)

    def watched(self, capture, pin, level, times):
        """Yield ``times``; after each, update the registers by whether the capture kept it."""
        expected = self.registers()
        method = capture.method
        buffer = capture.buffer
        for t in times:
            last = buffer[-1] if buffer else None
            yield t
            expected[f"gpio{pin}.status.level"] = level
            if buffer and buffer[-1] is not last:
                event = buffer[-1]
                assert (event.pin, event.level) == (pin, level)
                assert abs(event.timestamp_ns - t) <= method.t_jitter_ns
                expected[f"gpio{pin}.edge_count"] += 1
                expected[f"gpio{pin}.{'rise' if level else 'fall'}_ticks"] = t & 0xFFFFFFFF
            else:
                self.dropped[method.kind] += 1
                if method.edges == "both" or level:
                    expected[f"gpio{pin}.overrun_count"] += 1
            level ^= 1

    def registers(self) -> dict:
        if self.unit.trace is not self.capture:
            self.capture, self.expected = self.unit.trace, dict(self.defaults)
        return self.expected


def mirror(bench, pins: PinWatch) -> dict:
    """The registers a from-scratch publish of ``trace.events[:slots]`` and the pins' edges give."""
    events = bench.trace.trace.events
    slots = bench.trace.slots
    shown = events[:slots]
    pad = [0] * (slots - len(shown))
    overruns = bench.trace.trace.overrun_count + len(events) - len(shown)
    return {
        "trace.source": [e.pin for e in shown] + pad,
        "trace.value": [e.level for e in shown] + pad,
        "trace.tick": [e.timestamp_ns & 0xFFFFFFFF for e in shown] + pad,
        "trace.index": len(shown),
        "trace.overrun_count": overruns,
        "timer.event_count": len(shown),
        "timer.overrun_count": overruns,
        **pins.registers(),
    }


def published(bench) -> dict:
    regs = bench.refdev.regs
    out = {name: regs.read_param(name, 0, bench.trace.slots) for name in ARRAYS}
    out.update((name, regs.read_param(name)) for name in COUNTERS + PIN_REGISTERS)
    return out


def random_step(rng: random.Random, layout) -> list[str]:
    """DUT or reference-device lines for one step, or ``["reset"]`` for ``Bench.reset()``."""
    kind = rng.randrange(10)
    pin = rng.randrange(3)
    if kind < 3:
        return [f"gpio_toggle {pin}"] * rng.randint(1, 150)
    if kind == 3:
        return [f"gpio_set {pin} {rng.randrange(2)}"]
    if kind < 6:
        return [f"timer_trace {rng.randint(1, 300)} {rng.choice(PERIODS)} {pin}"]
    if kind == 6:
        return [f"timer_bench {rng.randint(1, 40)} {rng.choice(PERIODS)} {pin}"]
    if kind == 7:
        method = layout.lookup("timer.mode.capture_method").offset
        return [f"wr {method} {rng.randrange(3)}", f"wr {layout.lookup('timer.mode.init').offset} 1", "ex"]
    if kind == 8:
        return [f"wr {layout.lookup('trace.mode.init').offset} 1", "ex"]
    return ["reset"]


def run_line(bench, line: str) -> None:
    if line == "reset":
        bench.reset()
    elif line.split()[0] in ("wr", "ex"):
        assert '"result": 0' in bench.refdev.handle_line(line)
    else:
        bench.dut.handle_line(line)


def test_published_trace_equals_a_from_scratch_mirror_after_every_command(monkeypatch):
    most_held = {}
    dropped = Counter()
    for seed in range(4):
        rng = random.Random(seed)
        bench = make_bench(seed=seed)
        pins = PinWatch(bench, monkeypatch)
        for _ in range(60):
            for line in random_step(rng, bench.refdev.regs.map):
                run_line(bench, line)
                image = published(bench)
                assert image == mirror(bench, pins), (seed, line)
                # each drop counts on its pin; the trace counter adds the held events not shown
                held = len(bench.trace.trace.buffer)
                hidden = held - min(held, bench.trace.slots)
                pin_overruns = sum(image[f"gpio{pin}.overrun_count"] for pin in range(3))
                assert pin_overruns == image["trace.overrun_count"] - hidden, (seed, line)
                kind = bench.trace.method.kind
                most_held[kind] = max(most_held.get(kind, 0), len(bench.trace.trace.events))
        dropped += pins.dropped
    # every capture method filled its 128 slots and dropped edges, and gpio-irq held more than the arrays show
    assert set(most_held) == set(dropped) == {"timer-capture-dma", "timer-capture-irq", "gpio-irq"}
    assert min(most_held.values()) >= 128 and most_held["gpio-irq"] > 128


def array_pokes(bench, line: str) -> dict:
    """The pokes into each trace array while ``line`` runs and the image is next read, each as
    its (first element, element count) within the array.

    A toggle's trace arrays are written when the image is next read, so a read runs the publish
    of the earlier lines before the recording starts and that of ``line`` inside it.
    """
    regs = bench.refdev.regs
    regs.read(0, 1)
    entries = [regs.map.lookup(name) for name in ARRAYS]
    pokes = {name: [] for name in ARRAYS}
    poke = regs.poke

    def recording_poke(offset, data):
        for entry in entries:
            start, stop = max(offset, entry.offset), min(offset + len(data), entry.offset + entry.size)
            if start < stop:
                first = (start - entry.offset) // entry.elem_size
                pokes[entry.name].append((first, (stop - start) // entry.elem_size))
        poke(offset, data)

    regs.poke = recording_poke
    try:
        bench.dut.handle_line(line)
        regs.read(0, 1)
    finally:
        del regs.poke
    return pokes


def whole_window(bench) -> dict:
    """One poke per array from its first element, of the ``min(held, slots)`` events shown."""
    shown = min(len(bench.trace.trace.buffer), bench.trace.slots)
    return {name: [(0, shown)] for name in ARRAYS}


def test_a_toggle_on_a_full_gpio_irq_capture_rewrites_the_shown_window(monkeypatch):
    bench = make_bench(seed=3)
    pins = PinWatch(bench, monkeypatch)
    bench.refdev.regs.poke_param("timer.mode.capture_method", GPIO_IRQ)
    bench.trace.reinit()
    bench.dut.handle_line("timer_trace 200 20000 0")
    assert len(bench.trace.trace.events) == 200
    assert array_pokes(bench, "gpio_toggle 1") == whole_window(bench) == {name: [(0, 128)] for name in ARRAYS}
    assert len(bench.trace.trace.events) == 201
    assert published(bench) == mirror(bench, pins)


@pytest.mark.parametrize("method", [1, GPIO_IRQ])
def test_a_toggle_on_a_trace_that_is_not_full_rewrites_the_shown_window(method, monkeypatch):
    bench = make_bench(seed=3)
    pins = PinWatch(bench, monkeypatch)
    bench.refdev.regs.poke_param("timer.mode.capture_method", method)
    bench.trace.reinit()
    bench.dut.handle_line("timer_trace 50 20000 0")
    assert len(bench.trace.trace.events) == 50
    assert array_pokes(bench, "gpio_toggle 1") == whole_window(bench) == {name: [(0, 51)] for name in ARRAYS}
    assert len(bench.trace.trace.events) == 51
    assert published(bench) == mirror(bench, pins)


@pytest.mark.parametrize(
    "method,before,line,shown",
    [
        (0, [], "gpio_toggle 1", 1),  # a rise under rising-only capture
        (0, ["gpio_toggle 1"], "gpio_toggle 1", 1),  # a fall, which it skips
        (1, ["timer_trace 50 20000 0"], "timer_trace 30 20000 1", 80),  # onto a partly filled window
        (1, ["timer_trace 120 20000 0"], "timer_trace 8 20000 1", 128),  # filling it exactly
        (1, ["timer_trace 200 20000 0"], "gpio_toggle 1", 128),  # onto a full window, which moves on by one
        (0, ["timer_trace 300 20000 0"], "timer_trace 20 20000 1", 128),  # ten rises onto a full window
    ],
    ids=["dma-rise", "dma-fall", "train-onto-a-partial-window", "train-filling-the-window",
         "toggle-onto-a-full-window", "dma-train-onto-a-full-window"],
)
def test_a_publish_pokes_the_whole_shown_window_of_each_array(method, before, line, shown, monkeypatch):
    """A publish writes each array's shown window whole, in one ``poke`` from its first element."""
    bench = make_bench(seed=5)
    pins = PinWatch(bench, monkeypatch)
    bench.refdev.regs.poke_param("timer.mode.capture_method", method)
    bench.trace.reinit()
    for earlier in before:
        bench.dut.handle_line(earlier)
    assert array_pokes(bench, line) == whole_window(bench) == {name: [(0, shown)] for name in ARRAYS}
    assert published(bench) == mirror(bench, pins)


def test_recorded_and_read_back_events_are_exactly_gpio_events():
    runner = SuiteRunner.local(RunConfig(seed=4))
    assert runner.phil.connect().ok
    dut = runner.bench.dut
    dut.handle_line("timer_trace 40 20000 0")
    dut.handle_line("gpio_toggle 1")
    held = runner.bench.trace.trace.events
    assert len(held) == 41
    assert {type(event) for event in held} == {GpioEvent}
    read = runner.read_trace()
    assert read == held
    assert {type(event) for event in read} == {GpioEvent}
    assert read[-1].pin == 1 and read[-1].level == 1 and read[-1].timestamp_ns == held[-1][2]
