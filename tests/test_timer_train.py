"""A timer command records its toggle train in one pass, with the registers, capture and clock
that recording its edges one by one, in time order, gives."""

import json

import pytest

from hilsim.dut import COMMAND_OVERHEAD_NS, HANDLER_OVERHEAD_NS

from conftest import make_bench

METHODS = {0: "timer-capture-dma", 1: "timer-capture-irq", 2: "gpio-irq"}  # timer.mode.capture_method codes
PERIODS = (0, 300, 1_500, 12_000, 40_000)  # ns
PPMS = (0.0, 150.0, -150.0)
COUNTS = {"timer_trace": 200, "timer_bench": 150}  # both past the 128 trace slots
U32 = 1 << 32
U16 = 1 << 16


def cmd(bench, line):
    return json.loads(bench.dut.handle_line(line))


def capture_bench(method: int, ppm: float = 0.0):
    bench = make_bench(seed=11, dut_clock_ppm_error=ppm)
    bench.refdev.regs.poke_param("timer.mode.capture_method", method)
    bench.trace.reinit()
    return bench


def fire_times(command: str, now: int, n: int, period_ns: int, ppm: float) -> list[int]:
    """When the DUT's handlers fire, in the order they fire."""
    def dut(interval):
        return round(interval * (1.0 + ppm / 1e6))

    if command == "timer_trace":
        times = [now + dut(k * period_ns) + HANDLER_OVERHEAD_NS for k in range(1, n + 1)]
    else:
        times = [now + dut(period_ns) + (i + 1) * HANDLER_OVERHEAD_NS for i in range(n)]
    return sorted(times)


def state(bench) -> tuple:
    capture = bench.trace.trace
    return bytes(bench.refdev.regs.committed), capture.events, capture.overrun_count, capture.kept, bench.clock.now


@pytest.mark.parametrize("ppm", PPMS)
@pytest.mark.parametrize("command", sorted(COUNTS))
@pytest.mark.parametrize("method", sorted(METHODS), ids=METHODS.values())
def test_a_timer_train_leaves_what_recording_its_edges_one_by_one_leaves(method, command, ppm):
    n = COUNTS[command]
    for period in PERIODS:
        ran, replayed = capture_bench(method, ppm), capture_bench(method, ppm)
        level = 0
        # the second train starts from the first's level, capture spacing and registers
        for pin in (0, 0, 1):
            assert cmd(ran, f"{command} {n} {period} {pin}")["result"] == "Success"
            replayed.clock.advance(COMMAND_OVERHEAD_NS)
            start = level if pin == 0 else 0
            for t in fire_times(command, replayed.clock.now, n, period, ppm):
                replayed.clock.advance_to(t)
                start ^= 1
                replayed.trace.record_edge(pin, start)
            replayed.trace.publish()
            if pin == 0:
                level = start
            assert state(ran) == state(replayed), (METHODS[method], command, period, ppm, pin)
    if method == 2:
        assert len(ran.trace.trace.events) > ran.trace.slots


def test_a_train_due_before_now_is_einval_and_leaves_nothing_behind():
    # a DUT clock running backwards puts the later handlers of this train in the past
    bench = make_bench(dut_clock_ppm_error=-1.5e6)
    image, now = bytes(bench.refdev.regs.committed), bench.clock.now
    assert cmd(bench, "timer_trace 200 1000 0")["error_code"] == -22
    assert bytes(bench.refdev.regs.committed) == image
    assert bench.clock.now == now + COMMAND_OVERHEAD_NS
    assert bench.trace.trace.kept == 0
    # a train the same clock can time still runs, on its own
    assert cmd(bench, "timer_bench 1 0 0")["result"] == "Success"
    assert bench.trace.trace.kept == 1
    assert bench.refdev.regs.read_param("gpio0.edge_count") == 1


@pytest.mark.parametrize("line,kept", [("gpio_toggle 0", 1), ("timer_trace 10 40000 0", 10)])
def test_edge_count_wraps_at_its_width_and_the_edges_are_published(line, kept):
    bench = capture_bench(1)
    regs = bench.refdev.regs
    regs.poke_param("gpio0.edge_count", U32 - 1)
    assert cmd(bench, line)["result"] == "Success"
    assert bench.trace.trace.kept == kept
    assert regs.read_param("gpio0.edge_count") == (U32 - 1 + kept) % U32
    assert regs.read_param("trace.index") == kept
    assert regs.read_param("gpio0.status.level") == kept % 2


@pytest.mark.parametrize("line", ["gpio_set 0 1", "timer_trace 10 300 0"])
def test_overrun_count_counts_the_pins_dropped_edges_and_wraps_at_its_width(line):
    bench = capture_bench(1)
    regs = bench.refdev.regs
    assert cmd(bench, "gpio_set 0 1")["result"] == "Success"  # kept: a rise at the same level drops
    regs.poke_param("gpio0.overrun_count", U16 - 1)
    assert cmd(bench, line)["result"] == "Success"
    dropped = bench.trace.trace.overrun_count
    assert dropped >= 1
    assert regs.read_param("gpio0.overrun_count") == (U16 - 1 + dropped) % U16
    assert regs.read_param("gpio1.overrun_count") == 0
