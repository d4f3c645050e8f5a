"""Clock, scheduler, bus models, and GPIO capture."""

import random

import pytest

from hilsim.sim.bus import I2C_BITS_PER_BYTE, SPI_BITS_PER_BYTE, UART_BITS_PER_BYTE
from hilsim.sim.clock import EventScheduler, SimClock
from hilsim.sim.gpio import CAPTURE_METHODS, CaptureMethod, GpioEvent, GpioTrace

from conftest import make_bench


# -- clock / scheduler --------------------------------------------------


def test_clock_rejects_backwards_motion():
    clock = SimClock()
    clock.advance_to(100)
    with pytest.raises(ValueError):
        clock.advance_to(99)
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_scheduler_orders_by_time_then_submission():
    sched = EventScheduler()
    fired = []
    sched.schedule_at(20, lambda: fired.append("b"))
    sched.schedule_at(10, lambda: fired.append("a"))
    sched.schedule_at(20, lambda: fired.append("c"))
    sched.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert sched.clock.now == 20
    assert sched.pending == 0


def test_scheduler_rejects_past():
    sched = EventScheduler()
    sched.clock.advance_to(50)
    with pytest.raises(ValueError):
        sched.schedule_at(49, lambda: None)


def test_a_raising_callback_drops_the_rest_of_its_run():
    sched = EventScheduler()
    fired = []

    def boom():
        raise RuntimeError("synthetic handler failure")

    sched.schedule_at(10, boom)
    sched.schedule_at(20, lambda: fired.append(1))
    sched.schedule_at(30, lambda: fired.append(2))
    with pytest.raises(RuntimeError, match="synthetic"):
        sched.run_until_idle()
    assert sched.pending == 0 and fired == []
    # the scheduler still runs what is queued after the failed run
    sched.schedule_at(40, lambda: fired.append(3))
    sched.run_until_idle()
    assert fired == [3] and sched.clock.now == 40


# -- bus timing closed forms --------------------------------------------


def published_duration(bench, module: str) -> int:
    """The last frame's duration, from the start and stop times the module publishes."""
    regs = bench.refdev.regs
    return regs.read_param(f"{module}.stop_time") - regs.read_param(f"{module}.start_time")


def test_i2c_duration_closed_form():
    bench = make_bench()
    bench.i2c.read_reg(85, 0, 1, 100_000)
    # wire bytes: 1 pointer + 1 data, plus the address byte, 9 bits each
    expected = round(I2C_BITS_PER_BYTE * 3 * 1e9 / 100_000)
    assert published_duration(bench, "i2c") == expected


def test_i2c_clock_stretch_adds_to_duration():
    bench = make_bench()
    bench.refdev.regs.poke_param("i2c.clk_stretch_delay", 5_000)
    bench.i2c.reinit()
    base = round(I2C_BITS_PER_BYTE * 3 * 1e9 / 100_000)
    bench.i2c.read_reg(85, 0, 1, 100_000)
    assert published_duration(bench, "i2c") == base + 5_000


def test_spi_duration_closed_form():
    bench = make_bench()
    bench.spi.transfer(bytes([5, 0, 0, 0]), 1_000_000, 0)
    assert published_duration(bench, "spi") == round(SPI_BITS_PER_BYTE * 4 * 1e9 / 1_000_000)


def test_uart_100_bytes_at_115200_takes_8_68_ms():
    bench = make_bench()
    start = bench.clock.now
    reply = bench.uart.process(bytes(100), 115_200).data
    # UART publishes no times: the clock advances by the received frame, then the echoed reply
    rx_ns = bench.clock.now - start - round(UART_BITS_PER_BYTE * len(reply) * 1e9 / 115_200)
    # 100 bytes x 10 bits on the wire
    assert rx_ns == round(UART_BITS_PER_BYTE * 100 * 1e9 / 115_200)
    assert rx_ns == pytest.approx(8_680_000, rel=1e-3)


def test_bitrate_range_enforced():
    bench = make_bench()
    with pytest.raises(ValueError, match="outside supported range"):
        bench.i2c.read_reg(85, 0, 1, 1_000_000)
    with pytest.raises(ValueError, match="outside supported range"):
        bench.uart.process(b"x", 1200)


# -- speed estimation ---------------------------------------------------


def test_speed_estimation_exact_without_injection():
    rng = random.Random(13)
    bench = make_bench()
    regs = bench.refdev.regs
    for _ in range(300):
        kind = rng.choice(("i2c", "spi", "uart"))
        if kind == "i2c":
            rate = rng.choice((10_000, 100_000, 400_000))
            bench.i2c.read_reg(85, rng.randrange(32), rng.randint(1, 8), rate)
            estimate = regs.read_param("i2c.speed_hz")
        elif kind == "spi":
            rate = rng.choice((100_000, 1_000_000, 5_000_000))
            bench.spi.transfer(bytes(rng.randint(2, 9)), rate, 0)
            estimate = regs.read_param("spi.speed_hz")
        else:
            # UART publishes no speed: estimate it from the clock's advance over both frames
            rate = rng.choice((9_600, 57_600, 115_200))
            start = bench.clock.now
            data = bytes(rng.randint(1, 32))
            reply = bench.uart.process(data, rate).data
            estimate = UART_BITS_PER_BYTE * (len(data) + len(reply)) * 1e9 / (bench.clock.now - start)
        assert estimate == pytest.approx(rate, rel=0.05)


def test_speed_published_to_registers():
    bench = make_bench()
    bench.i2c.read_reg(85, 0, 2, 400_000)
    assert bench.refdev.regs.read_param("i2c.speed_hz") == pytest.approx(400_000, rel=0.05)


# -- i2c counters and faults at the model level -------------------------


def test_i2c_counters_on_read():
    bench = make_bench()
    bench.i2c.read_reg(85, 0, 1, 100_000)
    regs = bench.refdev.regs
    assert regs.read_param("i2c.r_count") == 1
    assert regs.read_param("i2c.w_count") == 1  # the register-pointer byte


def test_i2c_nack_paths_count_errors_only():
    bench = make_bench()
    regs = bench.refdev.regs
    result = bench.i2c.read_reg(99, 0, 1, 100_000)
    assert result.status == "addr-nack"
    regs.poke_param("i2c.mode.nack_data", 1)
    regs.poke_param("i2c.mode.init", 1)
    bench.refdev.execute()
    result = bench.i2c.read_reg(85, 0, 1, 100_000)
    assert result.status == "data-nack"
    assert regs.read_param("i2c.nack_count") == 1  # the re-init cleared the first
    assert regs.read_param("i2c.err_count") == 1
    assert regs.read_param("i2c.r_count") == 0


def test_i2c_16_bit_register_pointer():
    bench = make_bench()
    regs = bench.refdev.regs
    regs.poke_param("i2c.mode.reg_16_bit", 1)
    bench.i2c.reinit()
    bench.i2c.write_reg(85, 3, b"\x63", 100_000)
    # pointer now addresses 2-byte cells in the user window
    window = regs.map.lookup("user_reg.user_reg").offset
    assert regs.read(window + 6, 1) == b"\x63"
    assert regs.read_param("i2c.w_count") == 3  # 2 pointer bytes + 1 data


# -- capture envelope ---------------------------------------------------


@pytest.mark.parametrize("kind", sorted(CAPTURE_METHODS))
def test_capture_min_spacing_and_jitter(kind):
    """Fuzzed edges: drops below t_min, jitter bounded, alternation kept."""
    method = CAPTURE_METHODS[kind]
    trace = GpioTrace(method, seed=3)
    rng = random.Random(4)
    t, level = 0, 0
    physical = []  # (t, level, kept)
    for _ in range(5_000):
        t += rng.randint(1, 3 * method.t_min_ns)
        level = 1 - level
        kept = trace.record_train(0, level, (t,))[0]
        physical.append((t, level, kept))

    kept_events = trace.events
    # jitter bound: each kept event within t_jitter of some physical edge
    kept_truth = [(pt, lv) for pt, lv, k in physical if k]
    if method.buffer_len is not None:
        assert len(kept_events) <= method.buffer_len
        kept_truth = kept_truth[-len(kept_events):]
    for event, (pt, lv) in zip(kept_events, kept_truth):
        assert abs(event.timestamp_ns - pt) <= method.t_jitter_ns
        assert event.level == lv

    # min spacing on accepted physical times
    accepted_times = [pt for pt, _, k in physical if k]
    for a, b in zip(accepted_times, accepted_times[1:]):
        assert b - a >= method.t_min_ns

    # every dropped edge is accounted as an overrun (rising-only filtering aside)
    candidates = [
        (pt, lv) for pt, lv, _ in physical
        if not (method.edges == "rising-only" and lv != 1)
    ]
    assert trace.overrun_count == len(candidates) - len(accepted_times)


def reference_record(trace: GpioTrace, pin: int, level: int, t_ns: int) -> str:
    """One edge through the per-edge capture ``record_train`` replaced, drawing with ``randint``.

    Returns what became of the edge: ``kept``, ``skipped``, ``too-fast`` or ``repeated``.
    """
    method = trace.method
    if method.edges == "rising-only" and level != 1:
        return "skipped"
    last_t = trace._last_accept_ns.get(pin)
    last_level = trace._last_level.get(pin)
    if last_t is not None and t_ns - last_t < method.t_min_ns:
        trace.overrun_count += 1
        return "too-fast"
    if last_level is not None and method.edges == "both" and level == last_level:
        trace.overrun_count += 1
        return "repeated"
    jitter = method.t_jitter_ns
    perturbed = t_ns + trace._rng.randint(-jitter, jitter)
    trace.buffer.append(GpioEvent(pin=pin, level=level, timestamp_ns=max(perturbed, 0)))
    trace._last_accept_ns[pin] = t_ns
    trace._last_level[pin] = level
    trace.kept += 1
    return "kept"


@pytest.mark.parametrize("kind", sorted(CAPTURE_METHODS))
def test_a_train_records_what_the_per_edge_reference_records(kind):
    method = CAPTURE_METHODS[kind]
    fast, reference = GpioTrace(method, seed=5), GpioTrace(method, seed=5)
    rng = random.Random(kind)
    outcomes = set()
    t = 0
    for _ in range(400):
        pin, level = rng.randrange(3), rng.randrange(2)
        times = []
        for _ in range(rng.randint(1, 40)):
            t += rng.choice((0, rng.randrange(2 * method.t_min_ns), rng.randrange(method.t_min_ns, 4 * method.t_min_ns)))
            times.append(t)
        expected = [0, None, None]  # kept, last kept rise time, last kept fall time
        for k, time in enumerate(times):
            edge = level ^ (k & 1)
            outcome = reference_record(reference, pin, edge, time)
            outcomes.add(outcome)
            if outcome == "kept":
                expected[0] += 1
                expected[2 - edge] = time
        assert fast.record_train(pin, level, times) == tuple(expected)
        assert list(fast.buffer) == list(reference.buffer)
        assert (fast.kept, fast.overrun_count) == (reference.kept, reference.overrun_count)
        assert fast._rng.getstate() == reference._rng.getstate()
    both = {"kept", "too-fast", "repeated"}
    assert outcomes == (both if method.edges == "both" else {"kept", "too-fast", "skipped"})


@pytest.mark.parametrize("jitter", [0, 28, 200, 600])
def test_the_jitter_draw_equals_randint(jitter):
    trace = GpioTrace(CaptureMethod("spaced", 1, jitter, "both", None), seed=9)
    times = range(10**6, 10**6 + 10_000)
    trace.record_train(0, 1, times)
    reference = random.Random(9)
    assert [e.timestamp_ns - t for e, t in zip(trace.buffer, times)] == [
        reference.randint(-jitter, jitter) for _ in times
    ]
    assert trace._rng.getstate() == reference.getstate()


def test_capture_both_edges_alternate():
    trace = GpioTrace(CAPTURE_METHODS["timer-capture-irq"], seed=0)
    t = 0
    # second edge of each pair arrives too fast and is dropped; the third
    # repeats the first's level and must be rejected to keep alternation
    for level, dt in ((1, 10_000), (0, 10), (1, 10_000), (0, 10_000)):
        t += dt
        trace.record_train(0, level, (t,))
    levels = [e.level for e in trace.events]
    assert levels == [1, 0]
    assert trace.overrun_count == 2


def test_capture_rising_only_ignores_falling():
    trace = GpioTrace(CAPTURE_METHODS["timer-capture-dma"], seed=0)
    t = 0
    for level in (1, 0, 1, 0, 1):
        t += 1_000
        trace.record_train(0, level, (t,))
    assert [e.level for e in trace.events] == [1, 1, 1]
    assert trace.overrun_count == 0  # falling edges are filtered, not dropped


def test_capture_buffer_overwrites_oldest():
    method = CAPTURE_METHODS["timer-capture-irq"]
    trace = GpioTrace(method, seed=0)
    t, level = 0, 0
    for _ in range(method.buffer_len + 10):
        t += method.t_min_ns
        level = 1 - level
        trace.record_train(0, level, (t,))
    assert len(trace.events) == method.buffer_len
    # oldest ten physical edges were overwritten
    assert trace.events[0].timestamp_ns > 10 * method.t_min_ns - method.t_jitter_ns


def test_gpio_irq_unbounded():
    trace = GpioTrace(CAPTURE_METHODS["gpio-irq"], seed=0)
    t, level = 0, 0
    for _ in range(300):
        t += 20_000
        level = 1 - level
        trace.record_train(0, level, (t,))
    assert len(trace.events) == 300


def test_trace_reinit_drops_captures_and_replays_jitter():
    bench = make_bench(seed=1)
    bench.refdev.regs.poke_param("timer.mode.capture_method", 1)  # timer-capture-irq
    unit = bench.trace
    unit.reinit()
    bench.clock.advance_to(10_000)
    unit.record_edge(0, 1)
    unit.record_edge(0, 1)  # same level again: an overrun
    first = unit.trace.events[0].timestamp_ns
    assert unit.trace.overrun_count == 1
    unit.reinit()
    assert unit.trace.events == [] and unit.trace.overrun_count == 0
    unit.record_edge(0, 1)
    assert unit.trace.events[0].timestamp_ns == first  # seeded jitter replays
