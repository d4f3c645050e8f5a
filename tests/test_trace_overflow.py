"""The trace arrays hold at most their 128 slots; later captures count as overruns."""

from hilsim.harness import RunConfig, SuiteRunner
from hilsim.reference import reference_layout

GPIO_IRQ = 2  # timer.mode.capture_method code of the unbounded capture method


def test_gpio_irq_capture_past_the_trace_arrays_counts_overruns():
    runner = SuiteRunner.local(RunConfig(seed=5))
    regs = runner.bench.refdev.regs
    layout = reference_layout()
    slots = layout.lookup("trace.source").array_len
    res_0 = layout.lookup("trace.res_0")
    assert runner.phil.connect().ok
    assert runner.phil.write_and_execute("timer.mode.capture_method", GPIO_IRQ).ok
    runner.clear_trace()

    assert runner.dut.timer_trace(400, 20000, 0)["result"] == "Success"

    captured = runner.bench.trace.trace
    events = captured.events
    assert len(events) == 400
    assert regs.total_size == layout.total_size == 2048
    assert regs.read(res_0.offset, res_0.size) == layout.default_image[res_0.offset : res_0.offset + res_0.size]
    assert runner.phil.read_reg("trace.index").data == [slots]
    assert runner.read_trace() == events[:slots]  # simulated time is still below 2^32 ns
    overruns = captured.overrun_count + len(events) - slots
    assert runner.phil.read_reg("trace.overrun_count").data == [overruns]
    assert runner.phil.read_reg("timer.overrun_count").data == [overruns]
