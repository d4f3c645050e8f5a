"""One module re-init: an init flag returns its module's read-only registers to the default image."""

import pytest

from hilsim.pal import SUCCESS, DutClient
from hilsim.refdev import RegisterFile
from hilsim.sim.gpio import CAPTURE_METHODS
from hilsim.sim.trace import GPIO_MODULES, TraceUnit

from conftest import make_bench
from test_pal_guards import connected_client

GPIO_IRQ = 2  # timer.mode.capture_method code


def test_read_only_spans_cover_exactly_each_modules_read_only_entries(bench):
    layout = bench.refdev.regs.map
    for module, spans in layout.read_only_spans.items():
        covered = {i for span in spans for i in range(span.start, span.stop)}
        expected = {
            i
            for e in layout.module_entries(module)
            if e.access == "read-only"
            for i in range(e.offset, e.offset + e.size)
        }
        assert covered == expected, module


# a timer or trace init also drops the pin accounting the trace publishes into gpio0-2
TRACE_MODULES = ("timer", "trace", *GPIO_MODULES)
# timer registers that a timer or trace init sets to the capture method's envelope after the restore
CAPTURE_ENVELOPE = {"timer.min_tick": "t_min_ns", "timer.min_holdoff": "t_jitter_ns"}


@pytest.mark.parametrize(
    "module,write",
    [("i2c", "i2c.mode.init"), ("spi", "spi.mode.cpha"), ("uart", "uart.mode.init"), ("sys", "sys.mode.init")]
    + [(f"gpio{i}", f"gpio{i}.mode.init") for i in range(3)]
    + [("timer", "timer.mode.init"), ("trace", "trace.mode.init")],
)
def test_an_init_restores_every_read_only_byte_of_its_module_and_no_other(bench, module, write):
    regs = bench.refdev.regs
    layout = regs.map
    for entry in layout.entries:
        if entry.access == "read-only":
            regs.poke(entry.offset, b"\x5a" * entry.size)
    dirty = bytes(regs.committed)
    client, _ = connected_client(bench)
    assert client.write_and_execute(write, 1).ok
    restored = TRACE_MODULES if module in ("timer", "trace") else (module,)
    for entry in layout.entries:
        if entry.access != "read-only":
            continue
        span = slice(entry.offset, entry.offset + entry.size)
        if entry.name in CAPTURE_ENVELOPE and module in ("timer", "trace"):
            expected = entry.pack(getattr(bench.trace.method, CAPTURE_ENVELOPE[entry.name]))
        elif entry.name.split(".")[0] in restored:
            expected = layout.default_image[span]
        else:
            expected = dirty[span]
        assert regs.committed[span] == expected, entry.name


def test_a_gpio_init_forgets_the_edges_the_pin_counted(bench):
    client, _ = connected_client(bench)
    dut = DutClient(bench.dut)
    for _ in range(3):
        assert dut.gpio_toggle(0)["result"] == SUCCESS
    assert client.read_reg("gpio0.edge_count").data == [3]
    assert client.write_and_execute("gpio0.mode.init", 1).ok
    for name in ("edge_count", "status.level", "rise_ticks", "fall_ticks"):
        assert client.read_reg(f"gpio0.{name}").data == [0], name
    # counting starts again from the restored count
    assert dut.gpio_toggle(0)["result"] == SUCCESS
    assert client.read_reg("gpio0.edge_count").data == [1]


def test_write_and_execute_of_an_init_flag_sends_it_once(bench):
    client, wire = connected_client(bench)
    offset = bench.refdev.regs.map.lookup("trace.mode.init").offset
    result = client.write_and_execute("trace.mode.init", 1)
    assert result.ok
    assert wire.lines == result.cmd == [f"wr {offset} 1", "ex"]


def test_write_and_execute_of_a_module_with_no_init_flag_commits_the_write_alone(bench):
    client, wire = connected_client(bench)
    regs = bench.refdev.regs
    offset = regs.map.lookup("user_reg.user_reg").offset
    result = client.write_and_execute("user_reg.user_reg", 7)
    assert result.ok
    assert wire.lines == result.cmd == [f"wr {offset} 7", "ex"]
    # committed by this execute: nothing is left staged for the next one
    assert regs.staged == []
    assert regs.read(offset, 1) == b"\x07"


def test_a_trace_init_equals_a_timer_init(bench):
    client, _ = connected_client(bench)
    assert client.write_reg("timer.mode.capture_method", GPIO_IRQ).ok
    assert client.write_and_execute("trace.mode.init", 1).ok
    method = CAPTURE_METHODS["gpio-irq"]
    assert bench.trace.method == method
    assert client.read_reg("timer.min_tick").data == [method.t_min_ns]


def test_timer_and_trace_share_one_reinit_that_runs_once(monkeypatch):
    calls = []
    original = TraceUnit.reinit

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(TraceUnit, "reinit", counted)
    bench = make_bench()
    calls.clear()
    bench.reset()
    assert len(calls) == 1
    client, _ = connected_client(bench)
    assert client.write_reg("timer.mode.init", 1).ok
    assert client.write_reg("trace.mode.init", 1).ok
    assert client.execute().ok
    assert len(calls) == 2
    assert client.write_and_execute("trace.mode.init", 1).ok
    assert len(calls) == 3


def test_a_reset_restores_only_the_pin_accounting_and_an_execute_each_raised_module_once(monkeypatch):
    restored = []
    original = RegisterFile.restore

    def recorded(self, *modules):
        restored.extend(modules)
        original(self, *modules)

    monkeypatch.setattr(RegisterFile, "restore", recorded)
    bench = make_bench()
    restored.clear()
    bench.reset()
    # the default image is in place: the trace unit's re-init restores its pin accounting, no
    # hook restores its own module again
    assert restored == list(GPIO_MODULES)
    restored.clear()
    client, _ = connected_client(bench)
    for flag in ("i2c.mode.init", "timer.mode.init", "trace.mode.init"):
        assert client.write_reg(flag, 1).ok
    assert client.execute().ok
    assert sorted(restored) == sorted(("i2c", *TRACE_MODULES))
