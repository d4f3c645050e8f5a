"""A capture's round trip: replies written as text, and the trace read back in two requests.

Both devices write their reply lines without building and dumping a dictionary; every reply
must still be, byte for byte, what ``json.dumps`` writes for the same fields.
"""

import json
import random

import pytest

from hilsim.bench import Bench, BenchConfig
from hilsim.dut import _COMMANDS, FaultConfig
from hilsim.harness import RunConfig, SuiteRunner
from hilsim.harness.report import FAIL
from hilsim.harness.runner import read_trace
from hilsim.memmap import LayoutedMap, emit_csv
from hilsim.pal import RefDeviceClient
from hilsim.serve import serve_tcp
from hilsim.sim.gpio import GpioEvent

TRACE_ARRAYS = ("trace.source", "trace.value", "trace.tick")
METHOD_CODES = {"timer-capture-dma": 0, "timer-capture-irq": 1, "gpio-irq": 2}


# -- reference-device replies -------------------------------------------


def test_rr_replies_are_the_json_dumps_of_their_bytes():
    rng = random.Random(18)
    bench = Bench(BenchConfig(seed=18))
    regs = bench.refdev.regs
    regs.poke(0, bytes(rng.randrange(256) for _ in range(regs.total_size)))
    for _ in range(400):
        size = rng.randint(1, 512)
        offset = rng.randrange(regs.total_size - size + 1)
        data = regs.read(offset, size)
        payload = data[0] if size == 1 else list(data)
        assert bench.refdev.handle_line(f"rr {offset} {size}") == json.dumps({"data": payload, "result": 0})


# -- DUT replies --------------------------------------------------------


def dut_reply(faults=None, setup=(), line=""):
    bench = Bench(BenchConfig(seed=4, faults=faults))
    for earlier in setup:
        bench.dut.handle_line(earlier)
    return bench.dut.handle_line(line)


@pytest.mark.parametrize(
    "faults,setup,line,fields",
    [
        (None, (), "sync", {"result": "Success"}),
        (None, (), "  i2c_init  ", {"result": "Success"}),
        (None, ("i2c_init", "i2c_write_reg 85 0 17 34"), "i2c_read_reg 85 0 2",
         {"data": [17, 34], "result": "Success"}),
        (None, (), "get_metadata", {"data": "dut_periph 0.1.0", "result": "Success"}),
        (None, (), "timer_trace 4 20000 0", {"result": "Success", "data": 4}),
        (None, ("i2c_init",), "i2c_read_reg 99 0 1", {"data": -6, "result": "Error", "error_code": -6}),
        (FaultConfig(swallow_error_return=True), ("i2c_init",), "i2c_read_reg 99 0 1",
         {"data": 0, "result": "Success"}),
        (FaultConfig(stop_while_busy_hang=True), ("i2c_init", "i2c_write_reg 85 0 1"), "i2c_write_reg 85 0 2",
         {"result": "Timeout"}),
        (None, (), "frobnicate 1", {"result": "Error", "error_code": -22, "data": -22}),
        (None, (), "gpio_toggle x", {"result": "Error", "error_code": -22}),
        (None, (), "", {"data": -22, "result": "Error", "error_code": -22}),
        (None, (), "gpio_toggle é", {"result": "Error", "error_code": -22}),
        (None, (), "ünknown \"quoted\" \\ \t tab", {"result": "Error", "error_code": -22, "data": -22}),
    ],
    ids=["success", "success-stripped", "success-with-data", "string-data", "data-after-result", "error",
         "swallowed-error", "timeout", "unknown-command", "bad-argument", "empty-line", "non-ascii-argument",
         "non-ascii-command"],
)
def test_dut_replies_are_the_json_dumps_of_their_fields(faults, setup, line, fields):
    reply = dut_reply(faults, setup, line)
    assert reply == json.dumps({"cmd": [line.strip()], **fields})


def test_no_dut_handler_answers_a_cmd_field_or_no_fields():
    """The reply text puts the command line first and the handler's fields after it: a handler
    answering ``cmd``, or no fields at all, would break the match with json.dumps."""
    bench = Bench(BenchConfig(seed=4))
    lines = ["sync", "reset", "get_metadata", "i2c_init", "i2c_read_reg 85 0 1", "i2c_write_reg 85 0 1",
             "i2c_read_bytes 85 2", "i2c_write_bytes 85 1", "spi_init 0", "spi_transfer 1 0", "uart_init",
             "uart_write 65", "gpio_set 0 1", "gpio_toggle 0", "timer_bench 2 1000 0", "timer_trace 2 20000 0"]
    assert {line.split()[0] for line in lines} == set(_COMMANDS)
    for line in lines:
        fields = bench.dut._dispatch(line)
        assert fields["result"] == "Success" and "cmd" not in fields, line


@pytest.mark.parametrize("word", ["frobnicate", "handle_line", "_dispatch", "__init__", "cmd_sync", "SYNC"])
def test_a_command_no_handler_serves_is_einval_and_parses_no_argument(bench, word):
    line = f"{word} zz"
    assert bench.dut.handle_line(line) == json.dumps({"cmd": [line], "result": "Error", "error_code": -22, "data": -22})


# -- the trace read back ------------------------------------------------


class CountingTransport:
    def __init__(self, device):
        self.device = device
        self.lines = []

    def request(self, line):
        self.lines.append(line)
        return self.device.handle_line(line)

    def close(self):
        pass


def per_entry_trace(client):
    """The trace read one element of one array per request."""
    count = client.read_reg("trace.index").data[0]
    return [GpioEvent(*(client.read_reg(name, i).data[0] for name in TRACE_ARRAYS)) for i in range(count)]


def capture(method, edges):
    """A local runner whose trace holds a capture of ``edges`` edges 20 µs apart on pin 0."""
    runner = SuiteRunner.local(RunConfig(seed=11))
    assert runner.phil.connect().ok
    assert runner.phil.write_and_execute("timer.mode.capture_method", METHOD_CODES[method]).ok
    runner.clear_trace()
    if edges:
        assert runner.dut.timer_trace(edges, 20_000, 0)["result"] == "Success"
    return runner


@pytest.mark.parametrize("method", sorted(METHOD_CODES))
@pytest.mark.parametrize("count", [0, 1, 2, 64, 128])
def test_read_trace_takes_two_requests_and_reads_what_per_entry_reads_read(method, count):
    # the timer DMA capture keeps rising edges only
    runner = capture(method, 2 * count - 1 if method == "timer-capture-dma" and count else count)
    counting = CountingTransport(runner.bench.refdev)
    runner.phil.transport = counting
    events = runner.read_trace()
    assert len(events) == count
    assert len(counting.lines) == (2 if count else 1)
    assert events == per_entry_trace(runner.phil)


@pytest.mark.parametrize("method", ["timer-capture-dma", "timer-capture-irq"])
def test_a_shifted_full_window_reads_back_as_the_latest_held_events(method):
    runner = capture(method, 300)
    for edges in (1, 2, 31, 128):  # each train moves the full window on: its oldest events drop out
        assert runner.dut.timer_trace(edges, 20_000, 1)["result"] == "Success"
        assert runner.dut.gpio_toggle(2)["result"] == "Success"
    held = runner.bench.trace.trace.events
    assert len(held) == runner.bench.trace.slots
    events = runner.read_trace()
    assert events == per_entry_trace(runner.phil)
    assert events == [(pin, level, t & 0xFFFFFFFF) for pin, level, t in held]


def test_read_regs_refuses_entries_that_do_not_follow_each_other(bench):
    layout = bench.refdev.regs.map
    client = RefDeviceClient(CountingTransport(bench.refdev), LayoutedMap.from_csv(emit_csv(layout), layout.version))
    result = client.read_regs(("trace.source", "trace.tick"), 4)
    assert not result.ok and "trace.tick does not follow trace.source" in result.error
    assert not client.read_regs(("trace.source", "trace.value"), 129).ok
    assert client.transport.lines == []


def test_read_regs_from_an_index_decodes_each_entry_from_its_own_element(bench):
    layout = bench.refdev.regs.map
    names = ("trace.source", "trace.value", "trace.tick")
    first, last = layout.lookup(names[0]), layout.lookup(names[-1])
    rng = random.Random(9)
    bench.refdev.regs.poke(first.offset, bytes(rng.randrange(256) for _ in range(last.offset + last.size - first.offset)))
    client = RefDeviceClient(CountingTransport(bench.refdev), LayoutedMap.from_csv(emit_csv(layout), layout.version))
    result = client.read_regs(names, 3, index=5)
    start, end = first.element_offset(5, 3), last.element_offset(5, 3) + 3 * last.elem_size
    assert result.ok and client.transport.lines == [f"rr {start} {end - start}"]
    assert result.data == [client.read_reg(name, 5, 3).data for name in names]
    assert result.data == [bench.refdev.regs.read_param(name, 5, 3) for name in names]


def test_the_tcp_read_back_equals_the_in_process_one():
    runner = capture("timer-capture-irq", 300)
    layout = runner.bench.refdev.regs.map
    server = serve_tcp(runner.bench.refdev)
    server.serve_background()
    try:
        remote = RefDeviceClient(server.endpoint, LayoutedMap.from_csv(emit_csv(layout), layout.version))
        assert remote.connect().ok
        try:
            assert read_trace(remote) == runner.read_trace() != []
        finally:
            remote.transport.close()
    finally:
        server.shutdown()
        server.server_close()


# -- dispatch -----------------------------------------------------------


@pytest.mark.parametrize("op", ["nope", "check_response", "", 5, None, ["dut"], {"op": "dut"}])
def test_an_unknown_step_op_fails_its_case(op):
    runner = SuiteRunner.local(RunConfig(seed=1))
    result = runner.run_case({"id": "unknown", "steps": [{"op": op}]})
    assert (result.verdict, result.reason) == (FAIL, f"unknown step op {op!r}")


@pytest.mark.parametrize(
    "case,reason",
    [
        ({"id": "c", "steps": [{"op": "dut", "args": [0]}]}, """missing 'cmd' in {"op": "dut", "args": [0]}"""),
        ({"id": "c", "steps": [{"op": "ref_read", "count": 1}]}, """missing 'name' in {"op": "ref_read", "count": 1}"""),
        ({"id": "c", "steps": [{"cmd": "sync"}]}, """missing 'op' in {"cmd": "sync"}"""),
        ({"id": "c", "category": "usage"}, """missing 'steps' in {"id": "c", "category": "usage"}"""),
    ],
    ids=["dut-without-cmd", "ref-read-without-name", "step-without-op", "case-without-steps"],
)
def test_a_manifest_entry_without_a_key_fails_its_case_naming_the_key(case, reason):
    runner = SuiteRunner.local(RunConfig(seed=1))
    result = runner.run_case(case)
    assert (result.verdict, result.reason) == (FAIL, reason)
