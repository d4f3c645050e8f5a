"""A toggle burst publishes its trace once, when the register image is next read.

Single edges write their pin's registers but leave the trace counters and arrays unwritten,
and mark the register file with the trace unit's ``publish``; ``RegisterFile.read`` runs it.
Every reply and every image a client can see equals that of a bench that publishes after
each DUT line.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hilsim
from hilsim.pal import TcpTransport
from hilsim.refdev import Field, RegisterFile
from hilsim.sim.trace import TraceUnit

from conftest import make_bench

PERIODS = (300, 1_500, 12_000, 40_000)  # ns; the shorter ones overrun a capture method
# the modules whose registers the trace unit publishes, or whose re-init touches them
TRACED_MODULES = ("gpio0", "gpio1", "gpio2", "timer", "trace")
COUNTERS = ("trace.index", "trace.overrun_count", "timer.event_count", "timer.overrun_count")
ARRAYS = ("trace.source", "trace.value", "trace.tick")


def module_span(layout, module: str) -> range:
    entries = [e for e in layout.entries if e.name.startswith(module + ".")]
    return range(min(e.offset for e in entries), max(e.offset + e.size for e in entries))


def random_lines(rng: random.Random, layout) -> list[str]:
    """One step: DUT lines, reference-device lines, or ``["reset"]`` for ``Bench.reset()``."""
    kind = rng.randrange(12)
    pin = rng.randrange(3)
    if kind < 3:
        return [f"gpio_toggle {pin}"] * rng.randint(1, 40)
    if kind == 3:
        return [f"gpio_set {pin} {rng.randrange(2)}"] * rng.randint(1, 3)
    if kind == 4:
        return [f"timer_trace {rng.randint(1, 200)} {rng.choice(PERIODS)} {pin}"]
    if kind == 5:
        return [f"timer_bench {rng.randint(1, 30)} {rng.choice(PERIODS)} {pin}"]
    if kind < 8:
        span = module_span(layout, rng.choice(TRACED_MODULES))
        offset = rng.randrange(span.start, span.stop)
        return [f"rr {offset} {rng.randint(1, span.stop - offset)}"]
    if kind == 8:  # a re-init, read back whole
        module = rng.choice(TRACED_MODULES)
        span = module_span(layout, module)
        return [f"wr {layout.init_flags[module].offset} 1", "ex", f"rr {span.start} {len(span)}"]
    if kind == 9:
        method = layout.lookup("timer.mode.capture_method").offset
        return [f"wr {method} {rng.randrange(3)}", f"wr {layout.init_flags['timer'].offset} 1", "ex"]
    if kind == 10:
        return ["ex"]
    return ["reset"]


def send(bench, line: str, publish_each: bool) -> str:
    if line == "reset":
        bench.reset()
        return ""
    if line.split()[0] in ("rr", "wr", "ex"):
        return bench.refdev.handle_line(line)
    reply = bench.dut.handle_line(line)
    if publish_each:
        bench.trace.publish()
    return reply


def test_a_deferred_bench_answers_and_reads_as_one_that_publishes_after_every_dut_line():
    for seed in range(10):
        rng = random.Random(seed)
        deferred, eager = make_bench(seed=seed), make_bench(seed=seed)
        layout = deferred.refdev.regs.map
        for step in range(120):
            for line in random_lines(rng, layout):
                assert send(deferred, line, False) == send(eager, line, True), (seed, step, line)
        regs, twin = deferred.refdev.regs, eager.refdev.regs
        assert regs.read(0, regs.total_size) == twin.read(0, twin.total_size), seed
        assert deferred.clock.now == eager.clock.now


def test_a_toggle_burst_writes_no_trace_counter_or_array_until_the_next_read(monkeypatch):
    bench = make_bench(seed=2)
    regs = bench.refdev.regs
    layout = regs.map
    pokes, sets = [], Counter()
    publishes = 0
    poke, set_field, publish = RegisterFile.poke, Field.set, TraceUnit.publish

    def recording_poke(self, offset, data):
        pokes.append((offset, len(data)))
        poke(self, offset, data)

    def counting_set(self, value):
        sets[self.entry.name] += 1
        set_field(self, value)

    def counting_publish(self):
        nonlocal publishes
        publishes += 1
        publish(self)

    monkeypatch.setattr(RegisterFile, "poke", recording_poke)
    monkeypatch.setattr(Field, "set", counting_set)
    monkeypatch.setattr(TraceUnit, "publish", counting_publish)
    lines = [f"gpio_toggle {i % 3}" for i in range(60)] + ["gpio_set 1 1", "gpio_set 1 0"]
    for line in lines:
        assert '"result": "Success"' in bench.dut.handle_line(line)
    # each edge writes its pin's registers; the trace waits
    assert (pokes, publishes) == ([], 0)
    assert {name.split(".")[0] for name in sets} == {"gpio0", "gpio1", "gpio2"}
    sets.clear()

    assert regs.read_param("trace.index") == len(lines)
    assert publishes == 1
    # each array element written once, in one poke per array, and each counter once
    assert sorted(pokes) == [(layout.lookup(name).offset, len(lines) * layout.lookup(name).elem_size) for name in ARRAYS]
    assert sets == Counter(COUNTERS)

    regs.read(0, regs.total_size)
    assert publishes == 1

    bench.dut.handle_line("timer_trace 20 20000 2")  # a timer train still publishes at its end
    assert publishes == 2


def test_a_burst_sent_to_the_served_dut_is_whole_in_the_next_served_read():
    src = str(Path(hilsim.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "hilsim.cli", "serve", "--listen", "127.0.0.1:0", "--dut-listen", "127.0.0.1:0"]
    layout = make_bench().refdev.regs.map
    with subprocess.Popen(command, stderr=subprocess.PIPE, text=True, env=env) as server:
        try:
            # "DUT on H:P", then "reference device on H:P"
            dut_host, dut_port = server.stderr.readline().split()[-1].rsplit(":", 1)
            ref_host, ref_port = server.stderr.readline().split()[-1].rsplit(":", 1)
            dut, ref = TcpTransport(dut_host, int(dut_port)), TcpTransport(ref_host, int(ref_port))
            try:
                for _ in range(37):
                    assert '"result": "Success"' in dut.request("gpio_toggle 0")
                for name in ("trace.index", "gpio0.edge_count"):
                    entry = layout.lookup(name)
                    assert ref.request(f"rr {entry.offset} {entry.size}") == '{"data": [37, 0, 0, 0], "result": 0}'
                assert ref.request(f"rr {layout.lookup('gpio0.status.level').offset} 1") == '{"data": 1, "result": 0}'
            finally:
                dut.close()
                ref.close()
        finally:
            server.terminate()
            server.stderr.close()
