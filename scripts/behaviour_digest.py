"""Print digests of hilsim's observable behaviour, to check that a refactor changes none of it.

Run it on two trees and compare the lines it prints:

    PYTHONPATH=src python scripts/behaviour_digest.py

``suites`` hashes ``TestReport.to_dict()`` (minus ``wall_time_s``) of all five
suites for seeds 0-7, fault-free and with each seeded fault alone. ``streams``
hashes the DUT and reference-device replies, the final register image and the
simulated clock of 20 seeded random command streams of 300 steps over every
bus command and ``gpio_toggle``, with occasional bus-mode re-inits. ``served``
hashes the same reports of the five fault-free suites for seeds 0-7, run over
TCP: an in-thread ``LineServer`` pair on one bench per seed, reached through
``TcpTransport``. ``trace`` hashes the DUT and reference-device replies and
the whole register image after every command of 12 seeded capture streams:
``gpio_toggle`` bursts, ``gpio_set``, ``timer_trace`` of up to 300 edges and
``timer_bench``, mixed with capture-method switches, trace inits and
``Bench.reset()``, so each capture method overruns its 128 trace slots.
``generator`` hashes the struct declaration, CSV map and docs that the
generator writes for the bundled map, in that order.
"""

from __future__ import annotations

import hashlib
import json
import random

from hilsim.bench import Bench, BenchConfig
from hilsim.dut import FaultConfig
from hilsim.harness import SUITE_NAMES, RunConfig, SuiteRunner
from hilsim.memmap import LayoutedMap, emit_csv, emit_docs, emit_struct_decl
from hilsim.pal import DutClient, RefDeviceClient
from hilsim.reference import reference_layout
from hilsim.serve import LineServer

I2C_RATES = (10_000, 100_000, 400_000, 1_000_000)  # the last is out of range
SPI_RATES = (100_000, 1_000_000, 5_000_000)
UART_RATES = (9_600, 57_600, 115_200)
CAPTURE_PERIODS = (300, 1_500, 12_000, 40_000)  # ns; the shorter ones overrun a capture method
REINITS = ("i2c.mode.nack_addr", "i2c.mode.nack_data", "i2c.mode.reg_16_bit", "spi.mode.cpha", "uart.mode.if_type")


def suites_digest() -> str:
    digest = hashlib.sha256()
    fault_sets = [None] + [FaultConfig(**{name: True}) for name in FaultConfig.flag_names()]
    for seed in range(8):
        for faults in fault_sets:
            for suite in SUITE_NAMES:
                report_digest(digest, SuiteRunner.local(RunConfig(seed=seed, faults=faults)).run_suite(suite))
    return digest.hexdigest()


def report_digest(digest, report) -> None:
    doc = report.to_dict()
    del doc["wall_time_s"]
    digest.update(json.dumps(doc, sort_keys=True).encode())


def served_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(8):
        bench = Bench(BenchConfig(seed=seed))
        layout = bench.refdev.regs.map
        name_map = LayoutedMap.from_csv(emit_csv(layout), layout.version)
        servers = [LineServer(bench.refdev), LineServer(bench.dut)]
        for server in servers:
            server.serve_background()
        ref, dut = (server.endpoint for server in servers)
        runner = SuiteRunner(DutClient(dut), RefDeviceClient(ref, name_map), config=RunConfig(seed=seed))
        try:
            for suite in SUITE_NAMES:
                report_digest(digest, runner.run_suite(suite))
        finally:
            runner.dut.transport.close()
            runner.phil.transport.close()
            for server in servers:
                server.shutdown()
                server.server_close()
    return digest.hexdigest()


def random_bytes(rng: random.Random, most: int) -> str:
    return " ".join(str(rng.randrange(256)) for _ in range(rng.randint(1, most)))


def random_command(rng: random.Random) -> str:
    addr = 85 if rng.random() < 0.85 else 99
    kind = rng.randrange(11)
    if kind == 0:
        return f"i2c_init {rng.choice(I2C_RATES)}"
    if kind == 1:
        return f"i2c_read_reg {addr} {rng.randrange(40)} {rng.randint(1, 6)}"
    if kind == 2:
        return f"i2c_write_reg {addr} {rng.randrange(40)} {random_bytes(rng, 5)}"
    if kind == 3:
        return f"i2c_read_bytes {addr} {rng.randint(1, 6)}"
    if kind == 4:
        return f"i2c_write_bytes {addr} {random_bytes(rng, 5)}"
    if kind == 5:
        return f"spi_init {rng.randrange(5)} {rng.choice(SPI_RATES)}"
    if kind == 6:
        return f"spi_transfer {rng.randrange(256)} {random_bytes(rng, 6)}"
    if kind == 7:
        return f"uart_init {rng.choice(UART_RATES)}"
    if kind == 8:
        return f"uart_write {random_bytes(rng, 12)}"
    return f"gpio_toggle {rng.randrange(4)}"


def streams_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(20):
        rng = random.Random(seed)
        faults = FaultConfig(**{name: rng.random() < 0.2 for name in FaultConfig.flag_names()})
        bench = Bench(BenchConfig(seed=seed, faults=faults))
        layout = bench.refdev.regs.map
        for _ in range(300):
            if rng.random() < 0.05:
                name = rng.choice(REINITS)
                flag = layout.lookup(name.split(".")[0] + ".mode.init").offset
                lines = [f"wr {layout.lookup(name).offset} {rng.randrange(3)}", f"wr {flag} 1", "ex"]
                replies = [bench.refdev.handle_line(line) for line in lines]
            else:
                replies = [bench.dut.handle_line(random_command(rng))]
            digest.update("\n".join(replies).encode())
        regs = bench.refdev.regs
        digest.update(regs.read(0, regs.total_size))
        digest.update(str(bench.clock.now).encode())
    return digest.hexdigest()


def capture_commands(rng: random.Random, layout) -> list[str]:
    """One step of a capture stream: the DUT or reference-device lines to send, or ``["reset"]``."""
    kind = rng.randrange(10)
    pin = rng.randrange(4) if rng.random() < 0.05 else rng.randrange(3)
    if kind < 3:
        return [f"gpio_toggle {pin}"] * rng.randint(1, 150)
    if kind == 3:
        return [f"gpio_set {pin} {rng.randrange(2)}"]
    if kind < 6:
        return [f"timer_trace {rng.randint(1, 300)} {rng.choice(CAPTURE_PERIODS)} {pin}"]
    if kind == 6:
        return [f"timer_bench {rng.randint(1, 40)} {rng.choice(CAPTURE_PERIODS)} {pin}"]
    if kind == 7:
        method = layout.lookup("timer.mode.capture_method").offset
        return [f"wr {method} {rng.randrange(4)}", f"wr {layout.lookup('timer.mode.init').offset} 1", "ex"]
    if kind == 8:
        return [f"wr {layout.lookup('trace.mode.init').offset} 1", "ex"]
    return ["reset"]


def trace_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(12):
        rng = random.Random(seed)
        bench = Bench(BenchConfig(seed=seed))
        regs = bench.refdev.regs
        layout = regs.map
        for _ in range(40):
            for line in capture_commands(rng, layout):
                if line == "reset":
                    bench.reset()
                    reply = ""
                elif line.split()[0] in ("wr", "ex"):
                    reply = bench.refdev.handle_line(line)
                else:
                    reply = bench.dut.handle_line(line)
                digest.update(reply.encode())
                digest.update(regs.read(0, regs.total_size))
    return digest.hexdigest()


def generator_digest() -> str:
    layout = reference_layout()
    text = "".join(emit(layout) for emit in (emit_struct_decl, emit_csv, emit_docs))
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    print("suites ", suites_digest())
    print("streams", streams_digest())
    print("served ", served_digest())
    print("trace  ", trace_digest())
    print("generator", generator_digest())
