"""Random interleaved reference-device and DUT command streams.

Every refdev reply is one JSON line with a known result code, the register
file keeps its size, a seed replays exactly, and after any stream a reset
through the wire protocol restores the same entry bytes as ``Bench.reset``.
"""

import json
import random

import pytest

from hilsim.harness import RunConfig, SuiteRunner
from hilsim.pal import DutClient, RefDeviceClient
from hilsim.reference import reference_layout

from conftest import csv_map, make_bench

SEEDS = range(10)
STEPS = 150
LAYOUT = reference_layout()
NAME_MAP = csv_map()
WRITABLE = [e for e in LAYOUT.entries if e.access != "read-only"]
INIT_FLAGS = [e for e in WRITABLE if "init-trigger" in e.flags]
GARBAGE = ["", "zz", "wr 5", "rr x 1", "rr 0", "wr 56 256", "ex 1"]


def refdev_line(rng: random.Random) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        entry = rng.choice(WRITABLE)
        data = (rng.choice([0, 1, 2, rng.randrange(256)]) for _ in range(entry.size))
        return f"wr {entry.offset} {' '.join(map(str, data))}"
    if kind == 1:
        return f"wr {rng.choice(INIT_FLAGS).offset} 1"
    if kind == 2:
        return "ex"
    if kind == 3:
        return f"rr {rng.randrange(LAYOUT.total_size + 16)} {rng.randrange(1, 17)}"
    return rng.choice(GARBAGE)


def dut_line(rng: random.Random) -> str:
    r = rng.randrange
    addr = rng.choice([85, 85, 85, 99])  # 99 is not the default slave address: a NACK
    return rng.choice(
        [
            f"i2c_init {rng.choice([100000, 400000, 400000, 5])}",
            f"i2c_read_reg {addr} {r(64)} {r(1, 5)}",
            f"i2c_write_reg {addr} {r(64)} {r(256)} {r(256)}",
            f"i2c_read_bytes {addr} {r(1, 5)}",
            f"i2c_write_bytes {addr} {r(256)}",
            f"spi_init {rng.choice([0, 0, 0, 1, 5])} {rng.choice([1000000, 5000000])}",
            f"spi_transfer {r(256)} {r(256)} {r(256)}",
            f"uart_init {rng.choice([9600, 115200])}",
            f"uart_write {r(256)} {r(256)}",
            f"gpio_set {r(4)} {r(2)}",
            f"gpio_toggle {r(4)}",
            f"timer_trace {r(1, 40)} {rng.choice([2000, 20000])} {r(4)}",
            f"timer_bench {r(1, 6)} 100000 {r(3)}",
            "reset",
            "sync",
            "no_such_command 1",
        ]
    )


def run_stream(seed: int):
    rng = random.Random(seed)
    bench = make_bench(seed=seed)
    replies = []
    for _ in range(STEPS):
        if rng.random() < 0.5:
            line = refdev_line(rng)
            reply = bench.refdev.handle_line(line)
            assert "\n" not in reply and json.loads(reply)["result"] in range(5), (line, reply)
        else:
            reply = bench.dut.handle_line(dut_line(rng))
        replies.append(reply)
        assert bench.refdev.regs.total_size == LAYOUT.total_size
    return bench, replies


def entry_bytes(bench) -> dict[str, bytes]:
    regs = bench.refdev.regs
    image = regs.read(0, regs.total_size)
    return {e.name: image[e.offset : e.offset + e.size] for e in LAYOUT.entries}


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_replays_and_a_protocol_reset_equals_a_local_one(seed):
    bench, replies = run_stream(seed)
    again, replies_again = run_stream(seed)
    assert replies == replies_again
    regs, twin = bench.refdev.regs, again.refdev.regs
    assert regs.read(0, regs.total_size) == twin.read(0, twin.total_size)

    runner = SuiteRunner(DutClient(bench.dut), RefDeviceClient(bench.refdev, NAME_MAP), RunConfig(seed=seed))
    runner._setup()
    served = entry_bytes(bench)
    bench.reset()
    local = entry_bytes(bench)
    assert [name for name in local if served[name] != local[name]] == []
