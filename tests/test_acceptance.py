"""Acceptance criteria.

Each test covers one numbered criterion, asserts at the stated tolerance,
and prints a single PASS/FAIL line (visible with ``pytest -v -s``).
"""

import functools
import json
import random
import time

import pytest

from hilsim.bench import Bench, BenchConfig
from hilsim.dut import FaultConfig
from hilsim.harness import FAULT_CATEGORY, RunConfig, SUITE_NAMES, SuiteRunner, run_suite
from hilsim.harness.runner import PPM_THRESHOLD
from hilsim.memmap import SCALAR_TYPES, compute_layout, parse_config
from hilsim.pal import RefDeviceClient
from hilsim.reference import reference_layout
from hilsim.sim.gpio import CAPTURE_METHODS, GpioTrace

from conftest import csv_map


def criterion(number, title, budget_s):
    """Record the runtime budget and emit one PASS/FAIL line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            started = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {title}")
                raise
            elapsed = time.monotonic() - started
            assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
            print(f"ACCEPTANCE {number:2d} PASS  {title}  ({elapsed:.2f}s)")

        return run

    return wrap


@criterion(1, "protocol golden responses byte-exact", budget_s=1)
def test_criterion_1_protocol_golden():
    bench = Bench(BenchConfig(seed=0))
    refdev = bench.refdev
    # the documented example responses, byte for byte
    assert refdev.handle_line("-v") == '{"version": "1.2.3", "result": 0}'
    user0 = refdev.regs.map.lookup("user_reg.user_reg").offset
    refdev.regs.poke(user0, b"\x2a")
    assert refdev.handle_line(f"rr {user0} 1") == '{"data": 42, "result": 0}'
    assert refdev.handle_line(f"wr {user0} 7") == '{"result": 0}'
    assert refdev.handle_line("ex") == '{"result": 0}'
    # read-count register after exactly one 1-byte register read
    bench.dut.handle_line("i2c_init")
    bench.dut.handle_line("i2c_read_reg 85 0 1")
    assert refdev.handle_line("rr 334 1") == '{"data": 1, "result": 0}'


@criterion(2, "injected data NACK surfaces as Error/-EIO", budget_s=1)
def test_criterion_2_nack_data_scenario():
    bench = Bench(BenchConfig(seed=0))
    client = RefDeviceClient(bench.refdev, csv_map())
    assert client.connect().ok
    assert client.write_and_execute("i2c.mode.nack_data", 1).ok
    bench.dut.handle_line("i2c_init")
    reply = json.loads(bench.dut.handle_line("i2c_read_reg 85 0 1"))
    assert reply["result"] == "Error"
    assert reply["error_code"] == -5
    assert reply["data"] == -5


@criterion(3, "single register read: data, r_count and w_count all 1", budget_s=1)
def test_criterion_3_read_counters_scenario():
    bench = Bench(BenchConfig(seed=0))
    regs = bench.refdev.regs
    regs.poke_param("user_reg.user_reg", 0x5A, index=0)
    bench.dut.handle_line("i2c_init")
    reply = json.loads(bench.dut.handle_line("i2c_read_reg 85 0 1"))
    assert reply["result"] == "Success"
    assert reply["data"] == [0x5A]
    assert regs.read_param("i2c.r_count") == 1
    assert regs.read_param("i2c.w_count") == 1


@criterion(4, "seeded-bug matrix: all five faults detected, clean runs pass", budget_s=30)
def test_criterion_4_fault_matrix():
    for flag, category in FAULT_CATEGORY.items():
        config = RunConfig(seed=1, faults=FaultConfig(**{flag: True}))
        failures = []
        for suite in SUITE_NAMES:
            failures.extend(run_suite(suite, config=config).failed)
        assert failures, f"{flag} went undetected"
        assert category in {c.category for c in failures}, (
            f"{flag}: failing categories {sorted({c.category for c in failures})}, expected {category}"
        )
        if flag == "extra_read_byte":
            reasons = [c.reason for c in failures if c.id == "i2c.usage.read_count"]
            assert reasons and "expected [1], got [2]" in reasons[0]

    # zero false positives across 100 seeded fault-free runs
    for seed in range(100):
        for suite in SUITE_NAMES:
            report = run_suite(suite, config=RunConfig(seed=seed))
            assert not report.failed, (seed, suite, [c.reason for c in report.failed])


@criterion(5, "bus-speed estimation within 5% over 1000 random transactions", budget_s=10)
def test_criterion_5_bus_speed():
    rng = random.Random(55)
    bench = Bench(BenchConfig(seed=0))
    regs = bench.refdev.regs
    i2c_rates = (10_000, 100_000, 400_000)
    spi_rates = (100_000, 1_000_000, 5_000_000)
    for _ in range(1000):
        # the estimate is the speed the reference device publishes, read back like a test would
        if rng.random() < 0.5:
            rate = rng.choice(i2c_rates)
            bench.i2c.read_reg(85, rng.randrange(32), rng.randint(1, 8), rate)
            estimate = regs.read_param("i2c.speed_hz")
        else:
            rate = rng.choice(spi_rates)
            bench.spi.transfer(bytes(rng.randint(2, 9)), rate, 0)
            estimate = regs.read_param("spi.speed_hz")
        assert abs(estimate - rate) / rate <= 0.05, (rate, estimate)


@criterion(6, "capture-method envelopes hold over 1e5 fuzzed events", budget_s=10)
def test_criterion_6_capture_envelope():
    rng = random.Random(66)
    for kind, method in CAPTURE_METHODS.items():
        trace = GpioTrace(method, seed=7)
        t, level = 0, 0
        physical_kept = []
        candidates = 0
        for _ in range(100_000 // len(CAPTURE_METHODS)):
            t += rng.randint(1, 2 * method.t_min_ns)
            level = 1 - level
            if not (method.edges == "rising-only" and level != 1):
                candidates += 1
            if trace.record_train(0, level, (t,))[0]:
                physical_kept.append((t, level))

        # below-t_min arrivals were dropped and accounted
        for (a, _), (b, _) in zip(physical_kept, physical_kept[1:]):
            assert b - a >= method.t_min_ns, kind
        assert trace.overrun_count == candidates - len(physical_kept), kind

        # perturbation bounded by t_jitter
        kept = physical_kept[-len(trace.events):] if method.buffer_len else physical_kept
        for event, (pt, lv) in zip(trace.events, kept):
            assert abs(event.timestamp_ns - pt) <= method.t_jitter_ns, kind
            assert event.level == lv


@criterion(7, "timer PPM classification at the 170 PPM threshold", budget_s=5)
def test_criterion_7_timer_ppm():
    for configured, expected_verdict in ((500.0, "fail"), (50.0, "pass")):
        config = RunConfig(seed=77, dut_clock_ppm_error=configured)
        runner = SuiteRunner.local(config)
        runner._setup()
        stats = runner.timer_accuracy(1_000_000, 128, 0)
        jitter_bound = 2 * runner.bench.trace.method.t_jitter_ns / 1_000_000 * 1e6 + 1
        assert abs(stats.ppm_error - configured) <= jitter_bound, stats
        verdict = "pass" if abs(stats.ppm_error) <= PPM_THRESHOLD else "fail"
        assert verdict == expected_verdict, (configured, stats.ppm_error)


@criterion(8, "overlap delay: n=10 near 300 us, slope within 10% of 30 us", budget_s=5)
def test_criterion_8_overlap_delay():
    runner = SuiteRunner.local(RunConfig(seed=88))
    runner._setup()
    delays, slope = runner.overlap_delay_test(10, 1_000_000, 0)
    assert 270_000 <= max(delays) <= 330_000, delays
    assert abs(slope - 30_000) <= 0.10 * 30_000, slope


@criterion(9, "layout properties over 1000 random specs + reference figures", budget_s=10)
def test_criterion_9_layout_properties():
    rng = random.Random(99)
    scalars = list(SCALAR_TYPES)

    def random_spec():
        modules = []
        for m in range(rng.randint(1, 4)):
            params = [
                {
                    "name": f"p{p}",
                    "type": rng.choice(scalars),
                    "array_len": rng.randint(1, 5),
                    "description": "fuzz field",
                }
                for p in range(rng.randint(1, 6))
            ]
            modules.append({"name": f"mod{m}", "parameters": params})
        return {"name": "fuzz", "version": "0.0.1", "modules": modules}

    for _ in range(1000):
        doc = random_spec()
        layout = compute_layout(parse_config(json.dumps(doc)))
        spans = [(e.offset, e.offset + e.size) for e in layout.entries]
        # non-overlap + declaration order
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0
        # natural alignment
        for e in layout.entries:
            assert e.offset % min(e.elem_size, 8) == 0
        # determinism
        assert compute_layout(parse_config(json.dumps(doc))).map_hash == layout.map_hash
        # monotonic append
        doc["modules"][-1]["parameters"].append(
            {"name": "appended", "type": "u32", "description": "appended field"}
        )
        extended = compute_layout(parse_config(json.dumps(doc)))
        for e in layout.entries:
            assert extended.lookup(e.name).offset == e.offset

    reference = reference_layout()
    assert len(reference.entries) == 273
    assert sum(e.size for e in reference.entries) >= 1841
    assert reference.total_size == 2048


@criterion(10, "name/address parity over 100 random register states", budget_s=10)
def test_criterion_10_name_address_parity():
    bench = Bench(BenchConfig(seed=0))
    layout = reference_layout()
    client = RefDeviceClient(bench.refdev, csv_map())
    assert client.connect().ok
    rng = random.Random(100)
    for _ in range(100):
        bench.refdev.regs.poke(0, bytes(rng.randrange(256) for _ in range(2048)))
        for entry in layout.entries:
            named = client.read_reg(entry.name, 0, entry.array_len).data
            raw = bench.refdev.regs.read(entry.offset, entry.size)
            signed = entry.type.startswith("i")
            decoded = [
                int.from_bytes(raw[i : i + entry.elem_size], "little", signed=signed)
                for i in range(0, len(raw), entry.elem_size)
            ]
            assert named == decoded, entry.name
