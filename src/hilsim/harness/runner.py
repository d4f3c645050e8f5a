"""Suite runner.

Suites are data: JSON manifests (one per suite) list cases, each a sequence
of steps interpreted here. A step either issues a DUT command, a named
reference-device access, or one of the measurement operations (wiring check,
timer accuracy, overlap delay).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from hilsim.bench import Bench, BenchConfig
from hilsim.dut import FaultConfig
from hilsim.harness.report import FAIL, PASS, SKIP, CaseResult, TestReport
from hilsim.harness.stats import TimingStats, compute_timing_stats, fit_slope
from hilsim.memmap import emit_csv
from hilsim.pal import DutClient, NameMap, RefDeviceClient, SUCCESS
from hilsim.reference import reference_layout
from hilsim.sim.gpio import GpioEvent

SUITE_NAMES = ("infrastructure", "i2c", "spi", "uart", "gpio_timer")

# which suite category is expected to catch each seeded fault
FAULT_CATEGORY = {
    "extra_read_byte": "usage",
    "swallow_error_return": "negative",
    "inverted_status_check": "usage",
    "missing_error_cleanup": "recovery",
    "stop_while_busy_hang": "usage",
}


@dataclass
class RunConfig:
    seed: int = 0
    faults: FaultConfig | None = None
    dut_clock_ppm_error: float = 0.0
    handler_overhead_ns: int = 30_000
    ppm_threshold: float = 170.0
    slope_tolerance: float = 0.10
    accuracy_period_ns: int = 1_000_000
    accuracy_events: int = 128
    overlap_n_max: int = 10
    unsupported_modes: tuple = ()
    pin_map: dict | None = None


class StepFailure(Exception):
    """A step's expectation was not met. May carry measurements taken so far."""

    def __init__(self, message: str, measured: dict | None = None):
        super().__init__(message)
        self.measured = measured or {}


@lru_cache(maxsize=8)
def _reset_writes(name_map: NameMap) -> tuple[str, ...]:
    """One ``wr`` of the default image per contiguous non-read-only span, init flags set to 1.

    Followed by ``ex``, these restore what a local reset restores in every
    byte a client may write.
    """
    spans: list[tuple[int, bytearray]] = []
    for entry in sorted(name_map.entries.values(), key=lambda e: e.offset):
        if entry.access == "read-only":
            continue
        data = entry.pack(1) if "init-trigger" in entry.flags else entry.default_bytes()
        if spans and spans[-1][0] + len(spans[-1][1]) == entry.offset:
            spans[-1][1].extend(data)
        else:
            spans.append((entry.offset, bytearray(data)))
    return tuple(f"wr {offset} {' '.join(map(str, data))}" for offset, data in spans)


def read_trace(client: RefDeviceClient) -> list[GpioEvent]:
    """Fetch the trace buffer through named register reads."""
    count = client.read_reg("trace.index").data[0]
    if count == 0:
        return []
    sources = client.read_reg("trace.source", 0, count).data
    values = client.read_reg("trace.value", 0, count).data
    ticks = client.read_reg("trace.tick", 0, count).data
    return [GpioEvent(pin=p, level=v, timestamp_ns=t) for p, v, t in zip(sources, values, ticks)]


def load_manifest(suite: str) -> dict:
    """Load a packaged suite manifest by name, or any manifest by path."""
    path = Path(suite)
    if path.suffix == ".json" and path.exists():
        return json.loads(path.read_text("utf-8"))
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    text = resources.files("hilsim").joinpath(f"harness/suites/{suite}.json").read_text("utf-8")
    return json.loads(text)


class SuiteRunner:
    """Drives one DUT/reference-device pair through a suite manifest."""

    def __init__(
        self,
        dut: DutClient,
        phil: RefDeviceClient,
        config: RunConfig | None = None,
        bench: Bench | None = None,
    ):
        self.dut = dut
        self.phil = phil
        self.config = config or RunConfig()
        self.bench = bench

    @classmethod
    def local(cls, config: RunConfig | None = None) -> "SuiteRunner":
        """Build a self-contained runner around an in-process bench."""
        config = config or RunConfig()
        bench = Bench(
            BenchConfig(
                seed=config.seed,
                faults=config.faults,
                dut_clock_ppm_error=config.dut_clock_ppm_error,
                handler_overhead_ns=config.handler_overhead_ns,
                pin_map=config.pin_map,
            )
        )
        layout = reference_layout()
        name_map = NameMap.from_csv(emit_csv(layout), version=layout.version)
        return cls(
            DutClient(bench.dut),
            RefDeviceClient(bench.refdev, name_map),
            config=config,
            bench=bench,
        )

    # -- suite execution ------------------------------------------------

    def run_suite(self, suite: str) -> TestReport:
        manifest = load_manifest(suite)
        report = TestReport(suite=manifest.get("suite", suite))
        started = time.monotonic()
        for case in manifest["cases"]:
            report.cases.append(self.run_case(case))
        report.wall_time_s = time.monotonic() - started
        if self.bench is not None:
            report.sim_time_ns = self.bench.clock.now
        return report

    def run_case(self, case: dict) -> CaseResult:
        result = CaseResult(
            id=case["id"],
            suite=case.get("suite", ""),
            category=case.get("category", ""),
            verdict=PASS,
        )
        if case.get("requires") in self.config.unsupported_modes:
            result.verdict = SKIP
            result.reason = f"unsupported mode {case['requires']}"
            return result
        try:
            self._setup()
            for step in case["steps"]:
                measured = self._run_step(step)
                if measured:
                    result.measured.update(measured)
        except StepFailure as exc:
            result.verdict = FAIL
            result.reason = str(exc)
            result.measured.update(exc.measured)
        return result

    def _setup(self) -> None:
        """Per-case setup: reset both devices, reconnect, verify version."""
        connected = self.phil.connect()
        if not connected.ok:
            raise StepFailure(f"reference device connect failed: {connected.error}")
        if self.bench is not None:
            self.bench.reset()
        else:
            # remote endpoints: restore defaults through the wire protocol
            if self.dut.command("reset").get("result") != SUCCESS:
                raise StepFailure("DUT reset failed")
            self._soft_reset_ref()
        if self.dut.sync().get("result") != SUCCESS:
            raise StepFailure("DUT sync failed")

    def _soft_reset_ref(self) -> None:
        """Write the default image back, raising every init flag, and execute."""
        for line in _reset_writes(self.phil.map):
            reply = self.phil.raw(line)
            if reply.get("result") != 0:
                raise StepFailure(f"soft reset write at {line.split()[1]}: device result {reply.get('result')}")
        if not self.phil.execute().ok:
            raise StepFailure("soft reset execute failed")

    # -- step interpreter -----------------------------------------------

    def _run_step(self, step: dict) -> dict | None:
        op = step["op"]
        handler = getattr(self, f"_step_{op}", None)
        if handler is None:
            raise StepFailure(f"unknown step op {op!r}")
        return handler(step)

    def _step_dut(self, step: dict) -> None:
        line = " ".join(str(a) for a in [step["cmd"], *step.get("args", [])])
        response = self.dut.command(line)
        self._check_response(line, response, step.get("expect", {"result": SUCCESS}))

    @staticmethod
    def _check_response(line: str, response: dict, expect: dict) -> None:
        for key, wanted in expect.items():
            got = response.get(key)
            if got != wanted:
                raise StepFailure(f"{line}: expected {key} {wanted!r}, got {got!r}")

    def _step_ref_read(self, step: dict) -> None:
        result = self.phil.read_reg(step["name"], step.get("index", 0), step.get("count"))
        if not result.ok:
            raise StepFailure(f"read_reg {step['name']}: {result.error}")
        if "expect" in step and result.data != step["expect"]:
            raise StepFailure(f"{step['name']}: expected {step['expect']}, got {result.data}")

    def _step_ref_write(self, step: dict) -> None:
        result = self.phil.write_reg(step["name"], step["value"], step.get("index", 0))
        if not result.ok:
            raise StepFailure(f"write_reg {step['name']}: {result.error}")

    def _step_ref_execute(self, step: dict) -> None:
        if not self.phil.execute().ok:
            raise StepFailure("execute failed")

    def _step_ref_write_execute(self, step: dict) -> None:
        result = self.phil.write_and_execute(step["name"], step["value"])
        if not result.ok:
            raise StepFailure(f"write_and_execute {step['name']}: {result.error}")

    def _step_dut_data_equals_ref(self, step: dict) -> None:
        """Compare DUT command data against a reference-device parameter."""
        line = " ".join(str(a) for a in [step["cmd"], *step.get("args", [])])
        response = self.dut.command(line)
        self._check_response(line, response, {"result": SUCCESS})
        ref = self.phil.read_reg(step["name"], step.get("index", 0), step.get("count"))
        if not ref.ok:
            raise StepFailure(f"read_reg {step['name']}: {ref.error}")
        data = response.get("data")
        data = data if isinstance(data, list) else [data]
        if data != ref.data:
            raise StepFailure(f"{line}: DUT data {data} != reference {ref.data} ({step['name']})")

    def _step_metadata_check(self, step: dict) -> None:
        response = self.dut.get_metadata()
        self._check_response("get_metadata", response, {"result": SUCCESS})
        needle = step.get("expect_contains", "")
        if needle and needle not in str(response.get("data", "")):
            raise StepFailure(f"firmware descriptor {response.get('data')!r} lacks {needle!r}")

    def _step_wiring_check(self, step: dict) -> dict:
        verdict = self.wiring_check(step["pins"])
        return {"wiring": verdict}

    def _step_trace_expect_edges(self, step: dict) -> None:
        events = self.read_trace()
        count = len([e for e in events if e.pin == step["pin"]])
        if count != step["count"]:
            raise StepFailure(f"expected {step['count']} edges on pin {step['pin']}, saw {count}")

    def _step_timer_accuracy(self, step: dict) -> dict:
        stats = self.timer_accuracy(
            step.get("period_ns", self.config.accuracy_period_ns),
            step.get("n_events", self.config.accuracy_events),
            step.get("pin", 0),
        )
        threshold = step.get("ppm_threshold", self.config.ppm_threshold)
        measured = {"timing": asdict(stats), "ppm_threshold": threshold}
        if abs(stats.ppm_error) > threshold:
            raise StepFailure(
                f"timer accuracy {stats.ppm_error:+.1f} PPM exceeds threshold {threshold} PPM",
                measured,
            )
        return measured

    def _step_overlap_delay(self, step: dict) -> dict:
        n_max = step.get("n_max", self.config.overlap_n_max)
        period_ns = step.get("period_ns", self.config.accuracy_period_ns)
        delays, slope = self.overlap_delay_test(n_max, period_ns, step.get("pin", 0))
        overhead = self.config.handler_overhead_ns
        measured = {"delays_ns": delays, "slope_ns_per_timer": slope}
        if any(b < a for a, b in zip(delays, delays[1:])):
            raise StepFailure(f"overlap delay not monotone: {delays}", measured)
        if abs(slope - overhead) > self.config.slope_tolerance * overhead:
            raise StepFailure(
                f"overlap-delay slope {slope:.0f} ns/timer outside "
                f"{self.config.slope_tolerance:.0%} of {overhead} ns",
                measured,
            )
        return measured

    # -- measurement operations -----------------------------------------

    def read_trace(self) -> list[GpioEvent]:
        return read_trace(self.phil)

    def clear_trace(self) -> None:
        result = self.phil.write_and_execute("trace.mode.init", 1)
        if not result.ok:
            raise StepFailure(f"trace clear failed: {result.error}")

    def wiring_check(self, pins: list[int]) -> str:
        """Toggle each pin and require exactly its commanded edges in the trace."""
        bad: list[str] = []
        for pin in pins:
            self.clear_trace()
            for _ in range(2):
                response = self.dut.gpio_toggle(pin)
                self._check_response(f"gpio_toggle {pin}", response, {"result": SUCCESS})
            events = self.read_trace()
            on_pin = [e for e in events if e.pin == pin]
            elsewhere = [e for e in events if e.pin != pin]
            if not on_pin and not elsewhere:
                bad.append(f"no edges observed on pin {pin}")
            elif elsewhere or len(on_pin) != 2:
                seen = sorted({e.pin for e in events})
                bad.append(f"pin {pin} miswired (edges on pins {seen})")
        if bad:
            raise StepFailure("; ".join(bad))
        return "ok"

    def timer_accuracy(self, period_ns: int, n_events: int, pin: int) -> TimingStats:
        self.clear_trace()
        response = self.dut.timer_trace(n_events, period_ns, pin)
        self._check_response("timer_trace", response, {"result": SUCCESS})
        events = [e for e in self.read_trace() if e.pin == pin]
        # same-direction edges are two toggles apart
        return compute_timing_stats(events, 2 * period_ns)

    def overlap_delay_test(self, n_max: int, period_ns: int, pin: int) -> tuple[list[float], float]:
        """Max handler delay for n overlapping timers, n = 1..n_max, plus fit slope."""
        delays: list[float] = []
        for n in range(1, n_max + 1):
            self.clear_trace()
            response = self.dut.timer_bench(n, period_ns, pin)
            self._check_response("timer_bench", response, {"result": SUCCESS})
            target = response.get("data")
            events = [e for e in self.read_trace() if e.pin == pin]
            if len(events) != n:
                raise StepFailure(
                    f"timer_bench n={n}: expected {n} edges, saw {len(events)} "
                    f"(overruns {self.phil.read_reg('trace.overrun_count').data[0]})"
                )
            delays.append(max(e.timestamp_ns for e in events) - target)
        slope = fit_slope(range(1, n_max + 1), delays) if n_max > 1 else delays[0]
        return delays, slope


def run_suite(
    suite: str,
    dut_endpoint: str = "local",
    ref_endpoint: str = "local",
    map_dir: str | None = None,
    config: RunConfig | None = None,
) -> TestReport:
    """Run one suite against a local bench or remote endpoints."""
    config = config or RunConfig()
    try:
        if dut_endpoint == "local" and ref_endpoint == "local":
            runner = SuiteRunner.local(config)
        else:
            if map_dir is None:
                raise ValueError("map_dir is required with remote endpoints")
            runner = SuiteRunner(
                DutClient(dut_endpoint),
                RefDeviceClient(ref_endpoint, map_dir),
                config=config,
            )
    except OSError as exc:
        return TestReport(suite=suite, infrastructure_error=str(exc))
    try:
        runner.dut.sync()
        connected = runner.phil.connect()
    except OSError as exc:
        return TestReport(suite=suite, infrastructure_error=str(exc))
    if connected.result == "Timeout":
        return TestReport(suite=suite, infrastructure_error=str(connected.error))
    return runner.run_suite(suite)
