"""Suite runner.

Suites are data: JSON manifests (one per suite) list cases, each a sequence
of steps interpreted here. A step either issues a DUT command, a named
reference-device access, or one of the measurement operations (wiring check,
timer accuracy, overlap delay).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from importlib import resources
from pathlib import Path

from hilsim.bench import Bench, BenchConfig
from hilsim.dut import HANDLER_OVERHEAD_NS
from hilsim.harness.report import FAIL, PASS, SKIP, CaseResult, TestReport
from hilsim.harness.stats import TimingStats, compute_timing_stats, fit_slope
from hilsim.memmap import LayoutedMap, emit_csv
from hilsim.pal import DutClient, PalResult, RefDeviceClient, SUCCESS, TIMEOUT, TransportError
from hilsim.sim.gpio import GpioEvent, as_event

SUITE_NAMES = ("infrastructure", "i2c", "spi", "uart", "gpio_timer")

# which suite category is expected to catch each seeded fault
FAULT_CATEGORY = {
    "extra_read_byte": "usage",
    "swallow_error_return": "negative",
    "inverted_status_check": "usage",
    "missing_error_cleanup": "recovery",
    "stop_while_busy_hang": "usage",
}

# defaults of the measurement step keys period_ns, n_events, ppm_threshold and n_max
ACCURACY_PERIOD_NS = 1_000_000
ACCURACY_EVENTS = 128
PPM_THRESHOLD = 170
OVERLAP_N_MAX = 10
# the overlap-delay slope must lie within this fraction of the DUT's handler overhead
SLOPE_TOLERANCE = 0.10
# the trace.tick registers hold the simulated time modulo this
TICK_WRAP = 1 << 32


@dataclass
class RunConfig(BenchConfig):
    """The bench a local run builds, and the case modes the DUT does not support."""

    unsupported_modes: tuple = ()


class StepFailure(Exception):
    """A step's expectation was not met. May carry measurements taken so far."""

    def __init__(self, message: str, measured: dict | None = None):
        super().__init__(message)
        self.measured = measured or {}


class ManifestEntry(dict):
    """A case or step of a manifest: reading a key it lacks fails its case, naming the key and the entry."""

    def __missing__(self, key):
        raise StepFailure(f"missing {key!r} in {json.dumps(self)[:80]}")


def _checked(result: PalResult, what: str):
    """The data of a PAL result; a failed one fails the step with ``what`` and the result's error."""
    if not result.ok:
        raise StepFailure(f"{what}: {result.error}")
    return result.data


def json_equal(got, wanted) -> bool:
    """Equal in value and in JSON type, lists item by item, objects key by key: ``1.0`` and ``true`` are no ``1``."""
    if type(got) is not type(wanted):
        return False
    if type(got) is list:
        return len(got) == len(wanted) and all(map(json_equal, got, wanted))
    if type(got) is dict:
        return got.keys() == wanted.keys() and all(json_equal(got[k], wanted[k]) for k in got)
    return got == wanted


def _read(client: RefDeviceClient, name: str, index: int = 0, count: int | None = None) -> list[int]:
    """Read elements of a parameter, as ``RefDeviceClient.read_reg``; a failed read fails the step."""
    return _checked(client.read_reg(name, index, count), f"read_reg {name}")


def read_trace(client: RefDeviceClient) -> list[GpioEvent]:
    """Fetch the trace buffer in two requests: the event count, then the three arrays in one read.

    Each row is a ``GpioEvent`` built by ``as_event`` from the three arrays' columns.
    """
    count = _read(client, "trace.index")[0]
    if count == 0:
        return []
    arrays = client.read_regs(("trace.source", "trace.value", "trace.tick"), count)
    return list(map(as_event, zip(*_checked(arrays, "read_regs trace arrays"))))


def load_manifest(suite: str) -> dict:
    """Load a packaged suite manifest by name, or any manifest by path.

    A packaged manifest's text is read once per process; a path is read on every call. Each
    call decodes the text anew, so no two runs share a dict.
    """
    path = Path(suite)
    if path.suffix == ".json" and path.exists():
        manifest = json.loads(path.read_text("utf-8"))
        cases = manifest.get("cases") if isinstance(manifest, dict) else None
        if not (isinstance(cases, list) and all(isinstance(case, dict) for case in cases)):
            raise ValueError(f"{suite}: not a JSON object holding a 'cases' list of objects")
        return manifest
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    return json.loads(_packaged_manifest(suite))


@lru_cache(maxsize=None)
def _packaged_manifest(suite: str) -> str:
    return resources.files("hilsim").joinpath(f"harness/suites/{suite}.json").read_text("utf-8")


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
        bench = Bench(config)
        layout = bench.refdev.regs.map
        name_map = LayoutedMap.from_csv(emit_csv(layout), layout.version)
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
        case = ManifestEntry(case)
        result = CaseResult(id="", suite=case.get("suite", ""), category=case.get("category", ""), verdict=PASS)
        try:
            result.id = case["id"]
            if case.get("requires") in self.config.unsupported_modes:
                result.verdict = SKIP
                result.reason = f"unsupported mode {case['requires']}"
                return result
            self._setup()
            for step in case["steps"]:
                measured = self._run_step(ManifestEntry(step))
                if measured:
                    result.measured.update(measured)
        except StepFailure as exc:
            result.verdict = FAIL
            result.reason = str(exc)
            result.measured.update(exc.measured)
        except TransportError as exc:
            result.verdict = FAIL
            result.reason = f"reference device lost: {exc}"
        return result

    def _setup(self) -> None:
        """Per-case setup: reset both devices, reconnect, verify version."""
        _checked(self.phil.connect(), "reference device connect failed")
        if self.bench is not None:
            self.bench.reset()
        else:
            # remote endpoints: restore defaults through the wire protocol
            if self.dut.command("reset").get("result") != SUCCESS:
                raise StepFailure("DUT reset failed")
            _checked(self.phil.restore_defaults(), "soft reset")
        if self.dut.sync().get("result") != SUCCESS:
            raise StepFailure("DUT sync failed")

    # -- step interpreter -----------------------------------------------

    def _run_step(self, step: dict) -> dict | None:
        op = step["op"]
        handler = _STEPS.get(op) if isinstance(op, str) else None
        if handler is None:
            raise StepFailure(f"unknown step op {op!r}")
        return handler(self, step)

    def _step_dut(self, step: dict) -> None:
        line = " ".join(str(a) for a in [step["cmd"], *step.get("args", [])])
        response = self.dut.command(line)
        self._check_response(line, response, step.get("expect", {"result": SUCCESS}))

    @staticmethod
    def _check_response(line: str, response: dict, expect: dict) -> None:
        for key, wanted in expect.items():
            got = response.get(key)
            if not json_equal(got, wanted):
                raise StepFailure(f"{line}: expected {key} {wanted!r}, got {got!r}")

    def _step_ref_read(self, step: dict) -> None:
        data = _read(self.phil, step["name"], step.get("index", 0), step.get("count"))
        if "expect" in step and not json_equal(data, step["expect"]):
            raise StepFailure(f"{step['name']}: expected {step['expect']}, got {data}")

    def _step_ref_write(self, step: dict) -> None:
        written = self.phil.write_reg(step["name"], step["value"], step.get("index", 0))
        _checked(written, f"write_reg {step['name']}")

    def _step_ref_execute(self, step: dict) -> None:
        _checked(self.phil.execute(), "execute")

    def _step_ref_write_execute(self, step: dict) -> None:
        _checked(self.phil.write_and_execute(step["name"], step["value"]), f"write_and_execute {step['name']}")

    def _step_dut_data_equals_ref(self, step: dict) -> None:
        """Compare DUT command data against a reference-device parameter."""
        line = " ".join(str(a) for a in [step["cmd"], *step.get("args", [])])
        response = self.dut.command(line)
        self._check_response(line, response, {"result": SUCCESS})
        ref = _read(self.phil, step["name"], step.get("index", 0), step.get("count"))
        data = response.get("data")
        data = data if isinstance(data, list) else [data]
        if not json_equal(data, ref):
            raise StepFailure(f"{line}: DUT data {data} != reference {ref} ({step['name']})")

    def _step_metadata_check(self, step: dict) -> None:
        response = self.dut.get_metadata()
        self._check_response("get_metadata", response, {"result": SUCCESS})
        needle = step.get("expect_contains", "")
        if needle and needle not in str(response.get("data", "")):
            raise StepFailure(f"firmware descriptor {response.get('data')!r} lacks {needle!r}")

    def _step_wiring_check(self, step: dict) -> dict:
        return {"wiring": self.wiring_check(step["pins"])}

    def _step_trace_expect_edges(self, step: dict) -> None:
        count = sum(e.pin == step["pin"] for e in self.read_trace())
        if count != step["count"]:
            raise StepFailure(f"expected {step['count']} edges on pin {step['pin']}, saw {count}")

    def _step_timer_accuracy(self, step: dict) -> dict:
        stats = self.timer_accuracy(
            step.get("period_ns", ACCURACY_PERIOD_NS),
            step.get("n_events", ACCURACY_EVENTS),
            step.get("pin", 0),
        )
        threshold = step.get("ppm_threshold", PPM_THRESHOLD)
        measured = {"timing": asdict(stats), "ppm_threshold": threshold}
        if abs(stats.ppm_error) > threshold:
            raise StepFailure(
                f"timer accuracy {stats.ppm_error:+.1f} PPM exceeds threshold {threshold} PPM",
                measured,
            )
        return measured

    def _step_overlap_delay(self, step: dict) -> dict:
        n_max = step.get("n_max", OVERLAP_N_MAX)
        period_ns = step.get("period_ns", ACCURACY_PERIOD_NS)
        delays, slope = self.overlap_delay_test(n_max, period_ns, step.get("pin", 0))
        measured = {"delays_ns": delays, "slope_ns_per_timer": slope}
        if any(b < a for a, b in zip(delays, delays[1:])):
            raise StepFailure(f"overlap delay not monotone: {delays}", measured)
        # each is one handler overhead: the delay added per timer, and the delay of one timer alone
        checks = (("overlap-delay slope", slope, "ns/timer"), ("first overlap delay", delays[0], "ns"))
        for what, value, unit in checks:
            if abs(value - HANDLER_OVERHEAD_NS) > SLOPE_TOLERANCE * HANDLER_OVERHEAD_NS:
                raise StepFailure(
                    f"{what} {value:.0f} {unit} outside {SLOPE_TOLERANCE:.0%} of {HANDLER_OVERHEAD_NS} ns", measured
                )
        return measured

    # -- measurement operations -----------------------------------------

    def read_trace(self) -> list[GpioEvent]:
        return read_trace(self.phil)

    def clear_trace(self) -> None:
        _checked(self.phil.write_and_execute("trace.mode.init", 1), "trace clear failed")

    def wiring_check(self, pins: list[int]) -> str:
        """Toggle each pin and require exactly its commanded edges in the trace."""
        bad: list[str] = []
        for pin in pins:
            self.clear_trace()
            for _ in range(2):
                self._check_response(f"gpio_toggle {pin}", self.dut.gpio_toggle(pin), {"result": SUCCESS})
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
        # a DUT that reports another edge count than it was asked for fails, whatever the trace shows
        self._check_response("timer_trace", response, {"result": SUCCESS, "data": n_events})
        events = [e for e in self.read_trace() if e.pin == pin]
        # each 32-bit tick unwrapped against the one before, as prev + (tick - prev) mod 2^32, so a
        # capture may span any number of wraps; a tick at or past the one before stays as it is
        for i in range(1, len(events)):
            prev, (_, level, tick) = events[i - 1].timestamp_ns, events[i]
            if tick < prev:
                events[i] = as_event((pin, level, prev + (tick - prev) % TICK_WRAP))
        try:
            # same-direction edges are two toggles apart
            return compute_timing_stats(events, 2 * period_ns)
        except ValueError as exc:  # too few edges on the pin to time
            raise StepFailure(f"timer_trace on pin {pin}: {exc}") from None

    def overlap_delay_test(self, n_max: int, period_ns: int, pin: int) -> tuple[list[float], float]:
        """Max handler delay for n overlapping timers, n = 1..n_max, plus fit slope."""
        delays: list[float] = []
        for n in range(1, n_max + 1):
            self.clear_trace()
            response = self.dut.timer_bench(n, period_ns, pin)
            self._check_response("timer_bench", response, {"result": SUCCESS})
            target = response.get("data")
            if type(target) is not int:
                raise StepFailure(f"timer_bench n={n}: no integer data in reply {json.dumps(response)}")
            events = [e for e in self.read_trace() if e.pin == pin]
            if len(events) != n:
                raise StepFailure(
                    f"timer_bench n={n}: expected {n} edges, saw {len(events)} "
                    f"(overruns {_read(self.phil, 'trace.overrun_count')[0]})"
                )
            # each 32-bit tick less the 64-bit target, as the signed difference mod 2^32
            half = TICK_WRAP // 2
            delays.append(max((e.timestamp_ns - target + half) % TICK_WRAP for e in events) - half)
        slope = fit_slope(range(1, n_max + 1), delays) if n_max > 1 else delays[0]
        return delays, slope


# each step op's handler, by op name: the SuiteRunner methods named ``_step_<op>``
_STEPS = {name[len("_step_"):]: method for name, method in vars(SuiteRunner).items() if name.startswith("_step_")}


def run_suite(
    suite: str,
    dut_endpoint: str = "local",
    ref_endpoint: str = "local",
    map_dir: str | None = None,
    config: RunConfig | None = None,
) -> TestReport:
    """Run one suite against a local bench or remote endpoints.

    Raises ``ValueError`` for an unknown suite, a manifest without a ``cases`` list, an endpoint
    that is not host:port, or remote endpoints without ``map_dir`` or with a ``config`` that sets
    any ``BenchConfig`` field (the servers build the bench); an unreachable endpoint (a ``Timeout``
    on the reference device's ``-v`` or the DUT's ``sync``) is an infrastructure error.

    A served device answers one connection at a time, so each of the two connections is a lock.
    The reference device is asked first, as every case's set-up asks it before it reconnects a
    dropped DUT: with one order, no harness holds one device while it waits for the other.
    """
    config = config or RunConfig()
    try:
        if dut_endpoint == "local" and ref_endpoint == "local":
            runner = SuiteRunner.local(config)
        else:
            if map_dir is None:
                raise ValueError("remote endpoints need a map directory")
            bench_set = [f.name for f in fields(BenchConfig) if getattr(config, f.name) != f.default]
            if bench_set:
                raise ValueError(f"remote endpoints serve their own bench, so {', '.join(bench_set)} cannot be set "
                                 "here: hilsim serve --seed sets a served bench's seed; faults, ppm and the pin map "
                                 "apply to a local bench only")
            runner = SuiteRunner(
                DutClient(dut_endpoint),
                RefDeviceClient(ref_endpoint, map_dir),
                config=config,
            )
    except OSError as exc:
        return TestReport(suite=suite, infrastructure_error=str(exc))
    try:
        try:
            if runner.phil.connect().result == TIMEOUT:
                unreachable = f"reference device {ref_endpoint}: endpoint unreachable"
                return TestReport(suite=suite, infrastructure_error=unreachable)
            if runner.dut.sync().get("result") == TIMEOUT:
                return TestReport(suite=suite, infrastructure_error=f"DUT {dut_endpoint}: no reply to sync")
        except OSError as exc:
            return TestReport(suite=suite, infrastructure_error=str(exc))
        return runner.run_suite(suite)
    finally:
        runner.dut.transport.close()
        runner.phil.transport.close()
