"""The benchmark's three closed-loop workloads, each driven by this one process.

- ``suites_local``: the fault matrix in-process. Every suite run gets a fresh
  ``SuiteRunner.local``, so each case pays a full bench reset and each run a
  bench build and a CSV name-map round trip.
- ``edges_local``: one long-lived in-process bench, never reset, running edge
  captures (``timer_trace`` or ``gpio_toggle`` bursts) of 16 to 512 edges across
  the three capture methods. Trace publish and the scheduler dominate.
- ``tcp_suites``: the five suites in a fixed order, repeatedly, against one
  ``hilsim serve --listen --dut-listen`` process over two loopback connections.

Each workload draws its inputs from its seed only. Host times are wall time
from ``time.perf_counter_ns``, scaled to a reference host speed (see
``probe_ns``); simulated time is the bench clock's.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import oracle
from hilsim.dut import FaultConfig
from hilsim.harness import SUITE_NAMES, RunConfig, SuiteRunner
import hilsim.memmap as memmap
from hilsim.pal import DutClient, MapStore, RefDeviceClient, open_transport
from hilsim.reference import reference_layout
from tracer import command_word, dut_family, install_layer_spans

SUCCESS = "Success"

# A shared host's speed drifts: on a 2-core VM whose cores other tenants used,
# the same code ran up to 40% slower from one second to the next. So host times
# are scaled to a reference speed: a fixed probe that takes PROBE_REF_NS at that
# speed runs before and after every stretch of about PROBE_EVERY_NS of work, and
# the stretch's times are multiplied by PROBE_REF_NS over the mean of the two
# probe times. Probe time is not work time.
PROBE_REF_NS = 2_110_000
PROBE_EVERY_NS = 50_000_000
# Latency percentiles and the case rate are taken per window of about this much
# work and the median over windows is reported, so one window with a stall
# (another tenant holding the core) does not move the run's figures.
WINDOW_NS = 10_000_000_000


# The probe's text half: JSON, a regular expression, CSV and formatting from
# the standard library. Its larger code and data footprint slows with the host
# more like hilsim does than an arithmetic loop alone: over 5 minutes of served
# suites on a 2-vCPU VM, 10 s rates scaled by loop and text together varied by
# about 0.08 of their mean, scaled by the loop alone by 0.09, unscaled by 0.14.
PROBE_DOC = json.dumps({f"entry{i}": {"offset": i * 4, "size": 4, "name": f"blk.reg{i}", "ro": i % 3 == 0}
                        for i in range(150)}, indent=1)
PROBE_CSV = "\n".join(f"blk.reg{i},{i * 4},4,{'ro' if i % 3 == 0 else 'rw'}" for i in range(200))
PROBE_NAME = re.compile(r'"name": "([a-z.]+?)(\d+)"')


def probe_ns() -> int:
    """Host time of fixed pure-Python work that touches no hilsim code."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    json.dumps(json.loads(PROBE_DOC), sort_keys=True)
    PROBE_NAME.findall(PROBE_DOC)
    "".join(f"{name:>20}|{int(offset):08x}|{access}\n"
            for name, offset, _, access in csv.reader(io.StringIO(PROBE_CSV)))
    return time.perf_counter_ns() - start


def speed_factor(before: int, after: int) -> float:
    return 2 * PROBE_REF_NS / (before + after)


class Phase:
    """What one measured phase records. Host times in ns, scaled by speed_factor."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.case_ns: list[int] = []
        self.req_ns: dict[tuple[str, str], list[int]] = defaultdict(list)
        self.requests: Counter = Counter()  # endpoint -> requests, all of them
        self.case_requests: Counter = Counter()  # endpoint -> requests made inside cases
        self.edges = 0
        self.sim_ns = 0
        self.suite_runs = 0
        self.attempted = 0
        self.misses: list[oracle.Miss] = []
        self.host_ns = 0.0  # work time, scaled
        self.raw_host_ns = 0  # work time as measured
        self.stretches: list[tuple[int, float, tuple[int, dict]]] = []  # raw ns, scaled ns, marks at end

    def marks(self) -> tuple[int, dict]:
        return len(self.case_ns), {key: len(samples) for key, samples in self.req_ns.items()}

    def add_stretch(self, marks: tuple[int, dict], raw_ns: int, factor: float) -> None:
        """Scale the samples taken since ``marks`` and add the stretch's work time."""
        cases, requests = marks
        self.case_ns[cases:] = [ns * factor for ns in self.case_ns[cases:]]
        for key, samples in self.req_ns.items():
            start = requests.get(key, 0)
            samples[start:] = [ns * factor for ns in samples[start:]]
        self.host_ns += raw_ns * factor
        self.raw_host_ns += raw_ns
        self.stretches.append((raw_ns, raw_ns * factor, self.marks()))

    def windows(self) -> list[tuple[float, list, list]]:
        """(scaled seconds, case times, request times) per window of about WINDOW_NS of work.

        A remainder shorter than half a window joins the last window.
        """
        bounds, raw = [], 0
        for i, (raw_ns, _, _) in enumerate(self.stretches):
            raw += raw_ns
            if raw >= WINDOW_NS:
                bounds.append(i + 1)
                raw = 0
        if raw and bounds and raw < WINDOW_NS / 2:
            bounds[-1] = len(self.stretches)
        elif raw:
            bounds.append(len(self.stretches))
        out, first = [], 0
        for last in bounds:
            cases0, requests0 = self.stretches[first - 1][2] if first else (0, {})
            cases1, requests1 = self.stretches[last - 1][2]
            requests = [ns for key, samples in self.req_ns.items()
                        for ns in samples[requests0.get(key, 0):requests1.get(key, 0)]]
            scaled_s = sum(scaled for _, scaled, _ in self.stretches[first:last]) / 1e9
            out.append((scaled_s, self.case_ns[cases0:cases1], requests))
            first = last
        return out

    @property
    def host_s(self) -> float:
        return self.host_ns / 1e9

    def check(self, miss: oracle.Miss | None) -> None:
        self.attempted += 1
        if miss is not None:
            self.misses.append(miss)


class TimedTransport:
    """Duck-typed transport that times each request where it leaves the client.

    For in-process endpoints that is the device's ``handle_line``; for TCP it is
    the loopback round trip. Requests are keyed by endpoint and command.
    """

    def __init__(self, inner, endpoint: str, workload: "Workload"):
        self.inner = inner
        self.endpoint = endpoint
        self.workload = workload

    def request(self, line: str) -> str:
        phase = self.workload.phase
        tracer = phase.tracer
        start = time.perf_counter_ns()
        if tracer is None:
            reply = self.inner.request(line)
        else:
            frame = tracer.enter("transport." + self.endpoint)
            try:
                reply = self.inner.request(line)
            finally:
                tracer.leave(frame)
        elapsed = time.perf_counter_ns() - start
        cmd = command_word(line) if self.endpoint == "ref" else dut_family(line)
        phase.req_ns[(self.endpoint, cmd)].append(elapsed)
        phase.requests[self.endpoint] += 1
        return reply

    def close(self) -> None:
        self.inner.close()


class Workload:
    name = ""
    setup_repeats = 60  # set-up is timed this often per run; the median is reported
    digest_units = 0  # leading units of work hashed into the digest
    # Leading units of work whose checks make the result's attempted and failed
    # counts. A seed fixes these units, so the counts repeat exactly for a seed,
    # however fast the host is; every later unit is checked too.
    counted_units = 0

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.phase = Phase()  # scratch phase for set-up traffic
        self._digest = hashlib.sha256()
        self.digested = 0
        self.units = 0  # units of work done, over every phase
        self.counted = Phase()  # the checks of the first counted_units units
        self.last_readback = None

    # -- subclass hooks ----------------------------------------------------

    def setup(self) -> float:
        """Make the system ready from cold; return the host seconds it took."""
        raise NotImplementedError

    def step(self) -> None:
        """Run one unit of work and check it."""
        raise NotImplementedError

    def start_tracing(self, tracer) -> None:
        install_layer_spans(tracer)

    def traced_setup(self, tracer) -> list[dict]:
        """Set up once more under tracing so set-up layers appear in the trace."""
        self.phase = Phase(tracer)
        self._local_setup()
        return []

    def close(self) -> dict:
        """Release resources; return end-of-run facts (peak RSS, simulated time)."""
        return {"peak_rss_mb": peak_rss_mb("self")}

    # -- shared machinery ----------------------------------------------------

    def run_phase(self, phase: Phase, seconds: float) -> Phase:
        """Run steps for ``seconds``, and at least until the counted and digest prefixes are complete."""
        self.phase = phase
        start = time.perf_counter()
        before = probe_ns()
        marks, stretch_ns = phase.marks(), 0
        while (time.perf_counter() - start < seconds or self.units < self.counted_units
               or self.digested < self.digest_units):
            step_start = time.perf_counter_ns()
            self.step()
            self.units += 1
            stretch_ns += time.perf_counter_ns() - step_start
            if stretch_ns >= PROBE_EVERY_NS:
                after = probe_ns()
                phase.add_stretch(marks, stretch_ns, speed_factor(before, after))
                before, marks, stretch_ns = after, phase.marks(), 0
        if stretch_ns:
            phase.add_stretch(marks, stretch_ns, speed_factor(before, probe_ns()))
        return phase

    def timed_setups(self) -> list[tuple[float, float]]:
        """(scaled, raw) host seconds of each of ``setup_repeats`` cold set-ups."""
        times = []
        for _ in range(self.setup_repeats):
            before = probe_ns()
            raw = self.setup()
            times.append((raw * speed_factor(before, probe_ns()), raw))
        return times

    def check(self, miss: oracle.Miss | None) -> None:
        """Record one oracle check of the current unit of work."""
        self.phase.check(miss)
        if self.units < self.counted_units:
            self.counted.check(miss)

    def record(self, unit: dict) -> None:
        if self.digested < self.digest_units:
            self._digest.update(json.dumps(unit, sort_keys=True).encode() + b"\n")
            self.digested += 1

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def _local_setup(self) -> tuple[SuiteRunner, float]:
        """A ready in-process runner (bench, maps, connected) from a cold layout cache."""
        reference_layout.cache_clear()
        start = time.perf_counter()
        runner = SuiteRunner.local(RunConfig(seed=self.seed))
        self.instrument(runner)
        ok = runner.phil.connect().ok and runner.dut.sync().get("result") == SUCCESS
        elapsed = time.perf_counter() - start
        if not ok:
            raise RuntimeError("local bench did not answer -v and sync")
        return runner, elapsed

    def instrument(self, runner: SuiteRunner) -> None:
        """Time the runner's transports and cases; count edges it reads back."""
        runner.dut.transport = TimedTransport(runner.dut.transport, "dut", self)
        runner.phil.transport = TimedTransport(runner.phil.transport, "ref", self)
        cls = type(runner)  # look methods up per call so tracing patches apply

        def run_case(case):
            start, before = self.case_begin()
            try:
                return cls.run_case(runner, case)
            finally:
                self.case_end(start, before)

        def read_trace():
            events = cls.read_trace(runner)
            self.phase.edges += len(events)
            self.last_readback = events
            return events

        runner.run_case = run_case
        runner.read_trace = read_trace

    def case_begin(self) -> tuple[int, Counter]:
        return time.perf_counter_ns(), Counter(self.phase.requests)

    def case_end(self, start: int, before: Counter) -> None:
        phase = self.phase
        phase.case_ns.append(time.perf_counter_ns() - start)
        phase.case_requests.update(phase.requests - before)


def report_record(report) -> dict:
    """A suite report's simulated behaviour: verdicts, measurements, simulated time."""
    return {
        "suite": report.suite,
        "sim_time_ns": report.sim_time_ns,
        "cases": [[c.id, c.verdict, c.measured, c.reason] for c in report.cases],
    }


def peak_rss_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- suites_local -------------------------------------------------------------


class SuitesLocal(Workload):
    name = "suites_local"
    digest_units = 12  # two bench seeds, each fault-free and with every fault alone
    counted_units = 150  # 25 bench seeds

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.groups = self._groups()

    def _groups(self):
        while True:
            bench_seed = self.rng.randrange(2**31)
            for fault in (None, *oracle.README_FAULT_CATEGORY):
                yield bench_seed, fault

    def setup(self) -> float:
        return self._local_setup()[1]

    def step(self) -> None:
        bench_seed, fault = next(self.groups)
        config = RunConfig(seed=bench_seed, faults=FaultConfig(**{fault: True}) if fault else None)
        reports = []
        for suite in SUITE_NAMES:
            # what run_suite(suite, "local", "local", config=config) does, with
            # the runner's transports and cases timed
            runner = SuiteRunner.local(config)
            self.instrument(runner)
            runner.dut.sync()
            runner.phil.connect()
            report = runner.run_suite(suite)
            self.phase.sim_ns += report.sim_time_ns
            reports.append(report)
        self.phase.suite_runs += len(reports)
        self.check(oracle.check_faulted(fault, reports) if fault else oracle.check_fault_free(reports))
        self.record({"seed": bench_seed, "fault": fault, "reports": [report_record(r) for r in reports]})


# -- edges_local --------------------------------------------------------------

# Edge counts per capture, stratified so every run sees the same mix; half the
# buckets overflow the 128-slot trace arrays. The buckets leave no gaps, so
# capture times form a smooth tail and case_p99_ms does not sit between two
# clusters of them.
N_BUCKETS = ((16, 48), (48, 96), (96, 128), (129, 192), (192, 320), (320, 512))
KINDS = ("trace",) * 11 + ("toggle",)  # a toggle burst costs one request per edge
SPAN_NS = (20_000_000, 1_000_000_000)  # simulated time one timer_trace covers
N_METHODS = 3
GOLDEN = (math.sqrt(5) - 1) / 2  # step of the low-discrepancy sequence


class EdgesLocal(Workload):
    name = "edges_local"
    digest_units = N_METHODS * len(KINDS) * len(N_BUCKETS)  # one full block
    counted_units = 6 * digest_units  # six blocks, each crossing 2^32 ns several times

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.captures = self._captures()
        self.runner = None

    def _captures(self):
        """Blocks holding every (method, kind, bucket) once; methods take turns.

        Each of a method's captures in a block also owns one slot of a
        log-spaced grid of simulated spans over SPAN_NS; a timer_trace's period
        is its span over n, so a block covers the same simulated time whatever
        the seed. Where in its bucket and in its slot a capture falls follows a
        low-discrepancy sequence from a seeded start, so every run of a few
        blocks sees nearly the same spread of sizes and periods.
        """
        combos = [(kind, bucket) for kind in KINDS for bucket in N_BUCKETS]
        log_lo, log_hi = (math.log(p) for p in SPAN_NS)
        slot_width = (log_hi - log_lo) / len(combos)
        slots = [self.rng.sample(range(len(combos)), len(combos)) for _ in range(N_METHODS)]
        starts = [[(self.rng.random(), self.rng.random()) for _ in combos] for _ in range(N_METHODS)]
        for block in itertools.count():
            orders = [self.rng.sample(range(len(combos)), len(combos)) for _ in range(N_METHODS)]
            for turn in zip(*orders):
                for method, i in enumerate(turn):
                    kind, (lo, hi) = combos[i]
                    n_start, span_start = starts[method][i]
                    n = lo + round((n_start + block * GOLDEN) % 1 * (hi - lo))
                    where = slots[method][i] + (span_start + block * GOLDEN) % 1
                    period = round(math.exp(log_lo + where * slot_width) / n)
                    yield method, kind, n, period, self.rng.randrange(3)

    def setup(self) -> float:
        self.runner, elapsed = self._local_setup()
        return elapsed

    def start_tracing(self, tracer) -> None:
        install_layer_spans(tracer)
        # in-process transports hold bound handle_line methods; bind the traced ones
        bench = self.runner.bench
        self.runner.dut.transport.inner = open_transport(bench.dut)
        self.runner.phil.transport.inner = open_transport(bench.refdev)

    def step(self) -> None:
        method, kind, n, period, pin = next(self.captures)
        runner = self.runner
        clock = runner.bench.clock
        sim_start = clock.now
        self.last_readback = None
        error = mean_period = None
        start, before = self.case_begin()
        try:
            selected = runner.phil.write_and_execute("timer.mode.capture_method", method)
            if not selected.ok:
                raise RuntimeError(f"capture method select failed: {selected.error}")
            if kind == "trace":
                mean_period = runner.timer_accuracy(period, n, pin).mean_period_ns
            else:
                runner.clear_trace()
                for _ in range(n):
                    reply = runner.dut.gpio_toggle(pin)
                    if reply.get("result") != SUCCESS:
                        raise RuntimeError(f"gpio_toggle {pin}: {reply}")
                runner.read_trace()
        except Exception as exc:  # a failed capture is an oracle miss, not a crash
            error = f"{type(exc).__name__}: {exc}"
        self.case_end(start, before)
        self.phase.sim_ns += clock.now - sim_start
        readback = None
        if error is None:
            readback = [(e.pin, e.level, e.timestamp_ns) for e in self.last_readback]
        truth = runner.bench.trace.trace.events
        self.check(oracle.check_capture(method, truth, readback, error, pin, mean_period))
        self.record({"method": method, "kind": kind, "n": n, "period_ns": period, "pin": pin,
                     "readback": readback, "mean_period_ns": mean_period, "error": error})


# -- tcp_suites ---------------------------------------------------------------


class Server:
    """``hilsim serve`` in a child process, started through ``served.py``."""

    def __init__(self, root: Path, args: list[str], trace: bool = False):
        cmd = [sys.executable, str(root / "perfbench" / "served.py"), *(["--trace"] if trace else []), *args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.lines = {"out": queue.Queue(), "err": queue.Queue()}
        self.readers = [
            threading.Thread(target=self._pump, args=(self.proc.stdout, self.lines["out"]), daemon=True),
            threading.Thread(target=self._pump, args=(self.proc.stderr, self.lines["err"]), daemon=True),
        ]
        for reader in self.readers:
            reader.start()
        self.stderr_seen: list[str] = []

    @staticmethod
    def _pump(stream, sink: queue.Queue) -> None:
        for line in stream:
            sink.put(line.rstrip("\n"))
        sink.put(None)

    def read_line(self, stream: str, timeout: float = 30.0) -> str:
        try:
            line = self.lines[stream].get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"server printed nothing on std{stream} for {timeout} s") from None
        if line is None:
            raise RuntimeError("server exited: " + " | ".join(self.stderr_seen[-5:]))
        if stream == "err":
            self.stderr_seen.append(line)
        return line

    def endpoints(self) -> tuple[str, str]:
        """(reference, DUT) host:port, from the lines ``hilsim serve`` prints."""
        found = {}
        while len(found) < 2:
            line = self.read_line("err")
            for label, key in (("reference device on ", "ref"), ("DUT on ", "dut")):
                if line.startswith(label):
                    found[key] = line[len(label):].strip()
        return found["ref"], found["dut"]

    def read_json(self) -> dict:
        while True:
            line = self.read_line("out")
            if line.startswith("{"):
                return json.loads(line)

    def start_tracing(self) -> dict:
        self.proc.send_signal(signal.SIGUSR1)
        return self.read_json()

    def stop(self) -> dict:
        """Ask the server for its closing report and wait until it has exited."""
        report = {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                report = self.read_json()
            except RuntimeError:
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for reader in self.readers:
            reader.join(timeout=5)
        return report


class TcpSuites(Workload):
    name = "tcp_suites"
    setup_repeats = 9
    digest_units = 2 * len(SUITE_NAMES)  # two passes
    counted_units = 60 * len(SUITE_NAMES)  # 60 passes; simulated time crosses 2^32 ns near pass 17

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.server: Server | None = None
        self.runner: SuiteRunner | None = None
        self.runs = 0
        self.sim_at_switch = 0
        self.map_dir = out_dir / "maps"
        self.map_dir.mkdir(parents=True, exist_ok=True)
        self._write_map()
        # the oracle: in-process verdicts for the same suites and seed
        self.expected = {}
        for suite in SUITE_NAMES:
            report = SuiteRunner.local(RunConfig(seed=seed)).run_suite(suite)
            self.expected[suite] = {c.id: c.verdict for c in report.cases}

    def _write_map(self) -> None:
        layout = reference_layout()
        (self.map_dir / f"ref_device_{layout.version}.csv").write_text(memmap.emit_csv(layout), "utf-8")

    def _spawn(self, trace: bool = False) -> tuple[Server, RefDeviceClient, str, float]:
        start = time.perf_counter()
        server = Server(self.root, ["serve", "--listen", "127.0.0.1:0", "--dut-listen", "127.0.0.1:0",
                                    "--seed", str(self.seed)], trace=trace)
        try:
            if trace:
                server.read_json()  # tracing acknowledged
            ref_endpoint, dut_endpoint = server.endpoints()
            ref = RefDeviceClient(ref_endpoint, MapStore(self.map_dir))
            connected = ref.connect()
            elapsed = time.perf_counter() - start
            if not connected.ok:
                raise RuntimeError(f"server did not answer -v: {connected.error}")
        except BaseException:
            server.stop()
            raise
        return server, ref, dut_endpoint, elapsed

    def setup(self) -> float:
        self._close_server()
        self.server, ref, dut_endpoint, elapsed = self._spawn()
        self.runner = SuiteRunner(DutClient(dut_endpoint), ref, config=RunConfig(seed=self.seed))
        self.instrument(self.runner)
        if self.runner.dut.sync().get("result") != SUCCESS:
            raise RuntimeError("served DUT did not answer sync")
        return elapsed

    def step(self) -> None:
        suite = SUITE_NAMES[self.runs % len(SUITE_NAMES)]
        suite_pass = self.runs // len(SUITE_NAMES)
        report = self.runner.run_suite(suite)
        expected = self.expected[suite]
        for case in report.cases:
            self.check(oracle.check_remote_case(case, expected[case.id], suite_pass))
        self.runs += 1
        self.phase.suite_runs += 1
        self.record({"pass": suite_pass, **report_record(report)})

    def start_tracing(self, tracer) -> None:
        self.sim_at_switch = self.server.start_tracing()["sim_now_ns"]
        install_layer_spans(tracer)

    def traced_setup(self, tracer) -> list[dict]:
        """A traced cold start: client map files, a traced server, its first -v."""
        self.phase = Phase(tracer)
        reference_layout.cache_clear()
        self._write_map()
        server, ref, _, _ = self._spawn(trace=True)
        ref.transport.close()
        return [server.stop()]

    def _close_server(self) -> dict:
        report = {}
        if self.runner is not None:
            self.runner.dut.transport.close()
            self.runner.phil.transport.close()
            self.runner = None
        if self.server is not None:
            report = self.server.stop()
            self.server = None
        return report

    def close(self) -> dict:
        rss = peak_rss_mb(self.server.proc.pid) if self.server and self.server.proc.poll() is None else None
        return {"peak_rss_mb": rss, "server": self._close_server()}


WORKLOADS = {w.name: w for w in (SuitesLocal, EdgesLocal, TcpSuites)}
