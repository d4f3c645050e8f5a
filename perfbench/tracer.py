"""Spans and counters around hilsim's public entry points, installed from outside.

Nothing in ``src/hilsim`` knows about tracing: ``install_layer_spans`` replaces
class and module attributes with timing wrappers and ``Tracer.uninstall`` puts
the originals back. Spans stay in memory as one flat ``array`` of
(id, parent, name, start, end, self) rows; self time is a span's duration minus
the time its direct children cover. Every time is host wall time in ns.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
import weakref
from array import array
from collections import Counter, defaultdict

_FIELDS = 6  # id, parent id, name id, start ns, end ns, self ns
MAX_SPANS = 2_000_000  # ~96 MB of rows; later spans are counted, not stored

DUT_FAMILIES = ("i2c", "spi", "uart", "gpio", "timer")


def dut_family(line: str) -> str:
    """Group a DUT shell command by peripheral: i2c, spi, uart, gpio, timer or infra."""
    word = line.split(None, 1)[0] if line.strip() else ""
    family = word.split("_", 1)[0]
    return family if family in DUT_FAMILIES else "infra"


def command_word(line: str) -> str:
    parts = line.split(None, 1)
    return parts[0] if parts else ""


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), parent, self._name_id(name), time.perf_counter_ns(), 0]
        stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][4] += duration
        if len(self.spans) >= MAX_SPANS * _FIELDS:
            self.dropped += 1
            return
        # one extend call per span keeps rows whole when server threads interleave
        self.spans.extend((frame[0], frame[1], frame[2], frame[3], end, duration - frame[4]))

    def wrap(self, fn, name):
        """Return fn wrapped in a span; ``name`` is a string or a function of the call's args."""
        static = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name if static else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(frame)

        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``uninstall``."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name))
        else:
            replacement = self.wrap(original, name)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_with(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``, for wrappers that also count."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, median duration and self time, total self time (all µs)."""
        durations = defaultdict(list)
        selfs = defaultdict(list)
        rows = self.spans
        for i in range(0, len(rows), _FIELDS):
            nid = rows[i + 2]
            durations[nid].append(rows[i + 4] - rows[i + 3])
            selfs[nid].append(rows[i + 5])
        out = {}
        for nid, durs in durations.items():
            out[self.names[nid]] = {
                "calls": len(durs),
                "median_us": statistics.median(durs) / 1e3,
                "self_median_us": statistics.median(selfs[nid]) / 1e3,
                "self_total_us": sum(selfs[nid]) / 1e3,
            }
        return {"spans": out, "counters": dict(self.counters), "spans_dropped": self.dropped}


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the entry points of every hilsim layer; safe to call in a server process."""
    import hilsim.harness.runner as runner_mod
    import hilsim.memmap as memmap_pkg
    import hilsim.reference as reference_mod
    from hilsim.bench import Bench
    from hilsim.dut import DutDevice
    from hilsim.harness.runner import SuiteRunner
    from hilsim.pal import DutClient, NameMap, RefDeviceClient
    from hilsim.refdev import ReferenceDevice, RegisterFile
    from hilsim.sim.bus import I2cSlaveModel, SpiSlaveModel, UartModel
    from hilsim.sim.clock import EventScheduler
    from hilsim.sim.trace import TraceUnit

    t = tracer
    # memmap and map building; reference_layout, SuiteRunner.local and the
    # benchmark's map writer look these names up in their own modules
    t.patch(reference_mod, "compute_layout", "memmap.compute_layout")
    t.patch(runner_mod, "emit_csv", "memmap.emit_csv")
    t.patch(memmap_pkg, "emit_csv", "memmap.emit_csv")
    t.patch(NameMap, "from_csv", "pal.namemap_build")
    # bench and refdev
    t.patch(Bench, "__init__", "bench.construct")
    t.patch(Bench, "reset", "bench.reset")
    t.patch(RegisterFile, "__init__", "refdev.regfile_init")
    t.patch(ReferenceDevice, "handle_line", lambda self, line: "refdev.handle_line." + command_word(line))
    # dut
    t.patch(DutDevice, "handle_line", lambda self, line: "dut.handle_line." + dut_family(line))
    # sim: bus models, trace unit, scheduler
    for method in ("read_reg", "write_reg", "read_bytes", "write_bytes"):
        t.patch(I2cSlaveModel, method, "sim.bus.txn.i2c")
    t.patch(SpiSlaveModel, "transfer", "sim.bus.txn.spi")
    t.patch(UartModel, "process", "sim.bus.txn.uart")

    # edges kept by each trace unit since its last publish
    unpublished: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def counted_record_edge(original):
        traced = t.wrap(original, "sim.trace.record_edge")

        def record_edge(self, pin, level):
            kept = traced(self, pin, level)
            if kept:
                t.counters["sim.trace.kept_edges"] += 1
                unpublished[self] = unpublished.get(self, 0) + 1
            return kept

        return record_edge

    def counted_publish(original):
        traced = t.wrap(original, "sim.trace.publish")

        def publish(self):
            # publish rewrites one slot per buffered event; only the events
            # kept since the previous publish are new
            t.counters["sim.trace.entries_written"] += len(self.trace.events)
            t.counters["sim.trace.new_events_published"] += min(
                unpublished.pop(self, 0), len(self.trace.events)
            )
            return traced(self)

        return publish

    def counted_run(original):
        traced = t.wrap(original, "sim.clock.run_until_idle")

        def run_until_idle(self):
            # every queued callback runs; DUT handlers schedule no new events
            t.counters["sim.clock.events_run"] += self.pending
            return traced(self)

        return run_until_idle

    t.patch_with(TraceUnit, "record_edge", counted_record_edge)
    t.patch_with(TraceUnit, "publish", counted_publish)
    t.patch_with(EventScheduler, "run_until_idle", counted_run)
    # pal: self time excludes the transport span below it
    t.patch(RefDeviceClient, "read_reg", "pal.read_reg")
    t.patch(RefDeviceClient, "write_reg", "pal.write_reg")
    t.patch(RefDeviceClient, "execute", "pal.execute")
    t.patch(DutClient, "command", "pal.dut_command")
    # harness
    t.patch(SuiteRunner, "run_case", "harness.run_case")
    t.patch(SuiteRunner, "read_trace", "harness.read_trace")
    t.patch(runner_mod, "compute_timing_stats", "harness.stats")
