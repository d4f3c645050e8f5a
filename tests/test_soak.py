"""Soak: a served bench that runs suite after suite over TCP holds no more memory as it goes.

The reference device and the DUT of one bench are served in-thread by ``serve_tcp`` and reached
through ``TcpTransport``, as a long-lived bench is. Every served case also gets the verdict,
reason and ``measured`` of a fresh local runner with the same seed, past the 32-bit tick wrap too.
"""

import gc
import sys
import tracemalloc
from pathlib import Path

import hilsim
from hilsim.bench import Bench, BenchConfig
from hilsim.harness import SUITE_NAMES, RunConfig, SuiteRunner
from hilsim.memmap import LayoutedMap, emit_csv
from hilsim.pal import DutClient, RefDeviceClient
from hilsim.serve import serve_tcp

PASSES = 20
# Bytes hilsim may hold after the last pass beyond what it held after the second: room for a
# reply a server thread still holds when the snapshot is taken (4 B more was measured). A leak of
# one small object per command, about a thousand commands a pass, would exceed it many times.
ALLOWANCE = 1024
HILSIM_FILES = tracemalloc.Filter(True, str(Path(hilsim.__file__).parent / "*"))


def held_by_hilsim() -> int:
    """Bytes still allocated by a line of hilsim after a full collection.

    Allocations made elsewhere are left out: the interpreter's interned-string table, for one,
    grows in large steps whichever string pushes it past a size. The method cache is cleared
    first: it keeps up to 4096 attribute-name strings, a bounded cache, not memory the bench holds.
    """
    gc.collect()
    sys._clear_type_cache()
    snapshot = tracemalloc.take_snapshot().filter_traces([HILSIM_FILES])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def outcomes(report) -> list[tuple]:
    return [(c.id, c.verdict, c.reason, c.measured) for c in report.cases]


def test_a_served_bench_holds_no_more_memory_after_twenty_passes_than_after_two():
    # computed before tracing starts; each served report is compared as it arrives and not kept
    fresh = {suite: outcomes(SuiteRunner.local(RunConfig(seed=3)).run_suite(suite)) for suite in SUITE_NAMES}
    differing = []  # (pass, suite) of each served suite run whose cases differ from the fresh run
    bench = Bench(BenchConfig(seed=3))
    layout = bench.refdev.regs.map
    name_map = LayoutedMap.from_csv(emit_csv(layout), layout.version)
    servers = [serve_tcp(bench.refdev), serve_tcp(bench.dut)]
    for server in servers:
        server.serve_background()
    ref, dut = (server.endpoint for server in servers)
    runner = SuiteRunner(DutClient(dut), RefDeviceClient(ref, name_map), config=RunConfig(seed=3))
    tracemalloc.start()
    try:
        for done in range(1, PASSES + 1):
            for suite in SUITE_NAMES:
                if outcomes(runner.run_suite(suite)) != fresh[suite]:
                    differing.append((done, suite))
            if done == 2:
                second = held_by_hilsim()
        last = held_by_hilsim()
    finally:
        tracemalloc.stop()
        runner.dut.transport.close()
        runner.phil.transport.close()
        for server in servers:
            server.shutdown()
            server.server_close()
    assert bench.clock.now > 2**32  # the passes took the clock past one 32-bit tick wrap
    assert differing == []
    assert last - second <= ALLOWANCE, (second, last)
