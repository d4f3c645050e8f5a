"""The benchmark's workloads drive hilsim through its public calls; a change to them must show here.

``perfbench/workloads.py`` is loaded from its file, as ``test_benchmark_hooks.py`` loads the
tracer, and no bytecode is written beside it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STEPS = 25


@pytest.fixture(scope="module")
def workloads():
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports oracle and tracer by their bare names
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_bytecode
        for name in ("oracle", "tracer"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["suites_local", "edges_local", "tcp_suites"])
def test_a_workload_sets_up_steps_and_closes_with_no_unexplained_miss(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](7, PERFBENCH.parent, tmp_path)
    try:
        assert workload.setup() > 0
        server = getattr(workload, "server", None)
        for _ in range(STEPS):
            workload.step()
    finally:
        closing = workload.close()
    if server is not None:  # the workload stops its server but leaves the server's output pipes open
        server.proc.stdout.close()
        server.proc.stderr.close()
    assert closing["peak_rss_mb"] is None or closing["peak_rss_mb"] > 0
    assert workload.phase.attempted >= STEPS
    assert [m.detail for m in workload.phase.misses if not m.defect] == []
