"""Self-tests of the benchmark's oracle and digest: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
from hilsim.dut import FaultConfig  # noqa: E402
from hilsim.harness import SUITE_NAMES, RunConfig, SuiteRunner  # noqa: E402
from workloads import EdgesLocal, Phase, SuitesLocal  # noqa: E402


def run_suites(config):
    return [SuiteRunner.local(config).run_suite(suite) for suite in SUITE_NAMES]


def capture(runner, method, n, period_ns=50_000, pin=0):
    """One timer_trace capture: (ground truth, read-back rows, timer_accuracy mean period)."""
    assert runner.phil.write_and_execute("timer.mode.capture_method", method).ok
    mean = runner.timer_accuracy(period_ns, n, pin).mean_period_ns
    rows = [(e.pin, e.level, e.timestamp_ns) for e in runner.read_trace()]
    return runner.bench.trace.trace.events, rows, mean


def test_oracle_flags_faulted_bench_checked_as_fault_free():
    faulted = run_suites(RunConfig(seed=1, faults=FaultConfig(extra_read_byte=True)))
    miss = oracle.check_fault_free(faulted)
    assert miss is not None and miss.defect is None
    assert oracle.check_faulted("extra_read_byte", faulted) is None
    clean = run_suites(RunConfig(seed=1))
    assert oracle.check_fault_free(clean) is None
    assert oracle.check_faulted("missing_error_cleanup", clean) is not None


def test_oracle_flags_corrupted_trace_readback():
    runner = SuiteRunner.local(RunConfig(seed=5))
    truth, rows, mean = capture(runner, method=1, n=64)
    assert oracle.check_capture(1, truth, rows, pin=0, mean_period=mean) is None
    pin, level, tick = rows[10]
    corrupted = rows[:10] + [(pin, level, tick + 1)] + rows[11:]
    miss = oracle.check_capture(1, truth, corrupted, pin=0, mean_period=mean)
    assert miss is not None and miss.defect is None
    miss = oracle.check_capture(1, truth, rows, pin=0, mean_period=mean * 1.001)
    assert miss is not None and miss.defect is None


def test_known_defects_show_with_their_names():
    runner = SuiteRunner.local(RunConfig(seed=5))
    runner.bench.clock.advance((1 << 32) - 50_000_000)
    truth, rows, mean = capture(runner, method=1, n=64, period_ns=1_000_000)
    assert oracle.check_capture(1, truth, rows, pin=0, mean_period=mean).defect == "tick_wrap"

    runner = SuiteRunner.local(RunConfig(seed=5))
    assert runner.phil.write_and_execute("timer.mode.capture_method", oracle.GPIO_IRQ).ok
    runner.clear_trace()
    runner.dut.timer_trace(200, 50_000, 0)
    truth = runner.bench.trace.trace.events
    try:
        rows = [(e.pin, e.level, e.timestamp_ns) for e in runner.read_trace()]
        error = None
    except TypeError as exc:
        rows, error = None, str(exc)
    assert oracle.check_capture(oracle.GPIO_IRQ, truth, rows, error).defect == "trace_overflow"


def digest_of(workload_cls, seed, units, tmp_path):
    workload = workload_cls(seed, HERE.parent, tmp_path)
    workload.digest_units = units
    if workload_cls is EdgesLocal:
        workload.setup()
    while workload.digested < units:
        workload.step()
    return workload.digest


def test_digest_is_seed_stable(tmp_path):
    for cls, units in ((SuitesLocal, 6), (EdgesLocal, 18)):
        first = digest_of(cls, 3, units, tmp_path)
        assert digest_of(cls, 3, units, tmp_path) == first
        assert digest_of(cls, 4, units, tmp_path) != first


def counted_checks(seed, units, seconds, tmp_path):
    workload = EdgesLocal(seed, HERE.parent, tmp_path)
    workload.counted_units = workload.digest_units = units
    workload.setup()
    workload.run_phase(Phase(), seconds)
    return workload.units, workload.counted.attempted, len(workload.counted.misses)


def test_counts_cover_the_counted_units_whatever_the_run_time(tmp_path):
    """attempted and failed repeat for a seed however long the run measures."""
    done, attempted, failed = counted_checks(3, 36, 0, tmp_path)
    assert done == attempted == 36 and failed > 0  # gpio-irq overflows are among them
    done, *counts = counted_checks(3, 36, 1.5, tmp_path)
    assert done > 36 and counts == [attempted, failed]
