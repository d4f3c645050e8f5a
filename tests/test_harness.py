"""Suite runner, timing statistics, and reports."""

import json

import pytest

from hilsim import dut
from hilsim.dut import HANDLER_OVERHEAD_NS, METADATA, SUCCESS, FaultConfig
from hilsim.harness import (
    FAULT_CATEGORY,
    RunConfig,
    SUITE_NAMES,
    SuiteRunner,
    TestReport,
    compute_timing_stats,
    emit_report,
    load_manifest,
    run_suite,
)
from hilsim.harness.report import FAIL, PASS, SKIP, CaseResult
from hilsim.pal import TransportError
from hilsim.sim.gpio import GpioEvent

import conftest
from conftest import Tap, make_bench


def toggle_events(n, period_ns, start=1_000_000, level0=1, perturb=None):
    events = []
    for k in range(n):
        t = start + k * period_ns
        if perturb:
            t += perturb(k)
        events.append(GpioEvent(pin=0, level=(level0 + k) % 2, timestamp_ns=t))
    return events


# -- timing statistics --------------------------------------------------


def test_stats_exact_periods():
    events = toggle_events(16, 500_000)
    stats = compute_timing_stats(events, 1_000_000)  # same-direction period
    assert stats.ppm_error == pytest.approx(0.0, abs=1e-9)
    assert stats.jitter_ns == pytest.approx(0.0, abs=1e-9)
    assert stats.drift_ns_per_s == pytest.approx(0.0, abs=1e-6)
    assert stats.mean_period_ns == pytest.approx(1_000_000)


def test_stats_recovers_configured_ppm():
    actual = round(500_000 * (1 + 350e-6))
    events = toggle_events(128, actual)
    stats = compute_timing_stats(events, 1_000_000)
    assert stats.ppm_error == pytest.approx(350, abs=1)


def test_stats_jitter_is_max_abs_deviation():
    events = toggle_events(9, 500_000, perturb=lambda k: 700 if k == 4 else 0)
    stats = compute_timing_stats(events, 1_000_000)
    # the perturbed sample shifts two adjacent same-direction periods by ±700
    assert stats.jitter_ns == pytest.approx(700, rel=0.3)


def test_stats_requires_two_same_direction_events():
    with pytest.raises(ValueError):
        compute_timing_stats(toggle_events(2, 500_000), 1_000_000)


def test_stats_drift_sign():
    # quadratic timestamp error -> positive drift slope
    events = toggle_events(64, 500_000, perturb=lambda k: k * k // 10)
    stats = compute_timing_stats(events, 1_000_000)
    assert stats.drift_ns_per_s > 0


# -- manifests ----------------------------------------------------------


def test_all_packaged_manifests_load():
    for suite in SUITE_NAMES:
        manifest = load_manifest(suite)
        assert manifest["suite"] == suite
        assert manifest["cases"]


def test_manifest_by_path(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps({"suite": "mini", "cases": []}), "utf-8")
    assert load_manifest(str(path))["suite"] == "mini"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        load_manifest("bogus")


def test_fault_category_covers_all_flags():
    assert sorted(FAULT_CATEGORY) == sorted(FaultConfig.flag_names())


# -- clean runs ---------------------------------------------------------


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_passes_on_healthy_pair(suite):
    report = run_suite(suite, config=RunConfig(seed=5))
    assert report.totals[FAIL] == 0, [c.reason for c in report.failed]
    assert report.totals[PASS] == len(report.cases)


def test_determinism_same_seed_same_report():
    first = run_suite("gpio_timer", config=RunConfig(seed=12))
    second = run_suite("gpio_timer", config=RunConfig(seed=12))
    strip = lambda d: {k: v for k, v in d.items() if k != "wall_time_s"}
    assert strip(first.to_dict()) == strip(second.to_dict())


def test_gpio_timer_measures_the_same_after_other_suites_on_one_runner():
    # the clock of a runner that ran other suites first is far ahead; the timing figures must not see it
    runner = SuiteRunner.local(RunConfig(seed=0))
    for suite in SUITE_NAMES:
        if suite != "gpio_timer":
            runner.run_suite(suite)
    late = runner.run_suite("gpio_timer")
    fresh = SuiteRunner.local(RunConfig(seed=0)).run_suite("gpio_timer")
    assert [(c.id, c.verdict, c.measured) for c in late.cases] == [(c.id, c.verdict, c.measured) for c in fresh.cases]


def test_unsupported_mode_skips():
    config = RunConfig(seed=1, unsupported_modes=("i2c-16bit-registers",))
    report = run_suite("i2c", config=config)
    skipped = [c for c in report.cases if c.verdict == SKIP]
    assert [c.id for c in skipped] == ["i2c.mode.reg16"]
    assert report.totals[FAIL] == 0
    assert report.exit_code() == 0


def test_local_runner_builds_its_bench_from_the_run_config():
    config = RunConfig(seed=9, faults=FaultConfig(extra_read_byte=True), dut_clock_ppm_error=250.0,
                       pin_map={0: 1, 1: 0, 2: 2})
    runner = SuiteRunner.local(config)
    assert runner.bench.config is config
    assert runner.bench.trace.seed == 9
    assert runner.bench.dut.faults is config.faults
    assert runner.bench.dut.clock_ppm_error == 250.0
    assert runner.bench.dut.pin_map == {0: 1, 1: 0, 2: 2}


@pytest.mark.parametrize("ppm", [0.0, 500.0])
def test_measurement_steps_without_their_keys_take_the_packaged_limits(tmp_path, ppm):
    manifest = load_manifest("gpio_timer")
    steps = [step for case in manifest["cases"] for step in case["steps"]]
    measuring = [step for step in steps if step["op"] in ("timer_accuracy", "overlap_delay")]
    assert len(measuring) == 2
    for step in measuring:
        for key in [k for k in step if k != "op"]:
            del step[key]
    path = tmp_path / "gpio_timer_defaults.json"
    path.write_text(json.dumps(manifest), "utf-8")
    packaged = SuiteRunner.local(RunConfig(seed=6, dut_clock_ppm_error=ppm)).run_suite("gpio_timer")
    defaulted = SuiteRunner.local(RunConfig(seed=6, dut_clock_ppm_error=ppm)).run_suite(str(path))
    verdicts = [(c.id, c.verdict, c.reason, c.measured) for c in packaged.cases]
    assert [(c.id, c.verdict, c.reason, c.measured) for c in defaulted.cases] == verdicts
    assert packaged.cases[2].verdict == (FAIL if ppm else PASS)


@pytest.mark.parametrize("word", ["rr", "wr", "ex"])
def test_a_lost_reference_device_fails_its_case_and_the_later_cases_run(word):
    runner = SuiteRunner.local(RunConfig(seed=5))
    drops = [TransportError("connection reset by peer")]

    def drop_once(line):
        if drops and line.split()[0] == word:
            raise drops.pop()

    runner.phil.transport = Tap(runner.bench.refdev, drop_once)
    report = runner.run_suite("gpio_timer")
    first, *later = report.cases
    assert first.verdict == FAIL
    assert "connection reset by peer" in first.reason
    assert [c.verdict for c in later] == [PASS] * len(later)


def test_a_refused_trace_read_fails_its_case_and_the_suite_finishes():
    runner = SuiteRunner.local(RunConfig(seed=5))
    runner.phil.transport = Tap(runner.bench.refdev, lambda line: '{"result": 4}' if line.startswith("rr") else None)
    cases = {c.id: c for c in runner.run_suite("gpio_timer").cases}
    for case_id in ("gpio.trace_count", "timer.accuracy", "timer.overlap_delay"):
        assert (cases[case_id].verdict, cases[case_id].reason) == (FAIL, "read_reg trace.index: device result 4")


def test_a_refused_overrun_read_fails_the_overlap_case():
    # pin 0's edges land on pin 1, so the overlap step reads the overrun count for its message
    runner = SuiteRunner.local(RunConfig(seed=3, pin_map={0: 1, 1: 0, 2: 2}))
    offset = runner.phil.map.lookup("trace.overrun_count").offset
    refused = f"rr {offset} "
    runner.phil.transport = Tap(runner.bench.refdev, lambda line: '{"result": 4}' if line.startswith(refused) else None)
    case = runner.run_case(load_manifest("gpio_timer")["cases"][3])
    assert (case.id, case.verdict) == ("timer.overlap_delay", FAIL)
    assert case.reason == "read_reg trace.overrun_count: device result 4"


def test_a_timer_trace_on_a_miswired_pin_fails_its_case():
    report = run_suite("gpio_timer", config=RunConfig(seed=3, pin_map={0: 1, 1: 0, 2: 2}))
    accuracy = {c.id: c for c in report.cases}["timer.accuracy"]
    assert accuracy.verdict == FAIL
    assert "need at least 2 events" in accuracy.reason


# -- fault detection ----------------------------------------------------


def run_all_suites(config):
    failures = []
    for suite in SUITE_NAMES:
        report = run_suite(suite, config=config)
        failures.extend(report.failed)
    return failures


@pytest.mark.parametrize("flag", FaultConfig.flag_names())
def test_each_fault_detected_in_mapped_category(flag):
    config = RunConfig(seed=2, faults=FaultConfig(**{flag: True}))
    failures = run_all_suites(config)
    assert failures, f"{flag} went undetected"
    assert FAULT_CATEGORY[flag] in {c.category for c in failures}


def test_extra_read_byte_detected_via_read_count():
    config = RunConfig(seed=2, faults=FaultConfig(extra_read_byte=True))
    report = run_suite("i2c", config=config)
    failing = {c.id: c for c in report.failed}
    assert "i2c.usage.read_count" in failing
    assert "got [2]" in failing["i2c.usage.read_count"].reason


# -- measurement operations ---------------------------------------------


def test_wiring_check_reports_dead_pin():
    runner = SuiteRunner.local(RunConfig(seed=3))
    runner._setup()
    # pin 5 does not exist on the DUT: gpio_toggle fails, zero edges
    from hilsim.harness.runner import StepFailure

    with pytest.raises(StepFailure, match="gpio_toggle 5"):
        runner.wiring_check([5])


def test_wiring_check_names_miswired_pin():
    runner = SuiteRunner.local(RunConfig(seed=3, pin_map={0: 1, 1: 0, 2: 2}))
    runner._setup()
    from hilsim.harness.runner import StepFailure

    with pytest.raises(StepFailure, match="pin 0 miswired"):
        runner.wiring_check([0, 1])


def late_timer_bench(self, args) -> dict:
    """``timer_bench`` with every handler firing 60 us later than the DUT's own: the delays grow
    by one handler overhead per timer, as they should, but from 90 us instead of 30 us."""
    n_timers, period_ns, pin = args
    target = self.clock.now + period_ns
    self._toggle_train(pin, [target + 60_000 + (i + 1) * HANDLER_OVERHEAD_NS for i in range(n_timers)])
    return {"result": SUCCESS, "data": target}


def test_handlers_that_all_fire_late_fail_the_overlap_case(monkeypatch):
    monkeypatch.setitem(dut._COMMANDS, "timer_bench", late_timer_bench)
    cases = {c.id: c for c in run_suite("gpio_timer").cases}
    overlap = cases.pop("timer.overlap_delay")
    assert overlap.verdict == FAIL
    first = overlap.measured["delays_ns"][0]
    assert abs(first - 90_000) <= 100
    assert overlap.reason == f"first overlap delay {first:.0f} ns outside 10% of 30000 ns"
    assert overlap.measured["slope_ns_per_timer"] == pytest.approx(30_000, rel=0.10)
    assert {c.verdict for c in cases.values()} == {PASS}


def spaced_timer_bench(first_ns, spacing_ns):
    """``timer_bench`` whose k-th handler (from 0) fires ``first_ns + k * spacing_ns(n_timers)`` past the target."""

    def timer_bench(self, args) -> dict:
        n_timers, period_ns, pin = args
        target = self.clock.now + period_ns
        step = spacing_ns(n_timers)
        self._toggle_train(pin, [target + first_ns + i * step for i in range(n_timers)])
        return {"result": SUCCESS, "data": target}

    return timer_bench


def failed_cases(monkeypatch, command, handler, suite) -> dict:
    """The reasons of the cases of a local ``suite`` run that fail with ``command`` answered by ``handler``."""
    monkeypatch.setitem(dut._COMMANDS, command, handler)
    return {c.id: c.reason for c in run_suite(suite).failed}


def test_a_toggle_that_answers_success_but_drives_nothing_fails_the_wiring_case(monkeypatch):
    failed = failed_cases(monkeypatch, "gpio_toggle", lambda self, args: {"result": SUCCESS}, "infrastructure")
    reason = "; ".join(f"no edges observed on pin {pin}" for pin in range(3))
    assert failed == {"infra.wiring": reason}


def test_handlers_that_bunch_up_as_more_timers_share_a_target_fail_the_overlap_case_as_not_monotone(monkeypatch):
    bunching = spaced_timer_bench(HANDLER_OVERHEAD_NS, lambda n: 10_000 if n >= 5 else HANDLER_OVERHEAD_NS)
    failed = failed_cases(monkeypatch, "timer_bench", bunching, "gpio_timer")
    assert list(failed) == ["timer.overlap_delay"]
    assert failed["timer.overlap_delay"].startswith("overlap delay not monotone: [")


def test_handlers_spaced_40_us_apart_fail_the_overlap_case_on_its_slope(monkeypatch):
    slow = spaced_timer_bench(HANDLER_OVERHEAD_NS, lambda n: 40_000)
    failed = failed_cases(monkeypatch, "timer_bench", slow, "gpio_timer")
    assert failed == {"timer.overlap_delay": "overlap-delay slope 39997 ns/timer outside 10% of 30000 ns"}


def test_a_metadata_check_fails_a_descriptor_that_lacks_the_text():
    runner = SuiteRunner.local(RunConfig(seed=1))
    case = runner.run_case({"id": "meta", "steps": [{"op": "metadata_check", "expect_contains": "no_such_board"}]})
    assert (case.verdict, case.reason) == (FAIL, f"firmware descriptor {METADATA!r} lacks 'no_such_board'")


def test_overlap_delay_scales_linearly():
    runner = SuiteRunner.local(RunConfig(seed=4))
    runner._setup()
    delays, slope = runner.overlap_delay_test(10, 1_000_000, 0)
    assert len(delays) == 10
    assert 270_000 <= delays[-1] <= 330_000
    assert slope == pytest.approx(30_000, rel=0.10)


def test_a_device_that_raises_fails_its_case_locally_as_it_does_served(dut_raising_on_toggle, map_dir):
    """Served, the raising handler drops its connection and the DUT client reads ``Timeout``;
    locally, the transport turns the exception into the same ``TransportError``."""
    local = run_suite("infrastructure")
    bench = make_bench()
    with conftest.served(bench.refdev, bench.dut) as [ref, dut]:  # qualified, as `served` names the report
        served = run_suite("infrastructure", dut.endpoint, ref.endpoint, map_dir=map_dir)
    failed = [(c.id, c.reason) for c in local.failed]
    assert failed == [("infra.wiring", "gpio_toggle 0: expected result 'Success', got 'Timeout'")]
    outcomes = [[(c.id, c.verdict, c.reason, c.measured) for c in report.cases] for report in (local, served)]
    assert outcomes[0] == outcomes[1]
    assert local.infrastructure_error == served.infrastructure_error == ""


# -- 32-bit trace ticks across a wrap -----------------------------------

U32 = 1 << 32


def runner_at(clock_ns=None):
    """A set-up local runner, its clock advanced to ``clock_ns`` if given."""
    runner = SuiteRunner.local(RunConfig(seed=4))
    runner._setup()
    if clock_ns is not None:
        runner.bench.clock.advance_to(clock_ns)
    return runner


def test_timer_accuracy_across_a_tick_wrap_reads_what_a_fresh_bench_reads():
    stats = runner_at(U32 - 50_000_000).timer_accuracy(1_000_000, 128, 0)
    assert abs(stats.ppm_error) < 1
    assert stats.mean_period_ns == pytest.approx(2_000_000, abs=2)


def test_overlap_delays_across_a_tick_wrap_grow_by_one_handler_per_timer():
    delays, slope = runner_at(U32 - 3_000).overlap_delay_test(5, 1_000_000, 0)
    assert delays == sorted(delays)
    assert 20_000 <= delays[0] <= 40_000
    assert slope == pytest.approx(30_000, rel=0.10)


def test_a_capture_spanning_more_than_one_tick_wrap_reads_its_mean_period():
    runner = runner_at()
    stats = runner.timer_accuracy(40_000_000, 128, 0)  # 127 toggles of 40 ms: 5.08 s, past 2^32 ns
    events = [e for e in runner.bench.trace.trace.events if e.pin == 0 and e.level == 1]
    assert events[-1].timestamp_ns - events[0].timestamp_ns > U32
    assert stats.mean_period_ns == (events[-1].timestamp_ns - events[0].timestamp_ns) / (len(events) - 1)
    assert abs(stats.ppm_error) < 1


# -- reports ------------------------------------------------------------


def sample_report():
    return TestReport(
        suite="demo",
        cases=[
            CaseResult(id="a", suite="demo", category="usage", verdict=PASS),
            CaseResult(id="b", suite="demo", category="negative", verdict=FAIL, reason="boom"),
            CaseResult(id="c", suite="demo", category="mode", verdict=SKIP, reason="unsupported"),
        ],
    )


def test_report_totals_and_exit_codes():
    report = sample_report()
    assert report.totals == {"pass": 1, "fail": 1, "skip": 1}
    assert report.exit_code() == 1
    assert TestReport(suite="x").exit_code() == 0
    assert TestReport(suite="x", infrastructure_error="down").exit_code() == 2


def test_json_report_roundtrip():
    doc = json.loads(emit_report(sample_report(), "json"))
    assert doc["totals"] == {"pass": 1, "fail": 1, "skip": 1}
    verdicts = [c["verdict"] for c in doc["cases"]]
    assert verdicts == ["pass", "fail", "skip"]
    assert doc["cases"][1]["reason"] == "boom"


def test_json_report_text_keeps_its_key_order():
    report = TestReport(
        suite="demo",
        cases=[
            CaseResult(id="a", suite="demo", category="usage", verdict=PASS, measured={"t": {"mean_ns": 1.5}, "d": [1, 2]}),
            CaseResult(id="b", suite="demo", category="negative", verdict=FAIL, reason="boom"),
        ],
        wall_time_s=0.25,
        sim_time_ns=42,
    )
    expected = {
        "suite": "demo",
        "cases": [
            {"id": "a", "suite": "demo", "category": "usage", "verdict": "pass",
             "measured": {"t": {"mean_ns": 1.5}, "d": [1, 2]}, "reason": ""},
            {"id": "b", "suite": "demo", "category": "negative", "verdict": "fail", "measured": {}, "reason": "boom"},
        ],
        "totals": {"pass": 1, "fail": 1, "skip": 0},
        "wall_time_s": 0.25,
        "sim_time_ns": 42,
        "infrastructure_error": "",
    }
    assert emit_report(report, "json") == json.dumps(expected, indent=2)


def test_table_report_contains_verdicts():
    text = emit_report(sample_report(), "table")
    assert "FAIL" in text and "boom" in text
    assert "1 passed, 1 failed, 1 skipped" in text


def test_table_report_of_an_infrastructure_error_leads_with_it():
    text = emit_report(TestReport(suite="x", infrastructure_error="down"), "table")
    assert text.splitlines() == ["INFRASTRUCTURE ERROR: down", "0 passed, 0 failed, 0 skipped  [wall 0.00 s, sim 0.00 ms]"]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(sample_report(), "yaml")


def test_unreachable_endpoint_is_infrastructure_error(tmp_path):
    report = run_suite("i2c", "127.0.0.1:1", "127.0.0.1:1", str(tmp_path))
    assert report.infrastructure_error
    assert report.exit_code() == 2


def test_a_remote_run_refuses_a_bench_field_but_takes_unsupported_modes(tmp_path):
    remote = ("127.0.0.1:1", "127.0.0.1:1", str(tmp_path))
    with pytest.raises(ValueError, match="so seed, pin_map cannot be set here"):
        run_suite("i2c", *remote, RunConfig(seed=1, pin_map={0: 1}))
    report = run_suite("i2c", *remote, RunConfig(unsupported_modes=("10bit",)))
    assert report.infrastructure_error == "reference device 127.0.0.1:1: endpoint unreachable"
