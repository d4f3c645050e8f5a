"""The ``ref_execute`` and ``dut_data_equals_ref`` step ops, from a manifest loaded by path."""

from pathlib import Path

from hilsim.harness import RunConfig, SuiteRunner
from hilsim.harness.report import FAIL, PASS

from conftest import Tap

MANIFEST = Path(__file__).parent / "manifests" / "step_ops.json"


def test_each_op_passes_one_case_and_fails_the_other():
    runner = SuiteRunner.local(RunConfig(seed=2))
    refusals = iter(['{"result": 4}'])  # the first ex gets an internal error, as a failed re-init does
    runner.phil.transport = Tap(runner.bench.refdev, lambda line: next(refusals, None) if line == "ex" else None)
    report = runner.run_suite(str(MANIFEST))
    assert report.suite == "step_ops"
    assert [(c.id, c.verdict, c.reason) for c in report.cases] == [
        ("ref_execute.refused", FAIL, "execute: device result 4"),
        ("ref_execute.commits_and_lowers_the_init_flag", PASS, ""),
        ("dut_data_equals_ref.same_bytes", PASS, ""),
        (
            "dut_data_equals_ref.one_byte_apart",
            FAIL,
            "i2c_read_reg 85 0 2: DUT data [1, 2] != reference [2, 3] (user_reg.user_reg)",
        ),
    ]
