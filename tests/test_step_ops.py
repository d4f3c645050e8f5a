"""The ``ref_execute`` and ``dut_data_equals_ref`` step ops, from a manifest loaded by path."""

from pathlib import Path

from hilsim.harness import RunConfig, SuiteRunner
from hilsim.harness.report import FAIL, PASS

MANIFEST = Path(__file__).parent / "manifests" / "step_ops.json"


class RefusingFirstExecute:
    """Serves a device in process, but answers its first ``ex`` with an internal error, as a failed re-init does."""

    def __init__(self, device):
        self.device = device
        self.refused = False

    def request(self, line):
        if line == "ex" and not self.refused:
            self.refused = True
            return '{"result": 4}'
        return self.device.handle_line(line)

    def close(self):
        pass


def test_each_op_passes_one_case_and_fails_the_other():
    runner = SuiteRunner.local(RunConfig(seed=2))
    runner.phil.transport = RefusingFirstExecute(runner.bench.refdev)
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
