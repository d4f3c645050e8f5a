"""A reply of a shape the harness cannot use fails its own case, never the whole suite run."""

import json

import pytest

from hilsim.harness import RunConfig, SuiteRunner
from hilsim.harness.report import FAIL, PASS
from hilsim.harness.runner import StepFailure
from hilsim.pal import ERROR, TIMEOUT, DutClient


class ReplyFilter:
    """Serves a device in process, passing each reply through ``alter(line, fields)``.

    ``alter`` returns the fields to send instead, or None to send the device's reply unchanged.
    """

    def __init__(self, device, alter):
        self.device = device
        self.alter = alter

    def request(self, line):
        reply = self.device.handle_line(line)
        altered = self.alter(line, json.loads(reply))
        return reply if altered is None else json.dumps(altered)

    def close(self):
        pass


def local_runner(seed=5):
    runner = SuiteRunner.local(RunConfig(seed=seed))
    assert runner.phil.connect().ok
    return runner


# -- the reference device's rr reply ------------------------------------


def cut_to_one_byte(line, fields):
    if line.startswith("rr") and isinstance(fields.get("data"), list):
        return {**fields, "data": fields["data"][:1]}
    return None


def test_a_short_rr_reply_fails_its_cases_and_the_suite_finishes():
    runner = local_runner()
    runner.phil.transport = ReplyFilter(runner.bench.refdev, cut_to_one_byte)
    cases = {c.id: c for c in runner.run_suite("gpio_timer").cases}
    assert cases["gpio.set_level"].verdict == PASS  # reads one byte
    for case_id in ("gpio.trace_count", "timer.accuracy", "timer.overlap_delay"):
        assert cases[case_id].verdict == FAIL
        assert cases[case_id].reason.startswith("read_reg trace.index: malformed reply '{\"data\": ["), case_id


@pytest.mark.parametrize(
    "name,count,data",
    [
        ("i2c.start_time", 1, [1, 2, 3]),  # short
        ("i2c.start_time", 1, list(range(9))),  # long
        ("i2c.start_time", 1, 5),  # a bare int for a multi-byte read
        ("i2c.start_time", 1, [0, 0, 0, 0, 0, 0, 0, 256]),  # a byte out of range
        ("i2c.start_time", 1, [0, 0, 0, 0, 0, 0, 0, -1]),
        ("i2c.start_time", 1, ["0"] * 8),  # elements of the wrong type
        ("i2c.start_time", 1, [0.0] * 8),
        ("i2c.start_time", 1, "\u0000" * 8),  # a string of the right length
        ("i2c.start_time", 1, {str(i): 0 for i in range(8)}),
        ("i2c.start_time", 1, None),
        ("i2c.r_count", 1, 256),
        ("i2c.r_count", 1, -1),
        ("i2c.r_count", 1, True),
        ("i2c.r_count", 1, "7"),
        ("i2c.r_count", 1, []),
        ("i2c.r_count", 1, [7, 0]),
        ("trace.source", 4, [0, 0, 0]),
        ("i2c.start_time", 1, [True] + [0] * 7),  # JSON true and false are no bytes
        ("i2c.start_time", 1, [False] * 8),
        ("trace.index", 1, [True, False, False, False]),
        ("i2c.r_count", 1, [True]),
        ("i2c.r_count", 1, [False]),
    ],
)
def test_read_regs_returns_an_error_for_a_reply_of_the_wrong_shape(name, count, data):
    runner = local_runner()
    client = runner.phil
    client.transport = ReplyFilter(runner.bench.refdev, lambda line, fields: {**fields, "data": data})
    result = client.read_regs((name,), count)
    assert result.result == ERROR
    sent = json.dumps({"data": data, "result": 0})
    assert result.error == f"malformed reply {sent[:80]!r}"


def test_read_regs_names_a_reply_without_data():
    runner = local_runner()
    runner.phil.transport = ReplyFilter(runner.bench.refdev, lambda line, fields: {"result": 0})
    result = runner.phil.read_regs(("i2c.r_count",), 1)
    assert (result.result, result.error) == (ERROR, "malformed reply '{\"result\": 0}'")


def test_read_regs_quotes_at_most_80_characters_of_the_reply():
    runner = local_runner()
    runner.phil.transport = ReplyFilter(runner.bench.refdev, lambda line, fields: {**fields, "data": [0] * 100})
    result = runner.phil.read_regs(("trace.source",), 4)
    assert not result.ok
    assert len(result.error) == len("malformed reply ") + 82


@pytest.mark.parametrize("data", [7, [7]])
def test_read_regs_takes_a_one_byte_read_as_a_bare_int_or_a_list_of_one(data):
    runner = local_runner()
    runner.phil.transport = ReplyFilter(runner.bench.refdev, lambda line, fields: {**fields, "data": data})
    assert runner.phil.read_reg("i2c.r_count").data == [7]


# -- the DUT's timer_bench reply ----------------------------------------


@pytest.mark.parametrize("data", ["missing", None, "1000", 1000.0, [1000], True])
def test_a_timer_bench_reply_without_an_integer_data_fails_the_overlap_case(data):
    def drop_data(line, fields):
        if not line.startswith("timer_bench"):
            return None
        fields.pop("data")
        return fields if data == "missing" else {**fields, "data": data}

    runner = local_runner()
    runner.dut.transport = ReplyFilter(runner.bench.dut, drop_data)
    cases = {c.id: c for c in runner.run_suite("gpio_timer").cases}
    overlap = cases.pop("timer.overlap_delay")
    assert overlap.verdict == FAIL
    assert overlap.reason.startswith("timer_bench n=1: no integer data in reply {")
    assert [c.verdict for c in cases.values()] == [PASS] * len(cases)


# -- the DUT's timer_trace reply ----------------------------------------


@pytest.mark.parametrize("data", ["missing", None, 127, 129, 0, "128", [128], 128.0])
def test_a_timer_trace_reply_whose_data_is_not_the_edge_count_fails_the_accuracy_case(data):
    def alter_data(line, fields):
        if not line.startswith("timer_trace"):
            return None
        assert fields.pop("data") == 128
        return fields if data == "missing" else {**fields, "data": data}

    runner = local_runner()
    runner.dut.transport = ReplyFilter(runner.bench.dut, alter_data)
    cases = {c.id: c for c in runner.run_suite("gpio_timer").cases}
    accuracy = cases.pop("timer.accuracy")
    assert accuracy.verdict == FAIL
    got = None if data == "missing" else data
    assert accuracy.reason == f"timer_trace: expected data 128, got {got!r}"
    assert [c.verdict for c in cases.values()] == [PASS] * len(cases)


def test_a_timer_trace_reply_of_true_is_no_count_of_one_edge():
    def true_data(line, fields):
        return {**fields, "data": True} if line.startswith("timer_trace") else None

    runner = local_runner()
    runner.dut.transport = ReplyFilter(runner.bench.dut, true_data)
    with pytest.raises(StepFailure, match=r"^timer_trace: expected data 1, got True$"):
        runner.timer_accuracy(20_000, 1, 0)


# -- a DUT reply that is JSON but no object -----------------------------


class Answering:
    """Answers every line starting with ``word`` with the text ``reply``; ``device`` answers the rest."""

    def __init__(self, device, word, reply):
        self.device, self.word, self.reply = device, word, reply

    def request(self, line):
        return self.reply if line.split()[0] == self.word else self.device.handle_line(line)

    def close(self):
        pass


@pytest.mark.parametrize("reply", ["[1]", '"x"', "7", "null", "true"])
def test_a_dut_reply_that_is_no_json_object_is_a_timeout(reply):
    dut = DutClient(Answering(None, "i2c_init", reply))
    assert dut.command("i2c_init") == {"cmd": ["i2c_init"], "result": TIMEOUT}


@pytest.mark.parametrize("reply", ["[1]", '"x"', "7", "null"])
def test_a_dut_reply_that_is_no_json_object_fails_its_cases_and_the_suite_finishes(reply):
    runner = local_runner()
    runner.dut.transport = Answering(runner.bench.dut, "i2c_init", reply)
    report = runner.run_suite("i2c")
    assert [c.verdict for c in report.cases] == [FAIL] * len(report.cases)
    assert report.cases[0].reason == "i2c_init: expected result 'Success', got 'Timeout'"
