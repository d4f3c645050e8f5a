"""A reply of a shape the harness cannot use fails its own case, never the whole suite run."""

import gc
import json
import warnings

import pytest

from hilsim.harness import RunConfig, SuiteRunner, run_suite
from hilsim.harness.report import FAIL, PASS
from hilsim.harness.runner import StepFailure, json_equal
from hilsim.memmap import emit_csv
from hilsim.pal import ERROR, SUCCESS, DutClient, RefDeviceClient, _reset_writes
from hilsim.reference import reference_layout

from conftest import Tap, make_bench, nested_reply, served


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


class Answering(Tap):
    """Answers every line starting with ``word`` with the text ``reply``; ``device`` answers the rest."""

    def __init__(self, device, word, reply):
        super().__init__(device, lambda line: reply if line.split()[0] == word else None)


@pytest.mark.parametrize("reply", ["[1]", '"x"', "7", "null", "true"])
def test_a_dut_reply_that_is_no_json_object_is_an_error_quoting_it(reply):
    dut = DutClient(Answering(None, "i2c_init", reply))
    assert dut.command("i2c_init") == {"cmd": ["i2c_init"], "result": ERROR, "error": f"malformed reply {reply!r}"}


@pytest.mark.parametrize("reply", ["[1]", '"x"', "7", "null"])
def test_a_dut_reply_that_is_no_json_object_fails_its_cases_and_the_suite_finishes(reply):
    runner = local_runner()
    runner.dut.transport = Answering(runner.bench.dut, "i2c_init", reply)
    report = runner.run_suite("i2c")
    assert [c.verdict for c in report.cases] == [FAIL] * len(report.cases)
    assert report.cases[0].reason == "i2c_init: expected result 'Success', got 'Error'"


# -- a reply nested past the recursion limit ------------------------------


def verdicts(report):
    return {c.id: (c.verdict, c.reason) for c in report.cases}


@pytest.fixture(scope="module")
def unaltered_spi():
    return verdicts(local_runner().run_suite("spi"))


def test_a_nested_reply_is_no_json_object():
    assert len(nested_reply({"result": 0})) < 2100
    with pytest.raises(RecursionError):
        json.loads(nested_reply({"result": 0}))
    reply = nested_reply({"result": SUCCESS})
    assert DutClient(Answering(None, "sync", reply)).sync() == {
        "cmd": ["sync"],
        "result": ERROR,
        "error": f"malformed reply {reply[:80]!r}",
    }


@pytest.mark.parametrize(
    "endpoint,word,fields,reason",
    [
        ("dut", "spi_transfer", {"cmd": ["spi_transfer 133 42"], "result": SUCCESS, "data": [0, 0]},
         lambda reply: "spi_transfer 133 42: expected result 'Success', got 'Error'"),
        ("ref", "rr", {"result": 0, "data": 1},
         lambda reply: f"reference device lost: malformed reply {reply[:80]!r}"),
    ],
    ids=["dut", "ref"],
)
def test_a_reply_nested_past_the_recursion_limit_fails_only_its_case(unaltered_spi, endpoint, word, fields, reason):
    runner = local_runner()
    reply = nested_reply(fields)
    replies = iter([reply])

    def first_answered(line):
        """``reply`` to the first line starting with ``word``; the device answers the rest."""
        return next(replies, None) if line.split()[0] == word else None

    if endpoint == "dut":
        runner.dut.transport = Tap(runner.bench.dut, first_answered)
    else:
        runner.phil.transport = Tap(runner.bench.refdev, first_answered)
    got = verdicts(runner.run_suite("spi"))
    assert got.pop("spi.usage.roundtrip") == (FAIL, reason(reply))
    assert got == {k: v for k, v in unaltered_spi.items() if k != "spi.usage.roundtrip"}


# -- values of another JSON type --------------------------------------------


@pytest.mark.parametrize(
    "line,key,value,wanted,case_id",
    [
        ("spi_transfer 5 0", "data", [0.0, 42.0], [0, 42], "spi.usage.roundtrip"),
        ("spi_transfer 5 0", "data", [False, 42], [0, 42], "spi.usage.roundtrip"),
        ("spi_transfer 133 42", "data", [0, 1], [0, 0], "spi.usage.roundtrip"),  # the write frame's reply
        ("spi_transfer 133 42", "data", [0.0, 0.0], [0, 0], "spi.usage.roundtrip"),
        ("spi_init 7", "error_code", -22.0, -22, "spi.negative.bad_mode"),
    ],
)
def test_a_reply_value_of_another_json_type_fails_only_its_case(unaltered_spi, line, key, value, wanted, case_id):
    altered = []

    def alter(sent, fields):
        if sent != line or altered:
            return None
        altered.append(sent)
        return {**fields, key: value}

    runner = local_runner()
    runner.dut.transport = ReplyFilter(runner.bench.dut, alter)
    got = verdicts(runner.run_suite("spi"))
    assert altered == [line]
    assert got.pop(case_id) == (FAIL, f"{line}: expected {key} {wanted!r}, got {value!r}")
    assert got == {k: v for k, v in unaltered_spi.items() if k != case_id}


@pytest.mark.parametrize(
    "got,wanted,equal",
    [
        ({"a": True}, {"a": 1}, False),
        ({"a": 1.0}, {"a": 1}, False),
        ({"a": [0, 1]}, {"a": [0, True]}, False),
        ({"a": 1}, {"a": 1, "b": 2}, False),
        ({"a": 1, "b": [2]}, {"b": [2], "a": 1}, True),
        ([{"a": 1}], [{"a": 1}], True),
    ],
)
def test_json_equal_compares_objects_key_by_key(got, wanted, equal):
    assert json_equal(got, wanted) is equal
    assert json_equal(wanted, got) is equal


DATA_EQUALS_REF = {
    "id": "dut_data_equals_ref.one_byte",
    "steps": [
        {"op": "ref_write_execute", "name": "user_reg.user_reg", "value": 1},
        {"op": "dut", "cmd": "i2c_init"},
        {"op": "dut_data_equals_ref", "cmd": "i2c_read_reg", "args": [85, 0, 1], "name": "user_reg.user_reg"},
    ],
}


def run_data_equals_ref(data):
    """Run the one-byte ``dut_data_equals_ref`` case with the DUT's read data replaced by ``data``."""

    def alter(line, fields):
        return {**fields, "data": data} if line.startswith("i2c_read_reg") else None

    runner = local_runner()
    runner.dut.transport = ReplyFilter(runner.bench.dut, alter)
    result = runner.run_case(DATA_EQUALS_REF)
    return result.verdict, result.reason


@pytest.mark.parametrize("data", [[1], 1])
def test_dut_data_equals_ref_passes_the_same_integer(data):
    assert run_data_equals_ref(data) == (PASS, "")


@pytest.mark.parametrize("data", [[True], True, [1.0], 1.0])
def test_dut_data_equals_ref_fails_a_value_of_another_json_type(data):
    shown = data if isinstance(data, list) else [data]
    assert run_data_equals_ref(data) == (
        FAIL,
        f"i2c_read_reg 85 0 1: DUT data {shown} != reference [1] (user_reg.user_reg)",
    )


# -- a reference result that is no JSON integer 0 ---------------------------

NOT_INTEGER_ZERO = [False, 0.0, "0"]

REFERENCE_CALLS = {
    "read_reg": lambda client: client.read_reg("i2c.r_count"),
    "write_reg": lambda client: client.write_reg("user_reg.user_reg", 1),
    "execute": lambda client: client.execute(),
    "write_and_execute": lambda client: client.write_and_execute("i2c.mode.nack_data", 1),
}
# a run of several lines names the refused one, here the first, before the device's error
REFUSED_LINE = {"write_and_execute": "write at 191: "}


@pytest.mark.parametrize("result", NOT_INTEGER_ZERO)
@pytest.mark.parametrize("call", REFERENCE_CALLS)
def test_a_result_that_is_no_json_integer_0_fails_a_reference_call(call, result):
    runner = local_runner()
    runner.phil.transport = ReplyFilter(runner.bench.refdev, lambda line, fields: {**fields, "result": result})
    got = REFERENCE_CALLS[call](runner.phil)
    assert (got.result, got.error) == (ERROR, f"{REFUSED_LINE.get(call, '')}device result {result!r}")


@pytest.mark.parametrize("result", NOT_INTEGER_ZERO)
def test_a_result_that_is_no_json_integer_0_fails_connect(result):
    runner = local_runner()
    runner.phil.transport = ReplyFilter(runner.bench.refdev, lambda line, fields: {**fields, "result": result})
    sent = json.dumps({"version": "1.2.3", "result": result})
    got = runner.phil.connect()
    assert (got.result, got.error) == (ERROR, f"no version in reply {sent!r}")


@pytest.mark.parametrize("result", NOT_INTEGER_ZERO)
def test_a_served_reset_fails_its_case_on_a_write_result_that_is_no_json_integer_0(result):
    runner = local_runner()

    def alter(line, fields):
        return {**fields, "result": result} if line.startswith("wr") else None

    phil = RefDeviceClient(ReplyFilter(runner.bench.refdev, alter), runner.phil.map)
    served = SuiteRunner(runner.dut, phil)  # no bench, so each case resets both devices over the wire
    case = served.run_case({"id": "reset.only", "steps": []})
    first = _reset_writes(phil.map)[0].split()[1]
    assert (case.verdict, case.reason) == (FAIL, f"soft reset: write at {first}: device result {result!r}")


# -- a refused line in a run of reference writes ------------------------------


def refusing(runner, n):
    """Send the runner's reference lines through a filter that answers the ``n``-th (from 0) with
    result 3; return the list of lines sent."""
    sent = []

    def alter(line, fields):
        sent.append(line)
        return {**fields, "result": 3} if len(sent) == n + 1 else None

    runner.phil.transport = ReplyFilter(runner.bench.refdev, alter)
    return sent


@pytest.mark.parametrize(
    ("n", "error"),
    [(0, "write at 191: device result 3"), (1, "write at 184: device result 3"), (2, "execute: device result 3")],
    ids=["value", "init flag", "ex"],
)
def test_a_refused_line_ends_write_and_execute_and_is_named(n, error):
    runner = local_runner()
    sent = refusing(runner, n)
    got = runner.phil.write_and_execute("i2c.mode.nack_data", 1)
    assert (got.result, got.error) == (ERROR, error)
    assert got.cmd == sent == ["wr 191 1", "wr 184 1", "ex"][: n + 1]  # the value, i2c.mode.init, ex


@pytest.mark.parametrize(
    ("n", "error"),
    [(0, "write at 52: device result 3"), (8, "write at 630: device result 3"), (16, "execute: device result 3")],
    ids=["first write", "middle write", "ex"],
)
def test_a_refused_line_ends_restore_defaults_and_is_named(n, error):
    runner = local_runner()
    sent = refusing(runner, n)
    got = runner.phil.restore_defaults()
    assert (got.result, got.error) == (ERROR, error)
    assert got.cmd == sent == [*_reset_writes(runner.phil.map), "ex"][: n + 1]


# -- a -v reply that names no version -----------------------------------------

UNUSABLE_VERSION_REPLIES = [
    nested_reply({"version": "1.2.3", "result": 0}),
    '{"version": "1.2.3", "result": 4}',
    '{"version": 123, "result": 0}',
    "garbage",
]


@pytest.mark.parametrize("reply", UNUSABLE_VERSION_REPLIES, ids=["nested", "result 4", "version 123", "garbage"])
def test_a_version_reply_without_a_usable_version_is_an_error_not_a_timeout(reply):
    runner = local_runner()
    runner.phil.transport = Answering(runner.bench.refdev, "-v", reply)
    got = runner.phil.connect()
    assert (got.result, got.error) == (ERROR, f"no version in reply {reply[:80]!r}")


@pytest.mark.parametrize("reply", UNUSABLE_VERSION_REPLIES, ids=["nested", "result 4", "version 123", "garbage"])
def test_run_suite_fails_every_case_of_a_device_without_a_usable_version(map_dir, reply):
    bench = make_bench(seed=5)
    with served(bench.dut, Answering(bench.refdev, "-v", reply)) as [dut, ref]:
        report = run_suite("infrastructure", dut.endpoint, ref.endpoint, map_dir)
    assert (report.infrastructure_error, report.exit_code()) == ("", 1)
    reason = f"reference device connect failed: no version in reply {reply[:80]!r}"
    assert [c.reason for c in report.cases] == [reason] * 3


def test_run_suite_with_an_unreachable_dut_is_an_infrastructure_error_naming_it(map_dir):
    with served(make_bench(seed=5).refdev) as [ref]:
        report = run_suite("infrastructure", "127.0.0.1:1", ref.endpoint, map_dir)
    assert (report.infrastructure_error, report.exit_code()) == ("DUT 127.0.0.1:1: no reply to sync", 2)


def test_run_suite_with_an_unreachable_reference_device_is_an_infrastructure_error_naming_it(map_dir):
    with served(make_bench(seed=5).dut) as [dut]:
        report = run_suite("infrastructure", dut.endpoint, "127.0.0.1:1", map_dir)
    expected = "reference device 127.0.0.1:1: endpoint unreachable"
    assert (report.infrastructure_error, report.exit_code()) == (expected, 2)


def test_run_suite_fails_every_case_of_a_reachable_dut_that_answers_sync_with_garbage(map_dir):
    bench = make_bench(seed=5)
    with served(Answering(bench.dut, "sync", "garbage"), bench.refdev) as [dut, ref]:
        report = run_suite("infrastructure", dut.endpoint, ref.endpoint, map_dir)
    assert (report.infrastructure_error, report.exit_code()) == ("", 1)
    assert [c.reason for c in report.cases] == ["DUT sync failed"] * 3


def test_run_suite_fails_every_case_of_a_served_dut_that_refuses_its_reset(map_dir):
    bench = make_bench(seed=5)
    with served(Answering(bench.dut, "reset", '{"cmd": ["reset"], "result": "Error"}'), bench.refdev) as [dut, ref]:
        report = run_suite("infrastructure", dut.endpoint, ref.endpoint, map_dir)
    assert (report.infrastructure_error, report.exit_code()) == ("", 1)
    assert [c.reason for c in report.cases] == ["DUT reset failed"] * 3


@pytest.mark.parametrize("directory", ["ref_device_version.txt", "ref_device_1.2.3.csv"])
def test_run_suite_with_a_map_file_that_is_a_directory_is_an_infrastructure_error_naming_it(tmp_path, directory):
    """A version file is read as the map store is built, a map file as the first ``-v`` names its version."""
    if directory == "ref_device_version.txt":
        (tmp_path / "ref_device_map.csv").write_text(emit_csv(reference_layout()), "utf-8")
    (tmp_path / directory).mkdir()
    bench = make_bench(seed=5)
    with served(bench.dut, bench.refdev) as [dut, ref]:
        report = run_suite("infrastructure", dut.endpoint, ref.endpoint, str(tmp_path))
    expected = f"[Errno 21] Is a directory: '{tmp_path / directory}'"
    assert (report.infrastructure_error, report.exit_code()) == (expected, 2)


def resource_warnings(call):
    """``call()``'s result and the ``ResourceWarning``s of what it left for the garbage collector."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = call()
        gc.collect()
    return result, [str(w.message) for w in caught if w.category is ResourceWarning]


@pytest.mark.parametrize("reachable", [True, False], ids=["served", "unreachable reference device"])
def test_run_suite_closes_the_connections_it_opens(map_dir, reachable):
    bench = make_bench(seed=5)
    with served(bench.dut, bench.refdev) as [dut, ref]:
        ref = ref.endpoint if reachable else "127.0.0.1:1"
        report, unclosed = resource_warnings(lambda: run_suite("infrastructure", dut.endpoint, ref, map_dir))
    assert (report.exit_code(), unclosed) == (0 if reachable else 2, [])
