"""Protocol abstraction layer: name maps, clients, and transports."""

import json
import random

import pytest

from hilsim.memmap import LayoutedMap, compute_layout, emit_csv, parse_config
from hilsim.pal import (
    DutClient,
    MapStore,
    RefDeviceClient,
    TransportError,
    open_transport,
)
from hilsim.refdev import ReferenceDevice
from hilsim.reference import reference_layout
from hilsim.wire import REF_SUCCESS_REPLY, SUCCESS, dut_success_text

from conftest import Tap, csv_map


@pytest.fixture(scope="module")
def layout():
    return reference_layout()


@pytest.fixture(scope="module")
def name_map():
    return csv_map()


@pytest.fixture
def client(bench, name_map):
    c = RefDeviceClient(bench.refdev, name_map)
    assert c.connect().ok
    return c


# -- name map and map store ---------------------------------------------


def test_name_map_lookup(name_map):
    entry = name_map.lookup("i2c.r_count")
    assert (entry.offset, entry.size, entry.type) == (334, 1, "u8")
    with pytest.raises(KeyError, match="unknown parameter"):
        name_map.lookup("i2c.nope")


def test_map_store_version_from_filename(tmp_path, layout):
    (tmp_path / "dev_1.2.3.csv").write_text(emit_csv(layout), "utf-8")
    store = MapStore(tmp_path)
    assert store.versions() == ["1.2.3"]
    assert store.get("1.2.3").lookup("i2c.r_count").offset == 334


def test_map_store_version_from_sibling_file(tmp_path, layout):
    (tmp_path / "dev_map.csv").write_text(emit_csv(layout), "utf-8")
    (tmp_path / "dev_version.txt").write_text("1.2.3 abcd\n", "utf-8")
    store = MapStore(tmp_path)
    assert store.versions() == ["1.2.3"]


def test_map_store_unknown_version(tmp_path):
    with pytest.raises(KeyError):
        MapStore(tmp_path).get("9.9.9")


# -- connection ---------------------------------------------------------


def test_connect_binds_matching_map(bench, name_map):
    client = RefDeviceClient(bench.refdev, name_map)
    result = client.connect()
    assert result.ok and result.data == "1.2.3"


def test_connect_reports_missing_map_version(bench, tmp_path):
    client = RefDeviceClient(bench.refdev, MapStore(tmp_path))
    result = client.connect()
    assert not result.ok
    assert "1.2.3" in result.error


def test_connect_with_a_name_map_of_another_version_is_an_error(bench, name_map):
    client = RefDeviceClient(bench.refdev, LayoutedMap(name_map.entries, name_map.total_size, "9.9.9"))
    result = client.connect()
    assert (result.result, result.error) == ("Error", "no map for reported version '1.2.3'")


def test_unreachable_endpoint_is_timeout():
    client = RefDeviceClient("127.0.0.1:1", LayoutedMap((), 0, "1.2.3"))
    result = client.connect()
    assert result.result == "Timeout"


def test_open_transport_rejects_garbage():
    with pytest.raises(ValueError):
        open_transport("not-an-endpoint")


# -- read/write by name -------------------------------------------------


def test_read_reg_decodes_scalars(client, bench):
    assert client.read_reg("i2c.slave_addr_1").data == [85]
    bench.refdev.regs.poke_param("gpio0.rise_ticks", 0xDEADBEEF)
    assert client.read_reg("gpio0.rise_ticks").data == [0xDEADBEEF]


def test_read_reg_array_slice(client, bench):
    for i, b in enumerate((9, 8, 7)):
        bench.refdev.regs.poke_param("user_reg.user_reg", b, index=i)
    assert client.read_reg("user_reg.user_reg", 0, 3).data == [9, 8, 7]
    assert client.read_reg("user_reg.user_reg", 2).data == [7]


def test_read_reg_high_bit_stays_unsigned(client, bench):
    bench.refdev.regs.poke_param("i2c.slave_addr_2", 0x8001)
    assert client.read_reg("i2c.slave_addr_2").data == [0x8001]


def test_write_reg_stages_until_execute(client, bench):
    client.write_reg("i2c.mode.nack_data", 1)
    assert client.read_reg("i2c.mode.nack_data").data == [0]
    client.execute()
    assert client.read_reg("i2c.mode.nack_data").data == [1]


def test_write_reg_client_side_guards(client):
    assert not client.write_reg("sys.sn", 1).ok  # read-only
    assert not client.write_reg("i2c.mode.nack_data", 300).ok  # u8 range
    assert not client.write_reg("user_reg.user_reg", 1, index=500).ok  # index


def test_a_run_the_client_refuses_sends_nothing(bench, name_map):
    transport = Tap(bench.refdev)
    client = RefDeviceClient(transport, name_map)
    assert client.connect().ok
    transport.lines.clear()
    refused = [
        client.write_reg("i2c.mode.nack_data", 300),
        client.write_and_execute("i2c.mode.nack_data", 300),
        client.write_and_execute("i2c.nope", 1),
        client.write_and_execute("sys.sn", 1),
    ]
    assert [(r.ok, r.cmd) for r in refused] == [(False, [])] * 4
    assert transport.lines == []


def test_write_and_execute_wire_capture(bench, name_map, layout):
    """The staged-write command triple, verified against the raw wire log."""
    transport = Tap(bench.refdev)
    client = RefDeviceClient(transport, name_map)
    client.connect()
    transport.lines.clear()
    result = client.write_and_execute("i2c.mode.nack_data", 1)
    value_off = layout.lookup("i2c.mode.nack_data").offset
    init_off = layout.lookup("i2c.mode.init").offset
    expected = [f"wr {value_off} 1", f"wr {init_off} 1", "ex"]
    assert transport.lines == expected
    assert result.cmd == expected
    assert result.ok


def test_write_and_execute_triggers_reinit(client, bench):
    client.write_and_execute("i2c.mode.nack_data", 1)
    assert bench.i2c.nack_data is True


PWM_MAP = {
    "name": "pwm_bench",
    "version": "0.0.1",
    "modules": [
        {
            "name": "pwm",
            "parameters": [
                {"name": "duty", "description": "Duty cycle in percent."},
                {"name": "go", "description": "Re-read the configuration.", "flags": ["init-trigger"]},
            ],
        }
    ],
}


def test_write_and_execute_raises_the_init_flag_the_map_names():
    layout = compute_layout(parse_config(json.dumps(PWM_MAP)))
    device = ReferenceDevice(layout)
    seen = []
    device.register_init_hook("pwm", lambda: seen.append(device.regs.read_param("pwm.duty")))
    transport = Tap(device)
    client = RefDeviceClient(transport, layout)
    assert client.connect().ok
    duty, go = (layout.lookup(name).offset for name in ("pwm.duty", "pwm.go"))

    transport.lines.clear()
    assert client.write_and_execute("pwm.duty", 40).ok
    assert transport.lines == [f"wr {duty} 40", f"wr {go} 1", "ex"]
    assert seen == [40]

    transport.lines.clear()
    assert client.write_and_execute("pwm.go", 1).ok
    assert transport.lines == [f"wr {go} 1", "ex"]
    assert seen == [40, 40]


# -- name/address parity ------------------------------------------------


def test_name_address_parity_random_states(bench, name_map, layout):
    rng = random.Random(21)
    client = RefDeviceClient(bench.refdev, name_map)
    client.connect()
    for _ in range(10):
        bench.refdev.regs.poke(0, bytes(rng.randrange(256) for _ in range(2048)))
        for name in rng.sample(sorted(name_map.by_name), 40):
            entry = layout.lookup(name)
            named = client.read_reg(name, 0, entry.array_len).data
            raw = bench.refdev.regs.read(entry.offset, entry.size)
            signed = entry.type.startswith("i")
            decoded = [
                int.from_bytes(raw[i : i + entry.elem_size], "little", signed=signed)
                for i in range(0, len(raw), entry.elem_size)
            ]
            assert named == decoded, name


# -- DUT client ---------------------------------------------------------


def test_dut_client_methods(bench):
    dut = DutClient(bench.dut)
    assert dut.sync()["result"] == SUCCESS
    assert dut.command("i2c_init")["result"] == SUCCESS
    assert dut.command("i2c_write_reg 85 4 1 2")["result"] == SUCCESS
    assert dut.command("i2c_read_reg 85 4 2")["data"] == [1, 2]
    assert dut.gpio_toggle(0)["result"] == SUCCESS
    reply = dut.command("i2c_read_reg 99 0 1")
    assert reply["result"] == "Error" and reply["error_code"] == -6


class Replying:
    """Answers every line with ``reply(line)``, counting the replies the client JSON-decodes."""

    def __init__(self, reply, monkeypatch):
        self.reply = reply
        self.decoded = 0
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            self.decoded += 1
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)

    def request(self, line):
        return self.reply(line)

    def close(self):
        pass


def success_text(line):
    return json.dumps({"cmd": [line], "result": SUCCESS})


@pytest.mark.parametrize("line", ["sync", "gpio_toggle 0", "i2c_init"])
def test_the_dut_writes_its_plain_success_reply_as_the_text_the_client_matches(bench, line):
    reply = bench.dut.handle_line(line)
    assert reply == dut_success_text(line) == success_text(line)


@pytest.mark.parametrize("line", ['sync "quoted"', "sync back\\slash", "sync é", "sync ☃\U0001f600"])
def test_the_dut_success_text_is_the_json_encoding_of_the_success_reply(line):
    assert dut_success_text(line) == success_text(line)


def test_a_dut_success_reply_is_matched_as_text_into_a_fresh_dict(bench, monkeypatch):
    dut = DutClient(bench.dut)
    counted = Replying(bench.dut.handle_line, monkeypatch)
    dut.transport = counted
    first = dut.gpio_toggle(0)
    assert first == {"cmd": ["gpio_toggle 0"], "result": SUCCESS}
    first["result"] = "Changed"
    first["cmd"].append("changed")
    second = dut.gpio_toggle(0)
    assert second == {"cmd": ["gpio_toggle 0"], "result": SUCCESS}
    assert second is not first and second["cmd"] is not first["cmd"]
    assert counted.decoded == 0


@pytest.mark.parametrize(
    "line", ['get_metadata "quoted"', "get_metadata back\\slash", "get_metadata é", "get_metadata ☃\U0001f600"]
)
def test_a_dut_success_reply_to_a_line_that_needs_json_escaping_is_matched_as_text(line, monkeypatch):
    counted = Replying(success_text, monkeypatch)
    assert DutClient(counted).command(line) == {"cmd": [line], "result": SUCCESS}
    assert counted.decoded == 0


@pytest.mark.parametrize(
    "reply",
    [
        lambda line: json.dumps({"cmd": [line], "data": 1, "result": SUCCESS}),
        lambda line: json.dumps({"cmd": [line], "result": SUCCESS}, separators=(",", ":")),
        lambda line: json.dumps({"result": SUCCESS, "cmd": [line]}),
        lambda line: json.dumps({"cmd": [line], "result": "Error", "error_code": -22}),
        lambda line: json.dumps({"cmd": [line.strip()], "result": SUCCESS}),  # the DUT echoes the stripped line
        lambda line: json.dumps({"cmd": [line], "result": SUCCESS}, ensure_ascii=False),
    ],
    ids=["with-data", "compact", "keys-reordered", "error", "stripped-echo", "unescaped"],
)
def test_any_other_dut_reply_is_json_decoded(reply, monkeypatch):
    line = "get_metadata é "
    expected = json.loads(reply(line))
    counted = Replying(reply, monkeypatch)
    assert DutClient(counted).command(line) == expected
    assert counted.decoded == 1


@pytest.mark.parametrize(
    "reply",
    [
        lambda line: "[" + success_text(line) + "]",
        lambda line: success_text(line) + "x",
        lambda line: success_text(line)[:-1],
        lambda line: json.dumps(success_text(line)),
    ],
    ids=["in-a-list", "trailing-text", "cut-short", "as-a-string"],
)
def test_a_dut_reply_near_the_success_text_that_is_not_a_json_object_is_an_error_quoting_it(reply, monkeypatch):
    counted = Replying(reply, monkeypatch)
    error = f"malformed reply {reply('sync')!r}"
    assert DutClient(counted).command("sync") == {"cmd": ["sync"], "result": "Error", "error": error}
    assert counted.decoded == 1


# -- the reference device's success reply ----------------------------------


def test_the_device_writes_its_success_reply_as_the_text_the_client_matches(layout, monkeypatch):
    device = ReferenceDevice(layout)
    assert {device.handle_line(line) for line in ("wr 52 1", "wr 52 1", "ex")} == {REF_SUCCESS_REPLY}
    counted = Replying(device.handle_line, monkeypatch)
    client = RefDeviceClient(counted, layout)
    assert [client.raw(line) for line in ("wr 52 1", "ex")] == [{"result": 0}] * 2
    assert counted.decoded == 0

