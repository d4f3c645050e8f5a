"""Reference-device register file and line protocol."""

import json
import random
import string

import pytest

from hilsim.refdev import (
    AccessViolation,
    RangeViolation,
    ReferenceDevice,
    RegisterFile,
    ACCEPTED_WRITES,
    _parse_data,
)
from hilsim.memmap import LayoutedMap
from hilsim.memmap.layout import ACCESS_CODES
from hilsim.pal import _reset_writes
from hilsim.reference import reference_layout
from hilsim.wire import (
    RESULT_ACCESS_VIOLATION,
    RESULT_INTERNAL_ERROR,
    RESULT_OUT_OF_RANGE,
    RESULT_PARSE_ERROR,
    RESULT_SUCCESS,
)

from conftest import golden_exchanges


@pytest.fixture
def device():
    return ReferenceDevice(reference_layout())


# -- register file ------------------------------------------------------


def test_defaults_applied(device):
    regs = device.regs
    assert regs.read_param("i2c.slave_addr_1") == 85
    assert regs.read_param("uart.baud") == 115200


def test_staged_write_invisible_until_commit(device):
    regs = device.regs
    offset = device.regs.map.lookup("i2c.mode.nack_data").offset
    regs.stage_write(offset, b"\x01")
    assert regs.read(offset, 1) == b"\x00"
    regs.commit()
    assert regs.read(offset, 1) == b"\x01"


def test_commit_applies_in_submission_order(device):
    regs = device.regs
    offset = device.regs.map.lookup("user_reg.user_reg").offset
    regs.stage_write(offset, b"\x11")
    regs.stage_write(offset, b"\x22")
    regs.commit()
    assert regs.read(offset, 1) == b"\x22"


def test_read_only_write_rejected(device):
    with pytest.raises(AccessViolation):
        device.regs.stage_write(0, b"\x01")  # sys.sn


def test_out_of_range_rejected(device):
    with pytest.raises(RangeViolation):
        device.regs.read(device.regs.total_size, 1)
    with pytest.raises(RangeViolation):
        device.regs.stage_write(device.regs.total_size - 1, b"\x00\x00")


def test_register_file_replay_oracle():
    """Randomized wr/ex sequences against a plain shadow byte array."""
    layout = reference_layout()
    rng = random.Random(5)
    writable = [(e.offset, e.size) for e in layout.entries if e.access == "writable"]
    for _ in range(20):
        regs = RegisterFile(layout)
        shadow = bytearray(regs.committed)
        staged = []
        for _ in range(200):
            action = rng.random()
            if action < 0.6:
                offset, size = rng.choice(writable)
                data = bytes(rng.randrange(256) for _ in range(rng.randint(1, size)))
                regs.stage_write(offset, data)
                staged.append((offset, data))
            else:
                regs.commit()
                for offset, data in staged:
                    shadow[offset : offset + len(data)] = data
                staged.clear()
                assert regs.committed == shadow
        regs.commit()
        for offset, data in staged:
            shadow[offset : offset + len(data)] = data
        assert regs.committed == shadow


# -- init triggers ------------------------------------------------------


def test_init_trigger_runs_hook_once_and_clears_flag(device):
    calls = []
    device.register_init_hook("i2c", lambda: calls.append(1))
    flag = device.regs.map.lookup("i2c.mode.init")
    device.handle_line(f"wr {flag.offset} 1")
    assert calls == []
    device.handle_line("ex")
    assert calls == [1]
    assert device.regs.read(flag.offset, 1) == b"\x00"
    device.handle_line("ex")  # no flag set: hook not re-run
    assert calls == [1]


def test_unknown_init_module_rejected(device):
    with pytest.raises(KeyError):
        device.register_init_hook("nonexistent", lambda: None)


# -- protocol -----------------------------------------------------------


def test_version_query(device):
    assert json.loads(device.handle_line("-v")) == {"version": "1.2.3", "result": 0}


def test_single_byte_read_is_bare_int(device):
    reply = json.loads(device.handle_line("rr 204 1"))
    assert reply == {"data": 85, "result": 0}


def test_multi_byte_read_is_list(device):
    reply = json.loads(device.handle_line("rr 204 2"))
    assert reply == {"data": [85, 0], "result": 0}


def test_hex_arguments_accepted(device):
    assert json.loads(device.handle_line("rr 0xCC 1"))["data"] == 85


def test_result_codes(device):
    assert json.loads(device.handle_line("rr"))["result"] == RESULT_PARSE_ERROR
    assert json.loads(device.handle_line("bogus"))["result"] == RESULT_PARSE_ERROR
    assert json.loads(device.handle_line("rr 4000 1"))["result"] == RESULT_OUT_OF_RANGE
    assert json.loads(device.handle_line("wr 0 1"))["result"] == RESULT_ACCESS_VIOLATION
    assert json.loads(device.handle_line("wr 204 300"))["result"] == RESULT_PARSE_ERROR


def test_protocol_totality_fuzz(device):
    """Arbitrary garbage must yield one JSON line with a known result code."""
    rng = random.Random(11)
    alphabet = string.printable
    known = {
        RESULT_SUCCESS,
        RESULT_PARSE_ERROR,
        RESULT_OUT_OF_RANGE,
        RESULT_ACCESS_VIOLATION,
        RESULT_INTERNAL_ERROR,
    }
    for _ in range(2000):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        reply = json.loads(device.handle_line(line))
        assert reply["result"] in known


def test_golden_protocol_file(device, bench):
    """Replay the golden request/response file byte-exactly."""
    for request, expected in golden_exchanges(bench):
        assert bench.refdev.handle_line(request) == expected, request


# -- the table of accepted ``wr`` lines ------------------------------------


def count_parsed(device):
    """Count the lines ``device`` parses, that is, the lines its accepted-``wr`` table does not answer."""
    parsed = []
    dispatch = device._dispatch
    device._dispatch = lambda line: parsed.append(line) or dispatch(line)
    return parsed


def test_a_repeated_write_line_stages_each_time_and_lands_in_order(device):
    offset = device.regs.map.lookup("user_reg.user_reg").offset
    first, second = f"wr {offset} 17 18", f"wr {offset} 34 35"
    assert [device.handle_line(line) for line in (first, second, first)] == ['{"result": 0}'] * 3
    assert device.regs.staged == [(offset, b"\x11\x12"), (offset, b"\x22\x23"), (offset, b"\x11\x12")]
    device.handle_line("ex")
    assert device.regs.read(offset, 2) == b"\x11\x12"


def test_a_repeated_write_is_checked_for_access_and_parsed_anew_when_malformed(device):
    """A rejected line gets the same code on every send, stages nothing and is never kept."""
    size = device.regs.total_size
    rejected = {
        "wr 204 300": RESULT_PARSE_ERROR,
        "wr 204 x": RESULT_PARSE_ERROR,
        "wr 204": RESULT_PARSE_ERROR,
        f"wr {size} 1": RESULT_OUT_OF_RANGE,
        f"wr {size - 1} 1 2": RESULT_OUT_OF_RANGE,
        "wr 0 1": RESULT_ACCESS_VIOLATION,  # sys.sn
        "wr 53 1 1": RESULT_ACCESS_VIOLATION,  # a writable byte, then a read-only one
    }
    assert device.regs.access_mask[53:55] == bytes([ACCESS_CODES["writable"], ACCESS_CODES["read-only"]])
    parsed = count_parsed(device)
    for _ in range(3):
        for line, code in rejected.items():
            assert json.loads(device.handle_line(line))["result"] == code, line
    assert parsed == list(rejected) * 3
    assert device.regs.staged == []
    assert not device._accepted


def test_a_kept_line_stages_what_a_fresh_device_stages(device):
    lines = [*_reset_writes(device.regs.map), "wr 52 1 2", "wr 0x34\t7", " wr 52 3 "]
    for line in lines:
        assert device.handle_line(line) == '{"result": 0}'
    device.regs.staged.clear()
    parsed = count_parsed(device)
    assert [device.handle_line(line) for line in lines] == ['{"result": 0}'] * len(lines)
    assert parsed == []
    fresh = ReferenceDevice(reference_layout())
    for line in lines:
        fresh.handle_line(line)
    assert device.regs.staged == fresh.regs.staged
    device.handle_line("ex")
    fresh.handle_line("ex")
    assert device.regs.committed == fresh.regs.committed


def test_the_reset_lines_stay_kept_among_many_one_off_writes(device):
    """The table drops the line sent longest ago, so lines sent before every case stay in it."""
    resets = _reset_writes(device.regs.map)
    offset = device.regs.map.lookup("user_reg.user_reg").offset
    for line in resets:
        device.handle_line(line)
    parsed = count_parsed(device)
    one_off = [f"wr {offset} {value}" for value in range(4 * ACCEPTED_WRITES)]
    for case in range(0, len(one_off), 5):
        for line in one_off[case : case + 5]:
            assert device.handle_line(line) == '{"result": 0}'
        for line in resets:
            assert device.handle_line(line) == '{"result": 0}'
    assert parsed == one_off
    assert len(device._accepted) == ACCEPTED_WRITES


def test_two_devices_never_share_kept_lines():
    layout = reference_layout()
    full, twin = ReferenceDevice(layout), ReferenceDevice(layout)
    last = layout.lookup("user_reg.user_reg")
    short_map = LayoutedMap(layout.entries[:3], layout.entries[3].offset, layout.version)
    short = ReferenceDevice(short_map)
    line = f"wr {last.offset} 9"
    assert full.handle_line(line) == '{"result": 0}'
    assert not twin._accepted and not short._accepted
    assert json.loads(short.handle_line(line))["result"] == RESULT_OUT_OF_RANGE
    assert not short._accepted
    parsed = count_parsed(twin)
    assert twin.handle_line(line) == '{"result": 0}'
    assert parsed == [line]


def test_tabs_and_runs_of_spaces_split_a_write_as_single_spaces_do(device):
    assert device.handle_line("wr 52\t1  2") == '{"result": 0}'
    assert device.handle_line("wr\t52 1\t\t2 ") == '{"result": 0}'
    assert device.regs.staged == [(52, b"\x01\x02")] * 2


@pytest.mark.parametrize(
    "text,data",
    [("0 17 255", b"\x00\x11\xff"), ("0x11 0XfF 0x0", b"\x11\xff\x00"), ("007 +5", b"\x07\x05"), ("1_0", b"\x0a")],
)
def test_a_data_text_decodes_each_token_as_an_offset_decodes(text, data):
    assert _parse_data(text) == data


@pytest.mark.parametrize("text", ["256", "0x100", "-1", "1 x", "1.0", "0x"])
def test_a_data_text_with_a_token_that_is_no_byte_is_a_value_error(text):
    with pytest.raises(ValueError):
        _parse_data(text)


def test_a_bound_field_wraps_and_adds_at_its_width(device):
    count = device.regs.bind("i2c.r_count")  # u8
    count.wrap(0x105)
    assert count.get() == 5
    count.add(0xFF)
    assert device.regs.read_param("i2c.r_count") == 4
    ticks = device.regs.bind("gpio0.rise_ticks")  # u32
    ticks.wrap(2**32 + 7)
    assert device.regs.read_param("gpio0.rise_ticks") == 7


def test_the_write_table_keeps_at_most_64_lines(device):
    offset = device.regs.map.lookup("user_reg.user_reg").offset
    for value in range(1000):
        assert device.handle_line(f"wr {offset} {value % 256} {value // 256}") == '{"result": 0}'
    assert ACCEPTED_WRITES == 64
    assert list(device._accepted) == [f"wr {offset} {v % 256} {v // 256}" for v in range(1000 - 64, 1000)]
