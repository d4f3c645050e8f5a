"""One codec per register entry: LayoutEntry packs, unpacks and span-checks its elements."""

import pytest

from hilsim.memmap import SCALAR_TYPES
from hilsim.memmap.layout import LayoutEntry
from hilsim.pal import ERROR
from hilsim.reference import reference_layout

from test_pal_guards import connected_client


def entry_of(type_, array_len=2):
    return LayoutEntry(
        name=f"test.{type_}",
        offset=0,
        size=SCALAR_TYPES[type_][0] * array_len,
        type=type_,
        array_len=array_len,
        access="writable",
        default=0,
        flags=(),
        description="",
    )


@pytest.mark.parametrize("type_", list(SCALAR_TYPES))
def test_pack_and_unpack_round_trip_at_the_type_limits(type_):
    size, lo, hi = SCALAR_TYPES[type_]
    entry = entry_of(type_)
    raw = entry.pack([lo, hi])
    assert raw == lo.to_bytes(size, "little", signed=lo < 0) + hi.to_bytes(size, "little", signed=lo < 0)
    assert entry.unpack(raw) == [lo, hi]
    assert entry.unpack(entry.pack(hi)) == [hi]


@pytest.mark.parametrize("type_", list(SCALAR_TYPES))
def test_pack_rejects_values_just_outside_the_type(type_):
    _, lo, hi = SCALAR_TYPES[type_]
    entry = entry_of(type_)
    for bad in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=f"test.{type_}"):
            entry.pack(bad)
        with pytest.raises(ValueError, match=f"test.{type_}"):
            entry.pack([0, bad])


def test_element_offset_is_the_one_span_check():
    entry = reference_layout().lookup("trace.tick")
    assert entry.element_offset(0, 128) == entry.offset
    assert entry.element_offset(127, 1) == entry.offset + 127 * 4
    for index, count in ((127, 2), (128, 1), (-1, 1)):
        with pytest.raises(ValueError, match=f"index {index}"):
            entry.element_offset(index, count)


def test_default_image_equals_an_independent_expansion():
    layout = reference_layout()
    image = bytearray(layout.total_size)
    for e in layout.entries:
        elem = e.size // e.array_len
        values = e.default if isinstance(e.default, list) else [e.default] * e.array_len
        values = values + [0] * (e.array_len - len(values))
        raw = b"".join(int(v).to_bytes(elem, "little", signed=e.type.startswith("i")) for v in values)
        image[e.offset : e.offset + e.size] = raw
    assert layout.default_image == bytes(image)


def test_out_of_range_write_reg_is_an_error_and_sends_nothing(bench):
    client, wire = connected_client(bench)
    for name, value in (("i2c.slave_addr_1", 0x10000), ("user_reg.user_reg", [1, 256]), ("uart.baud", -1)):
        result = client.write_reg(name, value)
        assert result.result == ERROR, name
        assert name in result.error
    assert wire.lines == []


def test_list_poke_param_writes_consecutive_elements(bench):
    regs = bench.refdev.regs
    regs.poke_param("trace.tick", [1, 0xFFFFFFFF, 3], index=5)
    assert regs.read_param("trace.tick", 5, 3) == [1, 0xFFFFFFFF, 3]


def test_list_poke_param_past_its_entry_raises_and_writes_nothing(bench):
    regs = bench.refdev.regs
    before = bytes(regs.committed)
    size = regs.map.lookup("user_reg.user_reg").array_len
    with pytest.raises(ValueError, match="user_reg.user_reg"):
        regs.poke_param("user_reg.user_reg", [1, 2, 3], index=size - 2)
    with pytest.raises(ValueError, match="trace.source"):
        regs.poke_param("trace.source", [0] * 129)
    assert bytes(regs.committed) == before


def test_a_bound_field_reads_and_writes_its_element_and_outlives_a_reset(bench):
    regs = bench.refdev.regs
    tick = regs.bind("trace.tick", 5)
    tick.set(0xFFFFFFFF)
    assert tick.get() == regs.read_param("trace.tick", 5) == 0xFFFFFFFF
    assert regs.read_param("trace.tick", 4, 3) == [0, 0xFFFFFFFF, 0]
    bench.reset()
    assert tick.get() == 0
    tick.set(7)
    assert regs.read_param("trace.tick", 5) == 7


def test_a_bound_field_out_of_range_raises_the_value_error_of_poke_param_and_writes_nothing(bench):
    regs = bench.refdev.regs
    before = bytes(regs.committed)
    for name, value in (("i2c.r_count", 256), ("i2c.r_count", -1), ("trace.tick", 1 << 32), ("i2c.start_time", 1.5)):
        with pytest.raises(ValueError, match=name) as bound:
            regs.bind(name).set(value)
        with pytest.raises(ValueError) as named:
            regs.poke_param(name, value)
        assert str(bound.value) == str(named.value)
    with pytest.raises(ValueError, match="trace.tick"):
        regs.bind("trace.tick", 128)
    assert bytes(regs.committed) == before


@pytest.mark.parametrize(
    "name,index,bad",
    [("i2c.r_count", 0, 256), ("i2c.r_count", 0, -1), ("trace.tick", 3, 1 << 32), ("trace.tick", 3, 1.5)],
)
def test_a_rejected_bound_field_write_leaves_a_non_zero_register_unchanged(bench, name, index, bad):
    regs = bench.refdev.regs
    field = regs.bind(name, index)
    field.set(5)
    before = bytes(regs.committed)
    with pytest.raises(ValueError, match=name):
        field.set(bad)
    assert field.get() == 5
    assert bytes(regs.committed) == before
