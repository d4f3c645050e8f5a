"""Every register, reply and errno a bus transaction produces, against closed forms."""

import json

import pytest

from hilsim.dut import COMMAND_OVERHEAD_NS
from hilsim.sim.bus import BusResult

from conftest import make_bench

I2C_FIELDS = (
    "start_time", "stop_time", "speed_hz", "addr_ticks", "read_ticks",
    "write_ticks", "r_count", "w_count", "nack_count", "err_count",
)
SPI_FIELDS = (
    "start_time", "stop_time", "speed_hz", "frame_ticks", "prev_ticks",
    "byte_ticks", "transfer_count", "r_count", "w_count",
)
SLAVE = 85  # i2c.slave_addr_1 default


def wire_ns(bits: int, bitrate: int) -> int:
    return round(bits * 1e9 / bitrate)


def published(regs, module: str, names) -> dict:
    return {name: regs.read_param(f"{module}.{name}") for name in names}


def window(regs, offset: int, size: int) -> bytes:
    return regs.read(regs.map.lookup("user_reg.user_reg").offset + offset, size)


def test_i2c_registers_and_transactions_match_closed_forms():
    bench = make_bench()
    regs, i2c, clock = bench.refdev.regs, bench.i2c, bench.clock
    regs.poke(regs.map.lookup("user_reg.user_reg").offset + 4, b"\x11\x22\x33")
    want = dict.fromkeys(I2C_FIELDS, 0)

    def frame(call, status, data, direction, n_bytes, bitrate, stretch_ns=0):
        """Run one frame; it holds the bus for the address byte plus ``n_bytes``, 9 bits a byte."""
        start = clock.now
        duration = wire_ns(9 * (n_bytes + 1), bitrate) + stretch_ns
        assert call() == BusResult(status, data)
        assert clock.now == start + duration
        want.update(start_time=start, stop_time=start + duration, addr_ticks=round(9e6 / bitrate))
        want["read_ticks" if direction == "read" else "write_ticks"] = round(duration / 1_000)
        if n_bytes:
            want["speed_hz"] = round(9 * (n_bytes + 1) * 1e9 / duration)

    # a register frame carries the pointer byte before its data
    frame(lambda: i2c.read_reg(SLAVE, 4, 3, 100_000), "ok", b"\x11\x22\x33", "read", 1 + 3, 100_000)
    want.update(r_count=3, w_count=1)
    assert published(regs, "i2c", I2C_FIELDS) == want

    frame(lambda: i2c.write_reg(SLAVE, 8, b"\xaa\xbb", 400_000), "ok", b"", "write", 1 + 2, 400_000)
    want.update(w_count=4)
    assert published(regs, "i2c", I2C_FIELDS) == want
    assert window(regs, 8, 2) == b"\xaa\xbb"

    # a plain read starts at the register pointer the last write_reg left
    frame(lambda: i2c.read_bytes(SLAVE, 2, 10_000), "ok", b"\xaa\xbb", "read", 2, 10_000)
    want.update(r_count=5)
    assert published(regs, "i2c", I2C_FIELDS) == want

    frame(lambda: i2c.write_bytes(SLAVE, b"\x01\x02\x03", 100_000), "ok", b"", "write", 3, 100_000)
    want.update(w_count=7)
    assert published(regs, "i2c", I2C_FIELDS) == want
    assert window(regs, 8, 3) == b"\x01\x02\x03"

    # an address NACK is an empty write frame, only its address byte on the wire:
    # times and ticks, no speed, no data counts
    frame(lambda: i2c.read_reg(99, 0, 1, 100_000), "addr-nack", b"", "write", 0, 100_000)
    want.update(nack_count=1, err_count=1)
    assert published(regs, "i2c", I2C_FIELDS) == want

    # re-init clears the module's telemetry; a data NACK then holds the bus for the stretch too
    regs.poke_param("i2c.mode.nack_data", 1)
    regs.poke_param("i2c.clk_stretch_delay", 5_000)
    regs.poke_param("i2c.mode.init", 1)
    bench.refdev.execute()
    want = dict.fromkeys(I2C_FIELDS, 0)
    frame(lambda: i2c.write_reg(SLAVE, 0, b"\x05", 100_000), "data-nack", b"", "write", 0, 100_000, 5_000)
    want.update(nack_count=1, err_count=1)
    assert published(regs, "i2c", I2C_FIELDS) == want
    assert window(regs, 0, 1) == b"\x00"


def test_spi_registers_and_transactions_match_closed_forms():
    bench = make_bench()
    regs, spi, clock = bench.refdev.regs, bench.spi, bench.clock
    regs.poke(regs.map.lookup("user_reg.user_reg").offset + 4, b"\x11\x22\x33")
    want = dict.fromkeys(SPI_FIELDS, 0)

    def frame(frame_bytes, reply, bitrate):
        """Run one frame; it holds the bus for 8 bits a byte of the whole frame."""
        start = clock.now
        duration = wire_ns(8 * len(frame_bytes), bitrate)
        assert spi.transfer(frame_bytes, bitrate, 0) == BusResult("ok", reply)
        assert clock.now == start + duration
        want.update(
            start_time=start,
            stop_time=start + duration,
            speed_hz=round(8 * len(frame_bytes) * 1e9 / duration),
            prev_ticks=want["frame_ticks"],
            frame_ticks=round(duration / 1_000),
            byte_ticks=round(duration / 1_000 / len(frame_bytes)),
            transfer_count=want["transfer_count"] + len(frame_bytes),
        )

    frame(bytes([4, 0, 0, 0]), b"\x00\x11\x22\x33", 1_000_000)
    want.update(r_count=3)
    assert published(regs, "spi", SPI_FIELDS) == want

    frame(bytes([0x80 | 6, 0xCA, 0xFE]), bytes(3), 5_000_000)
    want.update(w_count=2)
    assert published(regs, "spi", SPI_FIELDS) == want
    assert window(regs, 6, 2) == b"\xca\xfe"

    # a mode mismatch moves nothing: no data, no time, no register
    before, start = bytes(regs.committed), clock.now
    assert spi.transfer(bytes([4, 0]), 1_000_000, 1) == BusResult("bad-mode")
    assert (bytes(regs.committed), clock.now) == (before, start)


def test_reg_index_registers_follow_the_i2c_pointer_and_the_last_spi_frame():
    bench = make_bench()
    regs, i2c, spi = bench.refdev.regs, bench.i2c, bench.spi
    i2c.write_reg(SLAVE, 8, b"\x01", 100_000)
    assert regs.read_param("i2c.reg_index") == 8
    i2c.read_reg(SLAVE, 3, 1, 100_000)
    assert regs.read_param("i2c.reg_index") == 3
    # plain reads and writes use the pointer without moving it, and a NACKed frame sets none
    i2c.read_bytes(SLAVE, 2, 100_000)
    i2c.write_bytes(SLAVE, b"\x05", 100_000)
    i2c.read_reg(99, 6, 1, 100_000)
    assert regs.read_param("i2c.reg_index") == 3
    # and a plain read after a re-init starts at register 0 again
    regs.poke(regs.map.lookup("user_reg.user_reg").offset, b"\x5a")
    regs.poke_param("i2c.mode.init", 1)
    bench.refdev.execute()
    assert regs.read_param("i2c.reg_index") == 0
    assert i2c.read_bytes(SLAVE, 1, 100_000).data == b"\x5a"

    spi.transfer(bytes([5, 0, 0]), 1_000_000, 0)
    assert regs.read_param("spi.reg_index") == 5
    spi.transfer(bytes([0x80 | 9, 1]), 1_000_000, 0)
    assert regs.read_param("spi.reg_index") == 9
    # an empty frame names no register, and a mode mismatch moves nothing
    spi.transfer(b"", 1_000_000, 0)
    spi.transfer(bytes([2, 0]), 1_000_000, 1)
    assert regs.read_param("spi.reg_index") == 9
    regs.poke_param("spi.mode.init", 1)
    bench.refdev.execute()
    assert regs.read_param("spi.reg_index") == 0


@pytest.mark.parametrize("if_type, reply", [(0, b"\x01\xff\x10"), (1, b"\x02\x00\x11"), (2, b"")])
def test_uart_registers_and_transactions_match_closed_forms(if_type, reply):
    bench = make_bench()
    regs, uart, clock = bench.refdev.regs, bench.uart, bench.clock
    regs.poke_param("uart.mode.if_type", if_type)
    uart.reinit()
    data, bitrate = b"\x01\xff\x10", 115_200
    start = clock.now
    assert uart.process(data, bitrate) == BusResult("ok", reply)
    # the reply goes out after the received bytes, 10 bits a byte
    assert clock.now == start + wire_ns(10 * len(data), bitrate) + wire_ns(10 * len(reply), bitrate)
    assert published(regs, "uart", ("rx_count", "tx_count")) == {"rx_count": 3, "tx_count": len(reply)}
    assert window(regs, 0, 3) == data


def dut_errors(bench, *lines):
    return [json.loads(bench.dut.handle_line(line)).get("error_code") for line in lines]


def test_every_i2c_command_maps_an_address_nack_to_enxio():
    bench = make_bench()
    assert dut_errors(bench, "i2c_init", "i2c_write_reg 99 0 1", "i2c_read_bytes 99 1", "i2c_write_bytes 99 1") == [
        None, -6, -6, -6,
    ]


def test_every_i2c_write_maps_a_data_nack_to_eio():
    bench = make_bench()
    bench.refdev.regs.poke_param("i2c.mode.nack_data", 1)
    bench.i2c.reinit()
    # a plain read has no data phase for the slave to NACK: the master acks the bytes it reads
    assert dut_errors(bench, "i2c_init", "i2c_write_reg 85 0 1", "i2c_read_bytes 85 1", "i2c_write_bytes 85 1") == [
        None, -5, None, -5,
    ]


def test_spi_transfer_maps_a_mode_mismatch_to_einval():
    bench = make_bench()
    assert dut_errors(bench, "spi_init 1", "spi_transfer 4 0") == [None, -22]


@pytest.mark.parametrize(
    "reg_16_bit, address, register",
    [(0, SLAVE, 256), (0, SLAVE, 300), (0, SLAVE, -1), (1, SLAVE, 70_000), (0, 99, 300)],
)
def test_an_i2c_register_past_the_pointer_width_is_einval_before_any_bus_activity(reg_16_bit, address, register):
    bench = make_bench()
    regs = bench.refdev.regs
    regs.poke_param("i2c.mode.reg_16_bit", reg_16_bit)
    bench.i2c.reinit()
    bench.dut.handle_line("i2c_init")
    image, now = bytes(regs.committed), bench.clock.now
    lines = (f"i2c_read_reg {address} {register} 1", f"i2c_write_reg {address} {register} 1")
    assert dut_errors(bench, *lines) == [-22, -22]
    # no pointer move, count, NACK or bus time: only the two commands' own overhead
    assert bytes(regs.committed) == image
    assert bench.clock.now == now + 2 * COMMAND_OVERHEAD_NS


@pytest.mark.parametrize("line", ["i2c_read_reg 85 0 -3", "i2c_read_bytes 85 -2"])
def test_a_negative_i2c_read_length_is_einval_before_any_bus_activity(line):
    bench = make_bench()
    regs = bench.refdev.regs
    bench.dut.handle_line("i2c_init")
    image, now = bytes(regs.committed), bench.clock.now
    assert dut_errors(bench, line) == [-22]
    # no count, pointer move or bus time: only the command's own overhead
    assert bytes(regs.committed) == image
    assert bench.clock.now == now + COMMAND_OVERHEAD_NS
