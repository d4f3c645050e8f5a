"""Simulated I2C slave, SPI slave, and UART endpoint.

All three operate against a reference-device register file: register access
targets the shared user data window, and interaction metadata (byte counts,
durations) is published back into the device's own registers. Wire timing
is modeled as bits-on-wire over the configured bitrate, so bus-speed
estimation from transaction timestamps is exact absent injected delays.
"""

from __future__ import annotations

from dataclasses import dataclass

from hilsim.refdev import RegisterFile
from hilsim.sim.clock import SimClock

I2C_BITS_PER_BYTE = 9  # 8 data + ACK
SPI_BITS_PER_BYTE = 8
UART_BITS_PER_BYTE = 10  # start + 8 data + stop

I2C_BITRATE_RANGE = (10_000, 400_000)
SPI_BITRATE_RANGE = (100_000, 5_000_000)
UART_BITRATE_RANGE = (9_600, 115_200)

SPI_WRITE_FLAG = 0x80


@dataclass(frozen=True)
class BusTransaction:
    bus: str  # I2C, SPI, UART
    direction: str  # read, write, transfer
    address: int | None
    register: int | None
    payload: bytes
    start_ns: int
    end_ns: int
    bitrate: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def bits_on_wire(self) -> int:
        if self.bus == "I2C":
            return I2C_BITS_PER_BYTE * (len(self.payload) + 1)  # address byte
        if self.bus == "SPI":
            return SPI_BITS_PER_BYTE * len(self.payload)
        return UART_BITS_PER_BYTE * len(self.payload)


@dataclass(frozen=True)
class I2cResult:
    status: str  # ok, addr-nack, data-nack
    data: bytes = b""
    txn: BusTransaction | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def estimate_bus_speed(txn: BusTransaction) -> float:
    """Estimate the bus bitrate in hertz from transaction timing."""
    if txn.duration_ns <= 0:
        raise ValueError("zero-duration transaction")
    if len(txn.payload) < 1:
        raise ValueError("transaction carries no payload")
    return txn.bits_on_wire * 1e9 / txn.duration_ns


def _check_bitrate(bitrate: int, lo_hi: tuple[int, int], bus: str) -> None:
    lo, hi = lo_hi
    if not lo <= bitrate <= hi:
        raise ValueError(f"{bus} bitrate {bitrate} outside supported range {lo}-{hi}")


class _PeripheralModel:
    """Shared plumbing: a register file, a clock, and a transaction log."""

    module = ""

    def __init__(self, regs: RegisterFile, clock: SimClock):
        self.regs = regs
        self.clock = clock
        self.transactions: list[BusTransaction] = []
        window = regs.map.lookup("user_reg.user_reg")
        self._window_offset = window.offset
        self._window_size = window.size
        self.reinit()

    def reinit(self) -> None:
        raise NotImplementedError

    def _window_read(self, offset: int, size: int) -> bytes:
        out = bytearray()
        for i in range(size):
            out.append(self.regs.committed[self._window_offset + (offset + i) % self._window_size])
        return bytes(out)

    def _window_write(self, offset: int, data: bytes) -> None:
        for i, b in enumerate(data):
            self.regs.committed[self._window_offset + (offset + i) % self._window_size] = b

    def _bump(self, param: str, delta: int) -> None:
        self._poke_wrapped(param, self.regs.read_param(param) + delta)

    def _poke_wrapped(self, param: str, value: int) -> None:
        """Publish a value, wrapping at the register width like a real counter."""
        entry = self.regs.map.lookup(param)
        self.regs.poke_param(param, int(value) % (1 << (8 * entry.elem_size)))


class I2cSlaveModel(_PeripheralModel):
    """I2C slave with injectable address/data NACKs and clock stretching."""

    module = "i2c"

    def reinit(self) -> None:
        rp = self.regs.read_param
        self.slave_address = rp("i2c.slave_addr_1")
        self.reg_bytes = 2 if rp("i2c.mode.reg_16_bit") else 1
        self.big_endian = bool(rp("i2c.mode.reg_16_big_endian"))
        self.clock_stretch_ns = rp("i2c.clk_stretch_delay")
        self.nack_data = bool(rp("i2c.mode.nack_data"))
        self.nack_addr = bool(rp("i2c.mode.nack_addr"))
        self.reg_index = 0
        self.transactions.clear()
        self.regs.restore(self.module)

    def _finish(self, direction: str, register: int | None, wire_bytes: bytes, bitrate: int) -> BusTransaction:
        bits = I2C_BITS_PER_BYTE * (len(wire_bytes) + 1)
        duration = round(bits * 1e9 / bitrate) + self.clock_stretch_ns
        start = self.clock.now
        self.clock.advance(duration)
        txn = BusTransaction(
            bus="I2C",
            direction=direction,
            address=self.slave_address,
            register=register,
            payload=wire_bytes,
            start_ns=start,
            end_ns=self.clock.now,
            bitrate=bitrate,
        )
        self.transactions.append(txn)
        self.regs.poke_param("i2c.start_time", txn.start_ns)
        self.regs.poke_param("i2c.stop_time", txn.end_ns)
        if txn.payload:
            self._poke_wrapped("i2c.speed_hz", round(estimate_bus_speed(txn)))
        # per-phase durations in microseconds
        self._poke_wrapped("i2c.addr_ticks", round(I2C_BITS_PER_BYTE * 1e6 / bitrate))
        ticks = "i2c.read_ticks" if direction == "read" else "i2c.write_ticks"
        self._poke_wrapped(ticks, round(duration / 1_000))
        return txn

    def _nack(self, kind: str, bitrate: int, wire_bytes: bytes = b"") -> I2cResult:
        self._bump("i2c.nack_count", 1)
        self._bump("i2c.err_count", 1)
        txn = self._finish("write", None, wire_bytes, bitrate)
        return I2cResult(status=kind, txn=txn)

    def _address_phase(self, address: int, bitrate: int) -> I2cResult | None:
        _check_bitrate(bitrate, I2C_BITRATE_RANGE, "I2C")
        if address != self.slave_address or self.nack_addr:
            return self._nack("addr-nack", bitrate)
        return None

    def read_reg(self, address: int, register: int, length: int, bitrate: int) -> I2cResult:
        """Register-pointer write followed by a data read."""
        nack = self._address_phase(address, bitrate)
        if nack is not None:
            return nack
        if self.nack_data:
            return self._nack("data-nack", bitrate)
        self.reg_index = register
        data = self._window_read(register * self.reg_bytes, length)
        self._bump("i2c.w_count", self.reg_bytes)
        self._bump("i2c.r_count", length)
        ptr = register.to_bytes(self.reg_bytes, "big" if self.big_endian else "little")
        txn = self._finish("read", register, ptr + data, bitrate)
        return I2cResult(status="ok", data=data, txn=txn)

    def write_reg(self, address: int, register: int, data: bytes, bitrate: int) -> I2cResult:
        nack = self._address_phase(address, bitrate)
        if nack is not None:
            return nack
        if self.nack_data:
            return self._nack("data-nack", bitrate)
        self.reg_index = register
        self._window_write(register * self.reg_bytes, data)
        self._bump("i2c.w_count", self.reg_bytes + len(data))
        ptr = register.to_bytes(self.reg_bytes, "big" if self.big_endian else "little")
        txn = self._finish("write", register, ptr + bytes(data), bitrate)
        return I2cResult(status="ok", txn=txn)

    def read_bytes(self, address: int, length: int, bitrate: int) -> I2cResult:
        """Plain read from the current register pointer."""
        nack = self._address_phase(address, bitrate)
        if nack is not None:
            return nack
        data = self._window_read(self.reg_index * self.reg_bytes, length)
        self._bump("i2c.r_count", length)
        txn = self._finish("read", self.reg_index, data, bitrate)
        return I2cResult(status="ok", data=data, txn=txn)

    def write_bytes(self, address: int, data: bytes, bitrate: int) -> I2cResult:
        nack = self._address_phase(address, bitrate)
        if nack is not None:
            return nack
        if self.nack_data:
            return self._nack("data-nack", bitrate)
        self._window_write(self.reg_index * self.reg_bytes, data)
        self._bump("i2c.w_count", len(data))
        txn = self._finish("write", self.reg_index, bytes(data), bitrate)
        return I2cResult(status="ok", txn=txn)


@dataclass(frozen=True)
class SpiResult:
    status: str  # ok, bad-mode
    data: bytes = b""
    txn: BusTransaction | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class SpiSlaveModel(_PeripheralModel):
    """SPI slave exposing the user window as registers.

    Frame format: first byte is a command byte (register index, high bit
    set for writes), remaining bytes carry or return register data.
    """

    module = "spi"

    def reinit(self) -> None:
        rp = self.regs.read_param
        self.mode = (rp("spi.mode.cpol") << 1) | rp("spi.mode.cpha")
        self.reg_bytes = 2 if rp("spi.mode.reg_16_bit") else 1
        self.big_endian = bool(rp("spi.mode.reg_16_big_endian"))
        self.transactions.clear()
        self.regs.restore(self.module)

    def transfer(self, frame: bytes, bitrate: int, mode: int | None = None) -> SpiResult:
        _check_bitrate(bitrate, SPI_BITRATE_RANGE, "SPI")
        if mode is not None and mode != self.mode:
            return SpiResult(status="bad-mode")
        if not frame:
            return SpiResult(status="ok", data=b"")
        command = frame[0]
        register = command & ~SPI_WRITE_FLAG
        offset = register * self.reg_bytes
        n = len(frame) - 1
        if command & SPI_WRITE_FLAG:
            self._window_write(offset, frame[1:])
            self._bump("spi.w_count", n)
            reply = bytes(len(frame))
            direction = "write"
        else:
            data = self._window_read(offset, n)
            self._bump("spi.r_count", n)
            reply = bytes(1) + data
            direction = "read"
        self._bump("spi.transfer_count", len(frame))
        duration = round(SPI_BITS_PER_BYTE * len(frame) * 1e9 / bitrate)
        start = self.clock.now
        self.clock.advance(duration)
        txn = BusTransaction(
            bus="SPI",
            direction=direction,
            address=None,
            register=register,
            payload=bytes(frame),
            start_ns=start,
            end_ns=self.clock.now,
            bitrate=bitrate,
        )
        self.transactions.append(txn)
        self.regs.poke_param("spi.start_time", txn.start_ns)
        self.regs.poke_param("spi.stop_time", txn.end_ns)
        self._poke_wrapped("spi.speed_hz", round(estimate_bus_speed(txn)))
        self._poke_wrapped("spi.prev_ticks", self.regs.read_param("spi.frame_ticks"))
        self._poke_wrapped("spi.frame_ticks", round(duration / 1_000))
        self._poke_wrapped("spi.byte_ticks", round(duration / 1_000 / len(frame)))
        return SpiResult(status="ok", data=reply, txn=txn)

    def write_value(self, register: int, value: int, bitrate: int) -> SpiResult:
        data = value.to_bytes(self.reg_bytes, "big" if self.big_endian else "little")
        return self.transfer(bytes([SPI_WRITE_FLAG | register]) + data, bitrate)

    def read_value(self, register: int, bitrate: int) -> tuple[SpiResult, int]:
        result = self.transfer(bytes([register]) + bytes(self.reg_bytes), bitrate)
        value = int.from_bytes(result.data[1:], "big" if self.big_endian else "little")
        return result, value


UART_MODE_ECHO = 0
UART_MODE_ECHO_INC = 1
UART_MODE_SILENT_COUNT = 2


class UartModel(_PeripheralModel):
    """UART endpoint with echo, echo-with-increment, and silent-count modes."""

    module = "uart"

    def reinit(self) -> None:
        rp = self.regs.read_param
        self.mode = rp("uart.mode.if_type")
        self.baud = rp("uart.baud")
        self.transactions.clear()
        self.regs.restore(self.module)

    def process(self, data: bytes, bitrate: int) -> bytes:
        _check_bitrate(bitrate, UART_BITRATE_RANGE, "UART")
        if self.mode == UART_MODE_ECHO:
            reply = bytes(data)
        elif self.mode == UART_MODE_ECHO_INC:
            reply = bytes((b + 1) % 256 for b in data)
        else:
            reply = b""
        self._bump("uart.rx_count", len(data))
        self._bump("uart.tx_count", len(reply))
        self._window_write(0, data[: self._window_size])
        rx_duration = round(UART_BITS_PER_BYTE * len(data) * 1e9 / bitrate)
        start = self.clock.now
        self.clock.advance(rx_duration)
        txn = BusTransaction(
            bus="UART",
            direction="transfer",
            address=None,
            register=None,
            payload=bytes(data),
            start_ns=start,
            end_ns=self.clock.now,
            bitrate=bitrate,
        )
        self.transactions.append(txn)
        if reply:
            self.clock.advance(round(UART_BITS_PER_BYTE * len(reply) * 1e9 / bitrate))
        return reply
