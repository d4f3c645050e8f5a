"""Simulated I2C slave, SPI slave, and UART endpoint.

All three operate against a reference-device register file: register access
targets the shared user data window, and interaction metadata (byte counts,
start and stop times, ticks, bus speed) is published back into the device's
own registers, which are a transaction's only report. Wire timing is
modeled as bits-on-wire over the configured bitrate, so the published bus
speed is exact absent injected delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from hilsim.refdev import RegisterFile
from hilsim.sim.clock import SimClock

I2C_BITS_PER_BYTE = 9  # 8 data + ACK
SPI_BITS_PER_BYTE = 8
UART_BITS_PER_BYTE = 10  # start + 8 data + stop

I2C_BITRATE_RANGE = (10_000, 400_000)
SPI_BITRATE_RANGE = (100_000, 5_000_000)
UART_BITRATE_RANGE = (9_600, 115_200)

SPI_WRITE_FLAG = 0x80


def frame_bits(module: str, n_bytes: int) -> int:
    """Bits on the wire for a frame of ``n_bytes`` bytes; an I2C frame also carries its address byte."""
    if module == "i2c":
        return I2C_BITS_PER_BYTE * (n_bytes + 1)
    return (SPI_BITS_PER_BYTE if module == "spi" else UART_BITS_PER_BYTE) * n_bytes


def wire_ns(bits: int, bitrate: int) -> int:
    """Time on the wire of ``bits`` at ``bitrate``, in whole nanoseconds."""
    return round(bits * 1e9 / bitrate)


@dataclass(frozen=True)
class BusResult:
    status: str  # ok, addr-nack, data-nack, bad-mode
    data: bytes = b""


def _check_bitrate(bitrate: int, lo_hi: tuple[int, int], bus: str) -> None:
    lo, hi = lo_hi
    if not lo <= bitrate <= hi:
        raise ValueError(f"{bus} bitrate {bitrate} outside supported range {lo}-{hi}")


class _PeripheralModel:
    """Shared plumbing: a register file, a clock and the bus telemetry."""

    module = ""
    telemetry: tuple[str, ...] = ()  # the registers a transaction publishes, named inside the module
    settings: tuple[str, ...] = ()  # the registers a re-init reads, in the order reinit unpacks them

    def __init__(self, regs: RegisterFile, clock: SimClock):
        self.regs = regs
        self.clock = clock
        # bound once, so a transaction writes its telemetry at known offsets and a re-init reads
        # its settings with no name lookup
        self.fields = SimpleNamespace(**{name: regs.bind(f"{self.module}.{name}") for name in self.telemetry})
        self._settings = [regs.bind(f"{self.module}.{name}") for name in self.settings]
        window = regs.map.lookup("user_reg.user_reg")
        self._window_offset = window.offset
        self._window_size = window.size
        self.reinit()

    def reinit(self) -> None:
        """Re-read the module's configuration; the reference device has restored its registers."""
        raise NotImplementedError

    def _read_settings(self) -> list[int]:
        return [field.get() for field in self._settings]

    def _window_read(self, offset: int, size: int) -> bytes:
        committed, base, n = self.regs.committed, self._window_offset, self._window_size
        return bytes(committed[base + (offset + i) % n] for i in range(size))

    def _window_write(self, offset: int, data: bytes) -> None:
        committed, base, n = self.regs.committed, self._window_offset, self._window_size
        for i, b in enumerate(data):
            committed[base + (offset + i) % n] = b

    def _hold_bus(self, n_bytes: int, bitrate: int, stretch_ns: int = 0) -> int:
        """Occupy the bus for a frame of ``n_bytes`` at ``bitrate`` plus any clock stretch; return how long."""
        duration = wire_ns(frame_bits(self.module, n_bytes), bitrate) + stretch_ns
        self.clock.advance(duration)
        return duration

    def _publish_times(self, n_bytes: int, duration: int) -> None:
        """Publish the frame's start and stop times and, if it carried bytes, the bus speed they give."""
        stop = self.clock.now
        self.fields.start_time.set(stop - duration)
        self.fields.stop_time.set(stop)
        if n_bytes:
            self.fields.speed_hz.wrap(round(frame_bits(self.module, n_bytes) * 1e9 / duration))


class I2cSlaveModel(_PeripheralModel):
    """I2C slave with injectable address/data NACKs and clock stretching."""

    module = "i2c"
    telemetry = ("start_time", "stop_time", "speed_hz", "reg_index", "addr_ticks", "read_ticks", "write_ticks",
                 "r_count", "w_count", "err_count", "nack_count")
    settings = ("slave_addr_1", "mode.reg_16_bit", "clk_stretch_delay", "mode.nack_data", "mode.nack_addr")

    def reinit(self) -> None:
        self.slave_address, reg_16_bit, self.clock_stretch_ns, nack_data, nack_addr = self._read_settings()
        self.reg_bytes = 2 if reg_16_bit else 1
        self.nack_data = bool(nack_data)
        self.nack_addr = bool(nack_addr)

    def _nacked(self, address: int, bitrate: int, data_phase: bool = True) -> BusResult | None:
        """The address and NACK path: the NACKed frame's result, or None if the slave takes the frame."""
        _check_bitrate(bitrate, I2C_BITRATE_RANGE, "I2C")
        if address != self.slave_address or self.nack_addr:
            status = "addr-nack"
        elif data_phase and self.nack_data:
            status = "data-nack"
        else:
            return None
        self.fields.nack_count.add(1)
        self.fields.err_count.add(1)
        return self._frame(status, "write", 0, bitrate)

    def _frame(self, status: str, direction: str, n_bytes: int, bitrate: int, data: bytes = b"") -> BusResult:
        """Hold the bus for the address byte plus ``n_bytes``, then publish times and per-phase ticks (µs)."""
        duration = self._hold_bus(n_bytes, bitrate, self.clock_stretch_ns)
        self._publish_times(n_bytes, duration)
        self.fields.addr_ticks.wrap(round(I2C_BITS_PER_BYTE * 1e6 / bitrate))
        ticks = self.fields.read_ticks if direction == "read" else self.fields.write_ticks
        ticks.wrap(round(duration / 1_000))
        return BusResult(status, data)

    def _check_pointer(self, register: int) -> None:
        """Reject a register wider than the pointer a register frame sends."""
        if not 0 <= register < 1 << (8 * self.reg_bytes):
            raise ValueError(f"I2C register {register} does not fit a {self.reg_bytes}-byte pointer")

    def read_reg(self, address: int, register: int, length: int, bitrate: int) -> BusResult:
        """Register-pointer write followed by a data read."""
        self._check_pointer(register)
        nack = self._nacked(address, bitrate)
        if nack is not None:
            return nack
        self.fields.reg_index.set(register)
        data = self._window_read(register * self.reg_bytes, length)
        self.fields.w_count.add(self.reg_bytes)
        self.fields.r_count.add(length)
        return self._frame("ok", "read", self.reg_bytes + length, bitrate, data)

    def write_reg(self, address: int, register: int, data: bytes, bitrate: int) -> BusResult:
        self._check_pointer(register)
        nack = self._nacked(address, bitrate)
        if nack is not None:
            return nack
        self.fields.reg_index.set(register)
        self._window_write(register * self.reg_bytes, data)
        self.fields.w_count.add(self.reg_bytes + len(data))
        return self._frame("ok", "write", self.reg_bytes + len(data), bitrate)

    def read_bytes(self, address: int, length: int, bitrate: int) -> BusResult:
        """Plain read from the current register pointer; the master acks the data, so no data NACK."""
        nack = self._nacked(address, bitrate, data_phase=False)
        if nack is not None:
            return nack
        data = self._window_read(self.fields.reg_index.get() * self.reg_bytes, length)
        self.fields.r_count.add(length)
        return self._frame("ok", "read", length, bitrate, data)

    def write_bytes(self, address: int, data: bytes, bitrate: int) -> BusResult:
        nack = self._nacked(address, bitrate)
        if nack is not None:
            return nack
        self._window_write(self.fields.reg_index.get() * self.reg_bytes, data)
        self.fields.w_count.add(len(data))
        return self._frame("ok", "write", len(data), bitrate)


class SpiSlaveModel(_PeripheralModel):
    """SPI slave exposing the user window as registers.

    Frame format: first byte is a command byte (register index, high bit
    set for writes), remaining bytes carry or return register data.
    """

    module = "spi"
    telemetry = ("start_time", "stop_time", "speed_hz", "reg_index", "transfer_count", "frame_ticks", "byte_ticks",
                 "prev_ticks", "r_count", "w_count")
    settings = ("mode.cpol", "mode.cpha", "mode.reg_16_bit")

    def reinit(self) -> None:
        cpol, cpha, reg_16_bit = self._read_settings()
        self.mode = (cpol << 1) | cpha
        self.reg_bytes = 2 if reg_16_bit else 1

    def transfer(self, frame: bytes, bitrate: int, mode: int) -> BusResult:
        _check_bitrate(bitrate, SPI_BITRATE_RANGE, "SPI")
        if mode != self.mode:
            return BusResult("bad-mode")
        if not frame:
            return BusResult("ok")
        register = frame[0] & ~SPI_WRITE_FLAG
        fields = self.fields
        fields.reg_index.set(register)
        offset = register * self.reg_bytes
        n = len(frame) - 1
        if frame[0] & SPI_WRITE_FLAG:
            self._window_write(offset, frame[1:])
            fields.w_count.add(n)
            reply = bytes(len(frame))
        else:
            reply = bytes(1) + self._window_read(offset, n)
            fields.r_count.add(n)
        fields.transfer_count.add(len(frame))
        duration = self._hold_bus(len(frame), bitrate)
        self._publish_times(len(frame), duration)
        fields.prev_ticks.wrap(fields.frame_ticks.get())
        fields.frame_ticks.wrap(round(duration / 1_000))
        fields.byte_ticks.wrap(round(duration / 1_000 / len(frame)))
        return BusResult("ok", reply)


UART_MODE_ECHO = 0
UART_MODE_ECHO_INC = 1
UART_MODE_SILENT_COUNT = 2


class UartModel(_PeripheralModel):
    """UART endpoint with echo, echo-with-increment, and silent-count modes."""

    module = "uart"
    telemetry = ("rx_count", "tx_count")
    settings = ("mode.if_type",)

    def reinit(self) -> None:
        (self.mode,) = self._read_settings()

    def process(self, data: bytes, bitrate: int) -> BusResult:
        _check_bitrate(bitrate, UART_BITRATE_RANGE, "UART")
        if self.mode == UART_MODE_ECHO:
            reply = bytes(data)
        elif self.mode == UART_MODE_ECHO_INC:
            reply = bytes((b + 1) % 256 for b in data)
        else:
            reply = b""
        self.fields.rx_count.add(len(data))
        self.fields.tx_count.add(len(reply))
        self._window_write(0, data[: self._window_size])
        # the reply goes out after the received bytes
        self._hold_bus(len(data), bitrate)
        self._hold_bus(len(reply), bitrate)
        return BusResult("ok", reply)
