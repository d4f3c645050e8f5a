"""Virtual device-under-test.

Exposes a HAL-style peripheral API through a structured line shell: every
command is synchronous and answers with one JSON dictionary carrying a
``result`` of Success, Error, or Timeout. A seeded-fault library reproduces
five driver bug classes (CWE 474, 394, 480, 460, 835) behind per-family
flags; with all flags off the device behaves correctly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from hilsim.sim.bus import BusResult, I2cSlaveModel, SpiSlaveModel, UartModel
from hilsim.sim.clock import SimClock
from hilsim.sim.trace import TraceUnit
from hilsim.wire import ERROR, SUCCESS, TIMEOUT, dut_reply

# errno-style codes returned in data/error_code
EIO = 5
ENXIO = 6
EAGAIN = 11
ENODEV = 19
EINVAL = 22

# the DUT's bus-status table: the errno each failed bus status returns
BUS_ERRNO = {"addr-nack": ENXIO, "data-nack": EIO, "bad-mode": EINVAL}

# simulated-time deadline after which a command counts as hung
COMMAND_DEADLINE_NS = 1_000_000_000
# fixed per-command transport/parse overhead on the simulated clock
COMMAND_OVERHEAD_NS = 1_000_000
# time one timer handler takes: a handler fires this long after its target, and
# handlers sharing a target queue one behind the other
HANDLER_OVERHEAD_NS = 30_000
# the most edges, timers or read bytes one command may ask for: a larger count is EINVAL,
# so one line cannot stall or exhaust a long-lived server
MAX_COMMAND_COUNT = 4096

DEFAULT_I2C_BITRATE = 100_000
DEFAULT_SPI_BITRATE = 1_000_000
DEFAULT_UART_BITRATE = 115_200

METADATA = "dut_periph 0.1.0"


@dataclass
class FaultConfig:
    """Seeded driver bugs, one flag per bug class. All off by default."""

    extra_read_byte: bool = False  # CWE474: reads one byte too many, discards it
    swallow_error_return: bool = False  # CWE394: failures still report Success
    inverted_status_check: bool = False  # CWE480: register writes always fail
    missing_error_cleanup: bool = False  # CWE460: lockup after failed-address read
    stop_while_busy_hang: bool = False  # CWE835: second consecutive write hangs

    @classmethod
    def flag_names(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    @classmethod
    def from_json(cls, text: str) -> "FaultConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"fault flags must be a JSON object, not {type(doc).__name__}")
        known = set(cls.flag_names())
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown fault flags: {sorted(unknown)}")
        for name, value in doc.items():
            if not isinstance(value, bool):
                raise ValueError(f"fault flag {name!r} must be true or false, not {json.dumps(value)}")
        return cls(**doc)


class _Hang(Exception):
    """Internal marker: the command would never return."""


class _DutError(Exception):
    """A command failed with an errno; I2C, SPI, UART and GPIO commands share it."""

    def __init__(self, code: int):
        super().__init__(f"DUT error {-code}")
        self.code = code


class DutDevice:
    """One DUT session wired to the reference device's peripheral models."""

    def __init__(
        self,
        clock: SimClock,
        i2c: I2cSlaveModel,
        spi: SpiSlaveModel,
        uart: UartModel,
        trace: TraceUnit,
        faults: FaultConfig | None = None,
        clock_ppm_error: float = 0.0,
        pin_map: dict[int, int] | None = None,
    ):
        self.clock = clock
        self.i2c = i2c
        self.spi = spi
        self.uart = uart
        self.trace = trace
        self.faults = faults or FaultConfig()
        self.clock_ppm_error = clock_ppm_error
        # DUT pin index -> reference-device trace pin; identity for pins 0-2
        self.pin_map = {0: 0, 1: 1, 2: 2} if pin_map is None else dict(pin_map)
        self.reset()

    def reset(self) -> None:
        """Session reset: bus state and hang latches; faults stay configured."""
        # a bus is initialised once its init has set its bitrate
        self._i2c_bitrate: int | None = None
        self._spi_bitrate: int | None = None
        self._spi_mode = 0
        self._uart_bitrate: int | None = None
        self._hung = False
        self._write_streak = 0
        self._pin_levels: dict[int, int] = {}

    # -- shell ----------------------------------------------------------

    def handle_line(self, line: str) -> str:
        line = line.strip()
        self.clock.advance(COMMAND_OVERHEAD_NS)
        try:
            fields_out = self._dispatch(line)
        except _Hang:
            self.clock.advance(COMMAND_DEADLINE_NS)
            fields_out = {"result": TIMEOUT}
        except _DutError as exc:
            if self.faults.swallow_error_return:
                fields_out = {"data": 0, "result": SUCCESS}
            else:
                fields_out = {"data": -exc.code, "result": ERROR, "error_code": -exc.code}
        except Exception:
            fields_out = {"result": ERROR, "error_code": -EINVAL}
        return dut_reply(line, fields_out)

    def _dispatch(self, line: str) -> dict:
        parts = line.split()
        if not parts:
            raise _DutError(EINVAL)
        handler = _COMMANDS.get(parts[0])
        if handler is None:
            return {"result": ERROR, "error_code": -EINVAL, "data": -EINVAL}
        return handler(self, [_to_int(a) for a in parts[1:]])

    # -- infrastructure -------------------------------------------------

    def _cmd_sync(self, args) -> dict:
        return {"result": SUCCESS}

    def _cmd_reset(self, args) -> dict:
        self.reset()
        return {"result": SUCCESS}

    def _cmd_get_metadata(self, args) -> dict:
        return {"data": METADATA, "result": SUCCESS}

    # -- I2C ------------------------------------------------------------

    def _i2c_guard(self) -> None:
        if self._hung:
            raise _Hang()
        if self._i2c_bitrate is None:
            raise _DutError(ENODEV)

    def _cmd_i2c_init(self, args) -> dict:
        if self._hung:
            raise _Hang()
        self._i2c_bitrate = args[0] if args else DEFAULT_I2C_BITRATE
        self._write_streak = 0
        return {"result": SUCCESS}

    def _cmd_i2c_read_reg(self, args) -> dict:
        addr, reg = args[0], args[1]
        length = args[2] if len(args) > 2 else 1
        self._i2c_guard()
        if not 0 <= length <= MAX_COMMAND_COUNT:
            raise _DutError(EINVAL)
        self._write_streak = 0
        wire_length = length + 1 if self.faults.extra_read_byte else length
        result = self.i2c.read_reg(addr, reg, wire_length, self._i2c_bitrate)
        if result.status == "addr-nack" and self.faults.missing_error_cleanup:
            self._hung = True
        return {"data": list(_bus_data(result)[:length]), "result": SUCCESS}

    def _cmd_i2c_write_reg(self, args) -> dict:
        addr, reg, data = args[0], args[1], bytes(args[2:])
        self._i2c_guard()
        if self.faults.stop_while_busy_hang:
            self._write_streak += 1
            if self._write_streak >= 2:
                raise _Hang()
        else:
            self._write_streak = 0
        if self.faults.inverted_status_check:
            # status poll predicate is inverted: the ready state looks busy
            raise _DutError(EINVAL)
        _bus_data(self.i2c.write_reg(addr, reg, data, self._i2c_bitrate))
        return {"result": SUCCESS}

    def _cmd_i2c_read_bytes(self, args) -> dict:
        addr, length = args[0], args[1]
        self._i2c_guard()
        if not 0 <= length <= MAX_COMMAND_COUNT:
            raise _DutError(EINVAL)
        self._write_streak = 0
        data = _bus_data(self.i2c.read_bytes(addr, length, self._i2c_bitrate))
        return {"data": list(data), "result": SUCCESS}

    def _cmd_i2c_write_bytes(self, args) -> dict:
        addr, data = args[0], bytes(args[1:])
        self._i2c_guard()
        _bus_data(self.i2c.write_bytes(addr, data, self._i2c_bitrate))
        return {"result": SUCCESS}

    # -- SPI ------------------------------------------------------------

    def _cmd_spi_init(self, args) -> dict:
        mode = args[0] if args else 0
        if mode not in (0, 1, 2, 3):
            raise _DutError(EINVAL)
        self._spi_mode = mode
        self._spi_bitrate = args[1] if len(args) > 1 else DEFAULT_SPI_BITRATE
        return {"result": SUCCESS}

    def _cmd_spi_transfer(self, args) -> dict:
        if self._spi_bitrate is None:
            raise _DutError(ENODEV)
        data = _bus_data(self.spi.transfer(bytes(args), self._spi_bitrate, self._spi_mode))
        return {"data": list(data), "result": SUCCESS}

    # -- UART -----------------------------------------------------------

    def _cmd_uart_init(self, args) -> dict:
        self._uart_bitrate = args[0] if args else DEFAULT_UART_BITRATE
        return {"result": SUCCESS}

    def _cmd_uart_write(self, args) -> dict:
        if self._uart_bitrate is None:
            raise _DutError(ENODEV)
        data = _bus_data(self.uart.process(bytes(args), self._uart_bitrate))
        return {"data": list(data), "result": SUCCESS}

    # -- GPIO / timers --------------------------------------------------

    def _ref_pin(self, pin: int) -> int:
        if pin not in self.pin_map:
            raise _DutError(EINVAL)
        return self.pin_map[pin]

    def _drive_pin(self, pin: int, level: int) -> None:
        self.trace.record_edge(self._ref_pin(pin), level)
        self._pin_levels[pin] = level

    def _cmd_gpio_set(self, args) -> dict:
        pin, level = args[0], args[1]
        if level not in (0, 1):
            raise _DutError(EINVAL)
        self._drive_pin(pin, level)
        return {"result": SUCCESS}

    def _cmd_gpio_toggle(self, args) -> dict:
        pin = args[0]
        level = 1 - self._pin_levels.get(pin, 0)
        self._drive_pin(pin, level)
        return {"result": SUCCESS}

    def _cmd_timer_bench(self, args) -> dict:
        """Fire n virtual timers at one target time, toggling a pin per handler.

        Handlers at an already-claimed target queue behind each other, so the
        k-th handler runs about k handler-overheads past the target.
        """
        n_timers, period_ns, pin = args[0], args[1], args[2]
        if not 1 <= n_timers <= MAX_COMMAND_COUNT or period_ns < 0:
            raise _DutError(EINVAL)
        target = self.clock.now + round(period_ns * (1.0 + self.clock_ppm_error / 1e6))  # on the DUT clock
        self._toggle_train(pin, [target + (i + 1) * HANDLER_OVERHEAD_NS for i in range(n_timers)])
        return {"result": SUCCESS, "data": target}

    def _cmd_timer_trace(self, args) -> dict:
        """Toggle a pin every period for n edges, timed by the DUT clock."""
        n_edges, period_ns, pin = args[0], args[1], args[2]
        if not 1 <= n_edges <= MAX_COMMAND_COUNT or period_ns < 0:
            raise _DutError(EINVAL)
        base = self.clock.now + HANDLER_OVERHEAD_NS
        scale = 1.0 + self.clock_ppm_error / 1e6  # _cmd_timer_bench's factor, computed once per train
        self._toggle_train(pin, [base + round(k * period_ns * scale) for k in range(1, n_edges + 1)])
        return {"result": SUCCESS, "data": n_edges}

    def _toggle_train(self, pin: int, times: list[int]) -> None:
        """Toggle ``pin`` once at each of ``times``, as timer handlers firing at those times would.

        Handlers fire in time order, equal times in the order given; a handler due before now
        makes the whole train EINVAL, with no edge recorded.
        """
        ref_pin = self._ref_pin(pin)
        times.sort()
        if times[0] < self.clock.now:
            raise _DutError(EINVAL)
        level = 1 - self._pin_levels.get(pin, 0)
        self.trace.record_edges(ref_pin, level, times)
        self.clock.advance_to(times[-1])
        self._pin_levels[pin] = level if len(times) % 2 else 1 - level
        self.trace.publish()  # left to the next rr: suites_local req_p50_us +10%, edges_local req_p99_us -15% (2 vCPUs)


# each shell command's handler, by command name: the DutDevice methods named ``_cmd_<name>``
_COMMANDS = {name[len("_cmd_"):]: method for name, method in vars(DutDevice).items() if name.startswith("_cmd_")}


def _bus_data(result: BusResult) -> bytes:
    """The data of a bus result, or its failed status's errno as a ``_DutError``."""
    if result.status != "ok":
        raise _DutError(BUS_ERRNO[result.status])
    return result.data


def _to_int(token: str) -> int:
    if token.isdigit():
        return int(token)
    return int(token, 16) if token.lower().startswith("0x") else int(token)
