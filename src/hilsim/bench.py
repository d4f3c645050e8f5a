"""One simulated test-node pair: reference device + DUT on one bare simulated clock."""

from __future__ import annotations

from dataclasses import dataclass

from hilsim.dut import DutDevice, FaultConfig
from hilsim.refdev import ReferenceDevice
from hilsim.reference import reference_layout
from hilsim.sim.bus import I2cSlaveModel, SpiSlaveModel, UartModel
from hilsim.sim.clock import SimClock
from hilsim.sim.trace import TraceUnit


@dataclass
class BenchConfig:
    seed: int = 0
    faults: FaultConfig | None = None
    dut_clock_ppm_error: float = 0.0
    pin_map: dict | None = None


class Bench:
    """Builds and owns the wired pair; fully isolated from other benches."""

    def __init__(self, config: BenchConfig | None = None):
        self.config = config or BenchConfig()
        self.clock = SimClock()
        layout = reference_layout()
        self.refdev = ReferenceDevice(layout)
        regs = self.refdev.regs
        self.i2c = I2cSlaveModel(regs, self.clock)
        self.spi = SpiSlaveModel(regs, self.clock)
        self.uart = UartModel(regs, self.clock)
        self.trace = TraceUnit(regs, self.clock, seed=self.config.seed)
        self.refdev.register_init_hook("i2c", self.i2c.reinit)
        self.refdev.register_init_hook("spi", self.spi.reinit)
        self.refdev.register_init_hook("uart", self.uart.reinit)
        self.refdev.register_init_hook("timer", self.trace.reinit)
        self.refdev.register_init_hook("trace", self.trace.reinit)
        self.dut = DutDevice(
            self.clock,
            self.i2c,
            self.spi,
            self.uart,
            self.trace,
            faults=self.config.faults,
            clock_ppm_error=self.config.dut_clock_ppm_error,
            pin_map=self.config.pin_map,
        )

    def reset(self) -> None:
        """Reset both devices, as a harness setup phase does: register image, model configuration, DUT session."""
        self.refdev.reset()
        self.dut.reset()
