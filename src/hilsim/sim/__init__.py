"""Deterministic peripheral simulation on a nanosecond virtual clock."""

from hilsim.sim.clock import SimClock, EventScheduler
from hilsim.sim.gpio import CaptureMethod, GpioEvent, GpioTrace, CAPTURE_METHODS
from hilsim.sim.bus import (
    BusResult,
    BusTransaction,
    I2cSlaveModel,
    SpiSlaveModel,
    UartModel,
    estimate_bus_speed,
)

__all__ = [
    "SimClock",
    "EventScheduler",
    "CaptureMethod",
    "GpioEvent",
    "GpioTrace",
    "CAPTURE_METHODS",
    "BusResult",
    "BusTransaction",
    "I2cSlaveModel",
    "SpiSlaveModel",
    "UartModel",
    "estimate_bus_speed",
]
