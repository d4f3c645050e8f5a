"""Deterministic peripheral simulation on a nanosecond virtual clock."""

from hilsim.sim.clock import SimClock, EventScheduler
from hilsim.sim.gpio import CaptureMethod, GpioEvent, GpioTrace, CAPTURE_METHODS
from hilsim.sim.bus import BusResult, I2cSlaveModel, SpiSlaveModel, UartModel

__all__ = [
    "SimClock",
    "EventScheduler",
    "CaptureMethod",
    "GpioEvent",
    "GpioTrace",
    "CAPTURE_METHODS",
    "BusResult",
    "I2cSlaveModel",
    "SpiSlaveModel",
    "UartModel",
]
