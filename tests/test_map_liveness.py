"""Map liveness ledger: a read-only register that never moves is a test that cannot fail.

Every read-only entry of the bundled map must differ from its default at some point of the
workload, or be listed in ``UNMOVED`` with the reason it cannot. A register moves when the
register image after a device command differs from the default image in the entry's bytes;
models write through bound fields, so the image is compared rather than any write call recorded.
The workload is every suite with seed 0, fault-free and with each seeded fault alone, plus the
command and capture streams of ``scripts/behaviour_digest.py``.
"""

from hilsim.dut import DutDevice, FaultConfig
from hilsim.harness import SUITE_NAMES, RunConfig, SuiteRunner
from hilsim.refdev import ReferenceDevice
from hilsim.reference import reference_layout

from conftest import load_script

BUILD = "firmware build stamp: the simulated device has no build, so it keeps its default"
IDENTITY = "device identity constant, fixed by the map's default"
STATUS = "status bit the bus models do not publish yet"
UNMOVED = {
    "sys.sn": IDENTITY,
    "sys.fw_rev": IDENTITY,
    **{f"sys.build_time.{field}": BUILD for field in (
        "tick_ms", "seconds", "minutes", "hours", "day_of_month", "day_of_week", "month", "year"
    )},
    "sys.tick": "not published: the device's time lives in the bench clock, read through trace ticks",
    "sys.device_num": IDENTITY,
    "sys.sys_clk_hz": IDENTITY,
    "sys.boot_count": "the simulated device never reboots",
    "sys.status.update": "not published: staged writes are not mirrored into the map",
    "sys.status.board": IDENTITY,
    **{f"i2c.status.{bit}": STATUS for bit in ("ow", "busy", "rsr", "gencall", "tx_empty", "rx_full")},
    **{f"spi.status.{bit}": STATUS for bit in ("bsy", "ovr", "modf", "udr", "clk_active_level")},
    **{f"uart.status.{bit}": STATUS for bit in ("cts", "pe", "fe", "nf", "ore")},
    "i2c.state": "the I2C model keeps no state machine value in the map yet",
    "spi.state": "the SPI model keeps no state machine value in the map yet",
    "i2c.buf": "the I2C model does not publish its frame bytes yet",
    "spi.buf": "the SPI model does not publish its frame bytes yet",
    "uart.buf": "the UART model does not publish its received bytes yet",
    "uart.rx_error_count": "the UART model cannot produce a framing or parity error",
    "timer.status.active": "the trace unit does not mark a running capture yet",
}


def test_every_read_only_register_moves_or_is_listed_with_its_reason(monkeypatch):
    layout = reference_layout()
    default = int.from_bytes(layout.default_image, "little")
    moved = 0  # one set bit per image bit that has differed from its default after some command

    def watched(handle_line, regs_of):
        def handle(self, line):
            nonlocal moved
            reply = handle_line(self, line)
            moved |= int.from_bytes(regs_of(self).committed, "little") ^ default
            return reply

        return handle

    monkeypatch.setattr(DutDevice, "handle_line", watched(DutDevice.handle_line, lambda dut: dut.trace.regs))
    monkeypatch.setattr(ReferenceDevice, "handle_line", watched(ReferenceDevice.handle_line, lambda dev: dev.regs))
    for faults in [None] + [FaultConfig(**{name: True}) for name in FaultConfig.flag_names()]:
        for suite in SUITE_NAMES:
            SuiteRunner.local(RunConfig(seed=0, faults=faults)).run_suite(suite)
    digests = load_script("behaviour_digest")
    digests.streams_digest()
    digests.trace_digest()

    read_only = [e for e in layout.entries if e.access == "read-only"]
    unmoved = {e.name for e in read_only if not (moved >> 8 * e.offset) & ((1 << 8 * e.size) - 1)}
    assert len(read_only) == 86
    assert unmoved == set(UNMOVED)
