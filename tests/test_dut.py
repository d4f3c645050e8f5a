"""DUT shell behavior, errno mapping, and the seeded fault library."""

import json

import pytest

from hilsim.dut import (
    COMMAND_DEADLINE_NS,
    COMMAND_OVERHEAD_NS,
    FaultConfig,
    HANDLER_OVERHEAD_NS,
    MAX_COMMAND_COUNT,
    METADATA,
)

from conftest import make_bench


def cmd(bench, line):
    return json.loads(bench.dut.handle_line(line))


# -- response shape -----------------------------------------------------


def test_response_echoes_command(bench):
    reply = cmd(bench, "sync")
    assert reply == {"cmd": ["sync"], "result": "Success"}


def test_metadata(bench):
    reply = cmd(bench, "get_metadata")
    assert reply["data"] == METADATA
    assert reply["result"] == "Success"


def test_unknown_command_is_error(bench):
    reply = cmd(bench, "frobnicate 1")
    assert reply["result"] == "Error"
    assert reply["error_code"] == -22


def test_every_command_advances_the_clock(bench):
    before = bench.clock.now
    cmd(bench, "sync")
    assert bench.clock.now == before + COMMAND_OVERHEAD_NS


# -- errno mapping ------------------------------------------------------


def test_uninitialized_bus_is_enodev(bench):
    reply = cmd(bench, "i2c_read_reg 85 0 1")
    assert reply["result"] == "Error"
    assert reply["data"] == -19
    assert reply["error_code"] == -19


def test_addr_nack_is_enxio(bench):
    cmd(bench, "i2c_init")
    reply = cmd(bench, "i2c_read_reg 99 0 1")
    assert reply["result"] == "Error"
    assert reply["error_code"] == -6


def test_data_nack_is_eio(bench):
    bench.refdev.regs.poke_param("i2c.mode.nack_data", 1)
    bench.i2c.reinit()
    cmd(bench, "i2c_init")
    reply = cmd(bench, "i2c_read_reg 85 0 1")
    assert reply["result"] == "Error"
    assert reply["data"] == -5  # error code mirrored into data
    assert reply["error_code"] == -5


def test_bad_pin_is_einval(bench):
    reply = cmd(bench, "gpio_toggle 9")
    assert reply["error_code"] == -22


@pytest.mark.parametrize("bad", ["gpio_set 0 5", "gpio_set 1 -1", "timer_trace 40 -1000 0", "timer_bench 4 -1000 0"])
def test_a_bad_level_or_period_is_einval_before_any_edge(bad):
    bench = make_bench()
    regs = bench.refdev.regs
    for _ in range(2):
        image = bytes(regs.committed)
        assert cmd(bench, bad)["error_code"] == -22
        assert bytes(regs.committed) == image
        assert cmd(bench, "timer_trace 4 1000000 0")["result"] == "Success"
    assert cmd(bench, "gpio_set 0 0")["result"] == "Success"


@pytest.mark.parametrize(
    "template",
    ["timer_trace {} 1000 0", "timer_bench {} 1000 0", "i2c_read_reg 85 0 {}", "i2c_read_bytes 85 {}"],
)
def test_a_count_past_the_bound_is_einval_before_any_edge_or_bus_activity(template):
    bench = make_bench()
    regs = bench.refdev.regs
    assert cmd(bench, "i2c_init")["result"] == "Success"
    image, now = bytes(regs.committed), bench.clock.now
    assert cmd(bench, template.format(MAX_COMMAND_COUNT + 1))["error_code"] == -22
    # no edge, count or bus time: only the command's own overhead
    assert bytes(regs.committed) == image
    assert bench.clock.now == now + COMMAND_OVERHEAD_NS


# -- healthy behavior ---------------------------------------------------


def test_i2c_read_write_roundtrip(bench):
    cmd(bench, "i2c_init")
    assert cmd(bench, "i2c_write_reg 85 5 17 34")["result"] == "Success"
    assert cmd(bench, "i2c_read_reg 85 5 2")["data"] == [17, 34]


def test_i2c_read_bytes_uses_register_pointer(bench):
    cmd(bench, "i2c_init")
    cmd(bench, "i2c_write_reg 85 7 42")
    cmd(bench, "i2c_read_reg 85 7 1")  # leaves pointer at 7
    assert cmd(bench, "i2c_read_bytes 85 1")["data"] == [42]


def test_spi_frame_roundtrip(bench):
    cmd(bench, "spi_init 0")
    assert cmd(bench, "spi_transfer 133 42")["result"] == "Success"
    assert cmd(bench, "spi_transfer 5 0")["data"] == [0, 42]


def test_a_rejected_spi_init_leaves_the_session_as_it_was(bench):
    assert cmd(bench, "spi_init 0 1000000")["result"] == "Success"
    assert cmd(bench, "spi_init 7 2000000")["error_code"] == -22
    # the transfer still runs in mode 0 at 1 MHz, as the bus speed it publishes shows
    assert cmd(bench, "spi_transfer 5 0")["result"] == "Success"
    assert bench.refdev.regs.read_param("spi.speed_hz") == 1_000_000


def test_uart_echo(bench):
    cmd(bench, "uart_init")
    assert cmd(bench, "uart_write 1 2 3")["data"] == [1, 2, 3]


def test_gpio_set_publishes_level(bench):
    cmd(bench, "gpio_set 0 1")
    assert bench.refdev.regs.read_param("gpio0.status.level") == 1


def test_reset_clears_session_state(bench):
    cmd(bench, "i2c_init")
    cmd(bench, "reset")
    assert cmd(bench, "i2c_read_reg 85 0 1")["error_code"] == -19


# -- timing model -------------------------------------------------------


def test_clock_ppm_error_stretches_intervals():
    slow = make_bench(dut_clock_ppm_error=500.0)
    cmd(slow, "i2c_init")
    base = slow.clock.now
    cmd(slow, "timer_trace 2 1000000 0")
    events = [e for e in slow.trace.trace.events if e.pin == 0]
    # second edge scheduled at 2 ms on the DUT clock -> 2 ms * (1 + 500e-6)
    nominal = 2_000_000
    expected = base + COMMAND_OVERHEAD_NS + round(nominal * 1.0005) + HANDLER_OVERHEAD_NS
    assert events[-1].timestamp_ns == pytest.approx(expected, abs=250)


def test_timer_bench_reports_target_time(bench):
    reply = cmd(bench, "timer_bench 3 1000000 0")
    events = [e for e in bench.trace.trace.events if e.pin == 0]
    assert len(events) == 3
    target = reply["data"]
    delays = [e.timestamp_ns - target for e in events]
    for i, delay in enumerate(sorted(delays)):
        assert delay == pytest.approx((i + 1) * HANDLER_OVERHEAD_NS, abs=250)


# -- seeded faults ------------------------------------------------------


def test_fault_config_parsing():
    faults = FaultConfig.from_json('{"extra_read_byte": true}')
    assert faults == FaultConfig(extra_read_byte=True)
    with pytest.raises(ValueError, match="unknown fault"):
        FaultConfig.from_json('{"bogus": true}')
    assert len(FaultConfig.flag_names()) == 5


def test_extra_read_byte_inflates_r_count():
    bench = make_bench(faults=FaultConfig(extra_read_byte=True))
    cmd(bench, "i2c_init")
    reply = cmd(bench, "i2c_read_reg 85 0 1")
    assert reply["result"] == "Success" and reply["data"] == [0]  # looks fine
    assert bench.refdev.regs.read_param("i2c.r_count") == 2  # but reads 2 bytes


def test_swallow_error_return_masks_failures():
    bench = make_bench(faults=FaultConfig(swallow_error_return=True))
    cmd(bench, "i2c_init")
    bench.refdev.regs.poke_param("i2c.mode.nack_data", 1)
    bench.i2c.reinit()
    reply = cmd(bench, "i2c_read_reg 85 0 1")
    assert reply == {"cmd": ["i2c_read_reg 85 0 1"], "data": 0, "result": "Success"}


def test_inverted_status_check_fails_writes():
    bench = make_bench(faults=FaultConfig(inverted_status_check=True))
    cmd(bench, "i2c_init")
    reply = cmd(bench, "i2c_write_reg 85 0 1")
    assert reply["result"] == "Error" and reply["error_code"] == -22
    # reads are unaffected
    assert cmd(bench, "i2c_read_reg 85 0 1")["result"] == "Success"


def test_missing_error_cleanup_locks_up_after_bad_address():
    bench = make_bench(faults=FaultConfig(missing_error_cleanup=True))
    cmd(bench, "i2c_init")
    assert cmd(bench, "i2c_read_reg 85 0 1")["result"] == "Success"
    assert cmd(bench, "i2c_read_reg 99 0 1")["result"] == "Error"
    before = bench.clock.now
    reply = cmd(bench, "i2c_read_reg 85 0 1")  # would work on a healthy DUT
    assert reply["result"] == "Timeout"
    assert bench.clock.now - before >= COMMAND_DEADLINE_NS


def test_stop_while_busy_hangs_second_consecutive_write():
    bench = make_bench(faults=FaultConfig(stop_while_busy_hang=True))
    cmd(bench, "i2c_init")
    assert cmd(bench, "i2c_write_reg 85 0 1")["result"] == "Success"
    assert cmd(bench, "i2c_write_reg 85 1 2")["result"] == "Timeout"


def test_faults_off_means_no_misbehavior(bench):
    cmd(bench, "i2c_init")
    for _ in range(5):
        assert cmd(bench, "i2c_write_reg 85 0 1")["result"] == "Success"
    assert cmd(bench, "i2c_read_reg 85 0 1")["result"] == "Success"
    assert bench.refdev.regs.read_param("i2c.err_count") == 0
