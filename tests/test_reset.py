"""One default image: in-place reset, the CSV map round trip, and served resets."""

import pytest

from hilsim.harness import SUITE_NAMES, RunConfig, SuiteRunner
from hilsim.memmap import LayoutedMap, emit_csv
from hilsim.pal import DutClient, RefDeviceClient, _reset_writes
from hilsim.refdev import RangeViolation
from hilsim.reference import reference_layout
from hilsim.serve import serve_tcp

from conftest import make_bench


def test_bench_reset_keeps_one_register_file_shared_by_every_model(bench):
    regs = bench.refdev.regs
    bench.reset()
    assert bench.refdev.regs is regs
    for model in (bench.i2c, bench.spi, bench.uart, bench.trace):
        assert model.regs is regs


def dirty(regs):
    user = regs.map.lookup("user_reg.user_reg")
    regs.poke(user.offset, b"\xaa" * user.size)
    regs.poke_param("i2c.r_count", 9)
    regs.stage_write(user.offset, b"\x55")


def test_register_file_reset_restores_the_default_image_and_drops_staged_writes(bench):
    regs = bench.refdev.regs
    dirty(regs)
    regs.reset()
    assert bytes(regs.committed) == reference_layout().default_image
    assert regs.staged == []


def test_bench_reset_gives_the_image_of_a_fresh_bench(bench):
    regs = bench.refdev.regs
    dirty(regs)
    bench.reset()
    assert regs.staged == []
    # the model re-init hooks publish their telemetry over the default image
    assert regs.committed == make_bench(seed=7).refdev.regs.committed


def test_register_file_poke_past_the_end_raises_and_keeps_the_size():
    regs = make_bench().refdev.regs
    for offset, size in ((regs.total_size, 16), (regs.total_size - 1, 2)):
        with pytest.raises(RangeViolation):
            regs.poke(offset, b"\x01" * size)
    assert regs.total_size == 2048
    assert bytes(regs.committed) == make_bench().refdev.regs.committed


def test_default_image_matches_every_entry_default():
    layout = reference_layout()
    image = layout.default_image
    assert len(image) == layout.total_size == len(layout.access_mask)
    for entry in layout.entries:
        assert image[entry.offset : entry.offset + entry.size] == entry.default_bytes(), entry.name


def test_csv_map_round_trips_to_the_layout_entries():
    layout = reference_layout()
    csv_map = LayoutedMap.from_csv(emit_csv(layout), layout.version)
    assert csv_map.by_name == layout.by_name
    assert (csv_map.version, csv_map.map_hash) == (layout.version, layout.map_hash)
    assert csv_map.spec is None


def reset_writes_per_entry(layout):
    """The soft reset's lines built entry by entry: each writable entry's default bytes, or 1 for an
    init flag, joined into one ``wr`` while the entries follow each other."""
    spans = []
    for entry in sorted(layout.entries, key=lambda e: e.offset):
        if entry.access == "read-only":
            continue
        data = entry.pack(1) if "init-trigger" in entry.flags else entry.default_bytes()
        if spans and spans[-1][0] + len(spans[-1][1]) == entry.offset:
            spans[-1][1].extend(data)
        else:
            spans.append((entry.offset, bytearray(data)))
    return tuple(f"wr {offset} {' '.join(map(str, data))}" for offset, data in spans)


def test_reset_writes_equal_the_per_entry_reference():
    layout = reference_layout()
    csv_map = LayoutedMap.from_csv(emit_csv(layout), layout.version)
    assert _reset_writes(csv_map) == reset_writes_per_entry(layout) == _reset_writes(layout)


def test_a_local_runner_leaves_its_csv_map_image_unbuilt():
    runner = SuiteRunner.local(RunConfig(seed=1))
    runner.run_suite("infrastructure")
    assert "default_image" not in vars(runner.phil.map)


# -- served resets --------------------------------------------------------


def test_wr_takes_every_byte_spelling_and_rejects_bad_ones(bench):
    """A reset writes whole spans as decimal bytes; other spellings still parse."""
    refdev = bench.refdev
    user = refdev.regs.map.lookup("user_reg.user_reg").offset
    for line in (f"wr {user} 1 2 255", f"wr {user} 0x01 002 0xFF", f"wr {user} 0X1 +2 255"):
        assert refdev.handle_line(line) == '{"result": 0}', line
        refdev.handle_line("ex")
        assert refdev.regs.read(user, 3) == b"\x01\x02\xff", line
    for bad in ("256", "-1", "0x100", "x"):
        assert refdev.handle_line(f"wr {user} 1 {bad}") == '{"result": 1}', bad


def test_padding_is_read_only_so_a_served_reset_restores_every_byte(bench):
    layout = bench.refdev.regs.map
    in_entries = {o for e in layout.entries for o in range(e.offset, e.offset + e.size)}
    padding = [o for o in range(layout.total_size) if o not in in_entries]
    assert 199 in padding and padding[-1] == 2047
    for offset in padding:
        assert bench.refdev.handle_line(f"wr {offset} 5") == '{"result": 3}', offset
    assert bench.refdev.handle_line("ex") == '{"result": 0}'
    assert bytes(bench.refdev.regs.committed) == bytes(make_bench(seed=7).refdev.regs.committed)
    assert len(_reset_writes(LayoutedMap.from_csv(emit_csv(layout), layout.version))) == 16


SEED = 3
ORDERS = [
    ("i2c", "uart", "i2c"),
    SUITE_NAMES,
    tuple(reversed(SUITE_NAMES)),
]


@pytest.fixture(scope="module")
def local_verdicts():
    verdicts = {}
    for suite in SUITE_NAMES:
        report = SuiteRunner.local(RunConfig(seed=SEED)).run_suite(suite)
        verdicts[suite] = {c.id: c.verdict for c in report.cases}
    return verdicts


def test_served_verdicts_equal_local_verdicts_in_any_order(local_verdicts):
    bench = make_bench(seed=SEED)
    servers = [serve_tcp(bench.refdev), serve_tcp(bench.dut)]
    for server in servers:
        server.serve_background()
    ref_server, dut_server = servers
    layout = reference_layout()
    runner = SuiteRunner(
        DutClient(dut_server.endpoint),
        RefDeviceClient(ref_server.endpoint, LayoutedMap.from_csv(emit_csv(layout), layout.version)),
        config=RunConfig(seed=SEED),
    )
    try:
        mismatches = []
        for order in ORDERS:
            for suite in order:
                for case in runner.run_suite(suite).cases:
                    expected = local_verdicts[suite][case.id]
                    if case.verdict != expected:
                        mismatches.append(f"{order}: {case.id} served {case.verdict}, local {expected} ({case.reason})")
        assert mismatches == []
    finally:
        runner.dut.transport.close()
        runner.phil.transport.close()
        for server in servers:
            server.shutdown()
            server.server_close()
