"""The benchmark's layer tracer patches hilsim by attribute name; those names must stay."""

import importlib.util
from pathlib import Path

import pytest

from hilsim.harness import RunConfig, SuiteRunner

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# spans each suite must record: a bus model's patched method must stay on its own
# class and stay the method the DUT calls
SUITE_SPANS = {
    "gpio_timer": ("sim.trace.publish", "refdev.regfile_init", "harness.read_trace", "pal.read_reg"),
    "i2c": ("sim.bus.txn.i2c",),
    "spi": ("sim.bus.txn.spi",),
    "uart": ("sim.bus.txn.uart",),
}
# spans every local suite run must record: the runner builds its map through the patched names
LOCAL_SPANS = ("memmap.emit_csv", "pal.namemap_build")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("suite", list(SUITE_SPANS))
def test_layer_spans_install_record_and_uninstall(suite):
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    tracer_mod.install_layer_spans(tracer)
    patched = list(tracer._saved)
    try:
        report = SuiteRunner.local(RunConfig(seed=1)).run_suite(suite)
    finally:
        tracer.uninstall()
    assert report.cases and not report.failed
    spans = tracer.summary()["spans"]
    for name in SUITE_SPANS[suite] + LOCAL_SPANS:
        assert spans.get(name, {}).get("calls", 0) > 0, name
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
