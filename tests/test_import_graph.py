"""The simulated devices share only the wire with the client and the server, as PHiLIP's firmware and PAL do."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
CLIENT_AND_SERVER = {"hilsim.pal", "hilsim.serve", "socketserver"}


def modules_loaded_by(module: str) -> set[str]:
    """The modules a fresh interpreter holds after importing ``module``."""
    code = f"import sys, {module}; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("module", ["hilsim.refdev", "hilsim.dut", "hilsim.bench"])
def test_a_device_loads_neither_the_client_nor_the_server(module):
    assert modules_loaded_by(module) & CLIENT_AND_SERVER == set()


def test_the_wire_loads_no_other_hilsim_module():
    assert {m for m in modules_loaded_by("hilsim.wire") if m.startswith("hilsim.")} == {"hilsim.wire"}


@pytest.mark.parametrize("module", ["hilsim.sim.clock", "hilsim.sim.gpio"])
def test_a_sim_model_loads_no_other_hilsim_module(module):
    assert {m for m in modules_loaded_by(module) if m.startswith("hilsim")} == {"hilsim", "hilsim.sim", module}
