import importlib.util
import json
from pathlib import Path

import pytest

from hilsim.bench import Bench, BenchConfig

GOLDEN = Path(__file__).parent / "golden" / "protocol_responses.txt"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def bench():
    return Bench(BenchConfig(seed=7))


def make_bench(**kwargs) -> Bench:
    return Bench(BenchConfig(**kwargs))


def golden_exchanges(bench: Bench) -> list[tuple[str, str]]:
    """Run the golden file's scenario (one DUT register read) on ``bench``; return its (request, reply) pairs."""
    bench.dut.handle_line("i2c_init")
    bench.dut.handle_line("i2c_read_reg 85 0 1")
    pairs = []
    for raw in GOLDEN.read_text("utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            request, expected = line.split("\t")
            pairs.append((request, expected))
    return pairs


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module, without running its main block."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nested_reply(fields, depth=1000):
    """``fields`` as reply text with a ``depth``-deep array added; ``json.dumps`` refuses that depth,
    and ``json.loads`` raises ``RecursionError`` on it."""
    return json.dumps({**fields, "nested": []})[:-3] + "[" * depth + "]" * depth + "}"
