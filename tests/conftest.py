import importlib.util
import json
from contextlib import ExitStack, contextmanager
from pathlib import Path

import pytest

from hilsim.bench import Bench, BenchConfig
from hilsim.dut import DutDevice
from hilsim.memmap import LayoutedMap, emit_csv
from hilsim.reference import reference_layout
from hilsim.serve import LineServer

GOLDEN = Path(__file__).parent / "golden" / "protocol_responses.txt"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def bench():
    return Bench(BenchConfig(seed=7))


def make_bench(**kwargs) -> Bench:
    return Bench(BenchConfig(**kwargs))


@contextmanager
def served(*devices):
    """Serve each device on a background ``LineServer`` and yield the servers; on exit, shut each
    down and close it."""
    with ExitStack() as stack:
        servers = []
        for device in devices:
            server = stack.enter_context(LineServer(device))
            server.serve_background()
            stack.callback(server.shutdown)  # runs before the server's close, which the stack entered first
            servers.append(server)
        yield servers


class Tap:
    """A transport, or a device a ``LineServer`` serves, that keeps every request line in ``lines``.

    ``answer(line)`` sees each line first: text it returns is sent in ``device``'s place, and an
    exception it raises fails the request; None passes the line on to ``device``.
    """

    def __init__(self, device=None, answer=None):
        self.device, self.answer, self.lines = device, answer, []

    def request(self, line):
        self.lines.append(line)
        reply = self.answer(line) if self.answer else None
        return self.device.handle_line(line) if reply is None else reply

    handle_line = request

    def close(self):
        pass


@pytest.fixture(scope="module")
def map_dir(tmp_path_factory):
    """A map directory holding the reference map, as a client of a served reference device reads it."""
    layout = reference_layout()
    path = tmp_path_factory.mktemp("maps")
    (path / f"ref_device_{layout.version}.csv").write_text(emit_csv(layout), "utf-8")
    return str(path)


def csv_map() -> LayoutedMap:
    """The reference map read back from its CSV, as a client holds it."""
    layout = reference_layout()
    return LayoutedMap.from_csv(emit_csv(layout), layout.version)


@pytest.fixture
def dut_raising_on_toggle(monkeypatch):
    """Every ``DutDevice`` raises on ``gpio_toggle``: served, that drops the DUT's connection."""
    handle_line = DutDevice.handle_line

    def raising(self, line):
        if line.startswith("gpio_toggle"):
            raise RuntimeError("gpio_toggle refused")
        return handle_line(self, line)

    monkeypatch.setattr(DutDevice, "handle_line", raising)


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
