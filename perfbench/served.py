"""Run ``hilsim serve`` in this process with benchmark hooks.

Usage: python3 perfbench/served.py [--trace] serve --listen H:P --dut-listen H:P ...

The arguments after the optional ``--trace`` go to the hilsim CLI unchanged.
SIGUSR1 installs the layer spans and prints one JSON line with the bench's
simulated time; ``--trace`` does that before the CLI starts. SIGTERM prints one
JSON line with the simulated time and the span summary, then exits. The
server also exits when the process that started it is gone.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hilsim.bench import Bench  # noqa: E402
from hilsim.cli import main  # noqa: E402
from tracer import Tracer, install_layer_spans  # noqa: E402


def exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1)
    os._exit(1)


def run(argv: list[str]) -> None:
    trace_from_start = argv[:1] == ["--trace"]
    if trace_from_start:
        argv = argv[1:]
    benches: list[Bench] = []
    build = Bench.__init__

    def keep_bench(self, *args, **kwargs):
        build(self, *args, **kwargs)
        benches.append(self)

    Bench.__init__ = keep_bench
    tracer = Tracer()

    def sim_now() -> int:
        return benches[0].clock.now if benches else 0

    def emit(fields: dict) -> None:
        sys.stdout.write(json.dumps(fields) + "\n")
        sys.stdout.flush()

    def start_tracing(*_):
        install_layer_spans(tracer)
        emit({"tracing": True, "sim_now_ns": sim_now()})

    def stop(*_):
        emit({"sim_now_ns": sim_now(), **tracer.summary()})
        os._exit(0)

    signal.signal(signal.SIGUSR1, start_tracing)
    signal.signal(signal.SIGTERM, stop)
    threading.Thread(target=exit_with_parent, args=(os.getppid(),), daemon=True).start()
    if trace_from_start:
        start_tracing()
    main(args=argv, prog_name="hilsim")


if __name__ == "__main__":
    run(sys.argv[1:])
