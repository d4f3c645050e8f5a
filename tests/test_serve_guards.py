"""Served benches: one connection at a time per server, one lock over every server in the process,
bounded request lines."""

import socket
import threading
import time

from hilsim.harness import SUITE_NAMES, run_suite
from hilsim.memmap import emit_csv
from hilsim.reference import reference_layout
from hilsim.serve import LineServer
from hilsim.wire import MAX_LINE

from conftest import make_bench


class OverlapProbe:
    """A device that notes how many requests it is handling at once."""

    def __init__(self):
        self.active = 0
        self.most = 0

    def handle_line(self, line):
        self.active += 1
        self.most = max(self.most, self.active)
        time.sleep(0.01)
        self.active -= 1
        return '{"result": 0}'


def ask(endpoint, line):
    host, port = endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        fh = sock.makefile("rw", encoding="ascii", newline="\n")
        fh.write(line + "\n")
        fh.flush()
        return fh.readline()


def test_two_servers_over_one_bench_never_handle_requests_at_once():
    probe = OverlapProbe()
    servers = [LineServer(probe), LineServer(probe)]
    for server in servers:
        server.serve_background()
    try:
        clients = [
            threading.Thread(target=lambda ep=server.endpoint: [ask(ep, "-v") for _ in range(8)])
            for server in servers
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
    assert probe.most == 1


def test_an_over_long_line_closes_only_its_connection(bench):
    server = LineServer(bench.refdev)
    server.serve_background()
    host, port = server.endpoint.rsplit(":", 1)
    try:
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"wr 0" + b" 1" * (MAX_LINE // 2) + b"\n")
            try:
                reply = sock.recv(4096)
            except ConnectionResetError:
                reply = b""
            assert reply == b""
        assert '"result": 0' in ask(server.endpoint, "-v")
    finally:
        server.shutdown()
        server.server_close()


# passes of the five suites each harness runs: enough that cases which interleave show on every run
PASSES = 4


def outcomes(report) -> tuple:
    return report.infrastructure_error, [(c.id, c.verdict, c.reason) for c in report.cases]


def test_two_harnesses_on_one_served_bench_get_the_verdicts_of_a_lone_run(tmp_path):
    """Each ``run_suite`` owns the bench from its DUT ``sync`` to its close; the other one waits its turn."""
    (tmp_path / "ref_device_1.2.3.csv").write_text(emit_csv(reference_layout()), "utf-8")
    lone = {suite: outcomes(run_suite(suite)) for suite in SUITE_NAMES}
    bench = make_bench()
    servers = [LineServer(bench.refdev), LineServer(bench.dut)]
    for server in servers:
        server.serve_background()
    ref, dut = (server.endpoint for server in servers)
    differing = []  # (harness, pass, suite, outcomes) of each served suite run that differs from the lone run

    def harness(index):
        for done in range(PASSES):
            for suite in SUITE_NAMES:
                got = outcomes(run_suite(suite, dut, ref, map_dir=str(tmp_path)))
                if got != lone[suite]:
                    differing.append((index, done, suite, got))

    try:
        harnesses = [threading.Thread(target=harness, args=(index,)) for index in range(2)]
        for thread in harnesses:
            thread.start()
        for thread in harnesses:
            thread.join(60)
        assert not any(thread.is_alive() for thread in harnesses)
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
    assert differing == []
