"""Served benches: one connection at a time per server, one lock over every server in the process,
bounded request lines."""

import socket
import threading
import time

from hilsim.harness import SUITE_NAMES, run_suite
from hilsim.harness.report import FAIL
from hilsim.wire import MAX_LINE

from conftest import make_bench, served


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
    with served(probe, probe) as servers:
        clients = [
            threading.Thread(target=lambda ep=server.endpoint: [ask(ep, "-v") for _ in range(8)])
            for server in servers
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
    assert probe.most == 1


def test_an_over_long_line_closes_only_its_connection(bench):
    with served(bench.refdev) as [server]:
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(b"wr 0" + b" 1" * (MAX_LINE // 2) + b"\n")
            try:
                reply = sock.recv(4096)
            except ConnectionResetError:
                reply = b""
            assert reply == b""
        assert '"result": 0' in ask(server.endpoint, "-v")


# passes of the five suites each harness runs: enough that cases which interleave show on every run
PASSES = 4


def outcomes(report) -> tuple:
    return report.infrastructure_error, [(c.id, c.verdict, c.reason) for c in report.cases]


def test_two_harnesses_on_one_served_bench_get_the_verdicts_of_a_lone_run(map_dir):
    """Each ``run_suite`` owns the bench from its DUT ``sync`` to its close; the other one waits its turn."""
    lone = {suite: outcomes(run_suite(suite)) for suite in SUITE_NAMES}
    bench = make_bench()
    differing = []  # (harness, pass, suite, outcomes) of each served suite run that differs from the lone run

    def harness(index):
        for done in range(PASSES):
            for suite in SUITE_NAMES:
                got = outcomes(run_suite(suite, dut.endpoint, ref.endpoint, map_dir=map_dir))
                if got != lone[suite]:
                    differing.append((index, done, suite, got))

    with served(bench.refdev, bench.dut) as [ref, dut]:
        harnesses = [threading.Thread(target=harness, args=(index,)) for index in range(2)]
        for thread in harnesses:
            thread.start()
        for thread in harnesses:
            thread.join(60)
        assert not any(thread.is_alive() for thread in harnesses)
    assert differing == []


def test_two_harnesses_on_a_bench_whose_dut_drops_a_connection_get_the_report_of_a_lone_run(
    dut_raising_on_toggle, map_dir
):
    """The DUT drops its connection mid-suite, and its harness reconnects while it holds the reference
    device; a second harness that had taken the DUT server first would keep it from the DUT until
    the client's 5 s limit."""
    bench = make_bench()
    got = {}  # harness -> (outcomes, seconds taken)

    def harness(index):
        started = time.monotonic()
        report = run_suite("gpio_timer", dut.endpoint, ref.endpoint, map_dir=map_dir)
        got[index] = outcomes(report), time.monotonic() - started

    with served(bench.refdev, bench.dut) as [ref, dut]:
        harness("lone")
        harnesses = [threading.Thread(target=harness, args=(index,)) for index in range(2)]
        for thread in harnesses:
            thread.start()
            time.sleep(0.002)
        for thread in harnesses:
            thread.join(30)
        assert not any(thread.is_alive() for thread in harnesses)
    lone = got.pop("lone")[0]
    assert ("gpio.trace_count", FAIL, "gpio_toggle 1: expected result 'Success', got 'Timeout'") in lone[1]
    assert {index: report for index, (report, _) in got.items()} == {0: lone, 1: lone}
    assert all(seconds < 2.5 for _, seconds in got.values()), got
