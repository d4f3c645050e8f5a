"""Served benches: one lock over every server in the process, bounded request lines."""

import socket
import threading
import time

from hilsim.serve import LineServer
from hilsim.wire import MAX_LINE


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
