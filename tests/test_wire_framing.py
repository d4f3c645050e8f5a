"""Line framing on both ends of the TCP wire: ``LineServer`` and ``TcpTransport``."""

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from hilsim.harness.report import FAIL, SKIP
from hilsim.harness.runner import RunConfig, SuiteRunner
from hilsim.pal import DutClient, RefDeviceClient, TcpTransport, TransportError, _reset_writes
from hilsim.serve import LineServer
from hilsim.wire import MAX_LINE

from conftest import golden_exchanges, make_bench


class RecordingDevice:
    """Answers every line with ``{"result": 0}`` and keeps the lines it was given."""

    def __init__(self):
        self.lines = []

    def handle_line(self, line):
        self.lines.append(line)
        return '{"result": 0}'


@contextmanager
def served(device):
    """A background ``LineServer`` for ``device``; yields its (host, port)."""
    server = LineServer(device)
    server.serve_background()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()


class MalformedWrites:
    """A reference device that answers ``not json`` to every ``wr`` and passes every other line on."""

    def __init__(self, device):
        self.device = device

    def handle_line(self, line):
        return "not json" if line.startswith("wr") else self.device.handle_line(line)


@contextmanager
def fake_server(script, connections=1, timeout=5):
    """A loopback listener that runs ``script(conn, index)`` on each of its connections in turn.

    Yields a ``TcpTransport`` pointed at it, with ``timeout`` as its limit.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        for index in range(connections):
            conn, _ = listener.accept()
            with conn:
                script(conn, index)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    transport = TcpTransport(*listener.getsockname()[:2], timeout=timeout)
    try:
        yield transport
    finally:
        transport.close()
        thread.join(5)
        listener.close()


def recv_lines(sock, count):
    """Read until ``count`` newlines have arrived; return every byte read."""
    data = b""
    while data.count(b"\n") < count:
        chunk = sock.recv(4096)
        if not chunk:
            break
        data += chunk
    return data


def is_closed(sock):
    """True if the peer has closed ``sock``, by a FIN or a reset."""
    try:
        return sock.recv(4096) == b""
    except ConnectionResetError:
        return True


# -- server side ----------------------------------------------------------


def test_two_request_lines_in_one_send_get_two_replies_in_order(bench):
    with served(bench.refdev) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"-v\nrr 204 2\n")
        assert recv_lines(sock, 2) == b'{"version": "1.2.3", "result": 0}\n{"data": [85, 0], "result": 0}\n'


def test_a_request_split_across_two_sends_is_answered_once():
    device = RecordingDevice()
    with served(device) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"rr 20")
        time.sleep(0.05)
        sock.sendall(b"4 2\n")
        assert recv_lines(sock, 1) == b'{"result": 0}\n'
        sock.settimeout(0.2)
        with pytest.raises(TimeoutError):
            sock.recv(4096)
    assert device.lines == ["rr 204 2"]


def test_a_line_of_max_line_bytes_is_served_and_one_more_closes_only_its_connection():
    """The cap counts the newline, as ``MAX_LINE`` says; the server goes on to the next connection."""
    device = RecordingDevice()
    with served(device) as addr:
        with socket.create_connection(addr, timeout=5) as cut:
            cut.sendall(b"x" * (MAX_LINE - 1) + b"\n")
            assert recv_lines(cut, 1) == b'{"result": 0}\n'
            cut.sendall(b"y" * MAX_LINE + b"\n")
            assert is_closed(cut)
        with socket.create_connection(addr, timeout=5) as after:
            after.sendall(b"-v\n")
            assert recv_lines(after, 1) == b'{"result": 0}\n'
    assert [len(line) for line in device.lines] == [MAX_LINE - 1, 2]


def test_the_golden_file_replays_byte_for_byte_over_tcp(bench):
    exchanges = golden_exchanges(bench)
    with served(bench.refdev) as addr:
        transport = TcpTransport(*addr)
        try:
            for request, expected in exchanges:
                assert transport.request(request) == expected, request
        finally:
            transport.close()
        # the same exchanges again, every request in one send: the reply stream is the golden replies in order
        with socket.create_connection(addr, timeout=5) as sock:
            sock.sendall("".join(request + "\n" for request, _ in exchanges).encode())
            expected = "".join(reply + "\n" for _, reply in exchanges).encode()
            assert recv_lines(sock, len(exchanges)) == expected


def test_a_handler_installed_on_a_live_server_answers_the_next_line_of_an_open_connection(monkeypatch):
    device = RecordingDevice()
    with served(device) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"-v\n")
        assert recv_lines(sock, 1) == b'{"result": 0}\n'
        monkeypatch.setattr(RecordingDevice, "handle_line", lambda self, line: '{"wrapped": 1}')
        sock.sendall(b"-v\n")
        assert recv_lines(sock, 1) == b'{"wrapped": 1}\n'
    assert device.lines == ["-v"]


def test_blank_and_whitespace_only_lines_get_no_reply():
    device = RecordingDevice()
    with served(device) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"\n  \t \r\n\x1c\n-v\n")
        assert recv_lines(sock, 1) == b'{"result": 0}\n'
        sock.settimeout(0.2)
        with pytest.raises(TimeoutError):
            sock.recv(4096)
    assert device.lines == ["-v"]


def test_a_byte_that_is_not_utf8_is_replaced_and_the_line_answered(bench):
    device = RecordingDevice()
    with served(device) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"rr \xff 1\nwr 52 \xc3\xa9\n")
        assert recv_lines(sock, 2) == b'{"result": 0}\n' * 2
    assert device.lines == ["rr \ufffd 1", "wr 52 \u00e9"]
    with served(bench.refdev) as addr, socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"rr \xff 1\n")
        assert recv_lines(sock, 1) == b'{"result": 1}\n'


def test_a_served_reset_answers_and_commits_as_the_in_process_one():
    """Twin benches of one seed: the reset lines and ``ex``, twice, over TCP and in process."""
    served_bench, local_bench = make_bench(seed=11), make_bench(seed=11)
    offset = served_bench.refdev.regs.map.lookup("user_reg.user_reg").offset
    lines = [f"wr {offset} 1 2 3", "wr 52 7", "ex", *_reset_writes(served_bench.refdev.regs.map), "ex"] * 2
    local = [local_bench.refdev.handle_line(line) for line in lines]
    with served(served_bench.refdev) as addr:
        transport = TcpTransport(*addr)
        try:
            remote = [transport.request(line) for line in lines]
        finally:
            transport.close()
    assert remote == local
    assert set(local) == {'{"result": 0}'}
    assert served_bench.refdev.regs.committed == local_bench.refdev.regs.committed
    restored = slice(offset, offset + 3)  # the reset undid the first write
    assert served_bench.refdev.regs.committed[restored] == served_bench.refdev.regs.map.default_image[restored]


# -- client side ----------------------------------------------------------


def test_a_reply_in_two_chunks_is_put_back_together_and_bytes_past_it_stay_buffered():
    def script(conn, _):
        recv_lines(conn, 1)
        conn.sendall(b'{"resu')
        time.sleep(0.05)
        conn.sendall(b'lt": 0}\n{"result": 1}\n')
        recv_lines(conn, 1)

    with fake_server(script) as transport:
        assert transport.request("-v") == '{"result": 0}'
        assert transport.request("ex") == '{"result": 1}'


def test_a_peer_that_closes_mid_reply_raises_transport_error():
    def script(conn, _):
        recv_lines(conn, 1)
        conn.sendall(b'{"resu')

    with fake_server(script) as transport:
        with pytest.raises(TransportError, match="connection closed"):
            transport.request("-v")


def test_close_then_request_reconnects():
    def script(conn, index):
        while recv_lines(conn, 1):
            conn.sendall(b'{"connection": %d}\n' % index)

    with fake_server(script, connections=2) as transport:
        assert transport.request("-v") == '{"connection": 0}'
        assert transport.request("-v") == '{"connection": 0}'
        transport.close()
        assert transport.request("-v") == '{"connection": 1}'


def test_connect_is_lazy_and_a_refused_connect_is_a_transport_error():
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    transport = TcpTransport("127.0.0.1", port, timeout=1)
    with pytest.raises(TransportError, match="cannot connect"):
        transport.request("-v")


def test_a_silent_peer_times_out_and_the_next_request_opens_a_new_connection():
    def script(conn, index):
        if index == 0:
            while conn.recv(4096):  # never answers; ends when the client gives up and closes
                pass
        else:
            recv_lines(conn, 1)
            conn.sendall(b'{"connection": 1}\n')

    with fake_server(script, connections=2, timeout=0.2) as transport:
        started = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            transport.request("-v")
        assert time.monotonic() - started < 2
        assert transport.request("-v") == '{"connection": 1}'


def test_a_connected_socket_blocks_and_holds_its_limit_in_the_kernel():
    """No Python timeout, so no ``poll`` before each ``send`` and ``recv``; the kernel keeps the limit."""

    def script(conn, _):
        recv_lines(conn, 1)
        conn.sendall(b'{"result": 0}\n')
        recv_lines(conn, 1)

    with fake_server(script, timeout=0.2) as transport:
        assert transport.request("-v") == '{"result": 0}'
        sock = transport._lines.sock
        assert sock.gettimeout() is None
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            assert sock.getsockopt(socket.SOL_SOCKET, option, 16) != bytes(16)


# -- a reply that is not JSON ----------------------------------------------


@pytest.mark.parametrize("reply", [b"not json", b"[1, 2]"])
def test_a_reply_that_is_not_a_json_object_raises_transport_error(bench, reply):
    def script(conn, _):
        recv_lines(conn, 1)
        conn.sendall(reply + b"\n")
        recv_lines(conn, 1)

    with fake_server(script) as transport:
        client = RefDeviceClient(transport, bench.refdev.regs.map)
        with pytest.raises(TransportError, match="malformed reply"):
            client.raw("wr 52 1")


def test_a_malformed_reply_fails_only_its_case_and_the_suite_runs_on(bench):
    with served(MalformedWrites(bench.refdev)) as addr:
        runner = SuiteRunner(
            DutClient(bench.dut),
            RefDeviceClient("{}:{}".format(*addr), bench.refdev.regs.map),
            config=RunConfig(seed=7),
        )
        try:
            report = runner.run_suite("i2c")
        finally:
            runner.phil.transport.close()
    run = [case for case in report.cases if case.verdict != SKIP]
    assert run
    assert {(case.verdict, case.reason) for case in run} == {(FAIL, "reference device lost: malformed reply 'not json'")}


# -- a reply byte that is not UTF-8 ----------------------------------------


def forwarding(device, word, reply):
    """A ``fake_server`` script: the first line starting with ``word`` gets the bytes ``reply``,
    every other line ``device``'s answer."""

    def script(conn, _):
        pending = True
        with conn.makefile("rb") as requests:
            for raw in requests:
                line = raw.decode().rstrip("\n")
                if pending and line.split()[0] == word:
                    pending = False
                    conn.sendall(reply + b"\n")
                else:
                    conn.sendall(device.handle_line(line).encode() + b"\n")

    return script


@pytest.mark.parametrize("client", ["dut", "ref"])
def test_a_reply_byte_that_is_not_utf8_is_read_as_u_fffd(bench, client):
    def script(conn, _):
        recv_lines(conn, 1)
        conn.sendall(b'{"result": 0, "version": "1.2.\xff"}\n')
        recv_lines(conn, 1)

    with fake_server(script) as transport:
        if client == "dut":
            reply = DutClient(transport).command("-v")
        else:
            reply = RefDeviceClient(transport, bench.refdev.regs.map).raw("-v")
    assert reply == {"result": 0, "version": "1.2.\ufffd"}


@pytest.mark.parametrize(
    "endpoint,word,reply,reason",
    [
        ("dut", "i2c_init", b'{"cmd": ["i2c_init"], "result": "Succ\xffss"}',
         "i2c_init: expected result 'Success', got 'Succ\ufffdss'"),
        ("ref", "rr", b'{"result": 0, "data": [\xff]}',
         "reference device lost: malformed reply '{\"result\": 0, \"data\": [\ufffd]}'"),
    ],
    ids=["dut", "ref"],
)
def test_a_served_reply_byte_that_is_not_utf8_fails_only_its_case(endpoint, word, reply, reason):
    expected = {c.id: (c.verdict, c.reason) for c in SuiteRunner.local(RunConfig(seed=7)).run_suite("i2c").cases}
    bench = make_bench(seed=7)
    device = bench.dut if endpoint == "dut" else bench.refdev
    with fake_server(forwarding(device, word, reply)) as transport:
        runner = SuiteRunner(
            DutClient(transport if endpoint == "dut" else bench.dut),
            RefDeviceClient(transport if endpoint == "ref" else bench.refdev, bench.refdev.regs.map),
            config=RunConfig(seed=7),
        )
        report = runner.run_suite("i2c")
    got = {c.id: (c.verdict, c.reason) for c in report.cases}
    failed = [case_id for case_id, (verdict, _) in got.items() if verdict != expected[case_id][0]]
    assert len(failed) == 1
    assert got.pop(failed[0]) == (FAIL, reason)
    assert got == {k: v for k, v in expected.items() if k != failed[0]}
