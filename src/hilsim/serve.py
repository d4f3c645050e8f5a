"""Line servers exposing a device's handle_line over stdio or TCP.

One request line in, one JSON response line out. The TCP server accepts
multiple sequential clients; each connection gets its own read loop but
all of them talk to the same device instance. One lock serialises the
requests of every server in the process, as its devices may share a bench.
``LineSocket`` is the framing of both ends of the TCP wire.
"""

from __future__ import annotations

import socket
import socketserver
import sys
import threading

# a ``wr`` of the whole map is about 8 KiB; a longer request line closes its connection
MAX_LINE = 64 * 1024
_RECV_BYTES = 8192  # the buffer size of the socket file objects this framing replaced

_LOCK = threading.Lock()


class LineTooLong(ValueError):
    """A line ran past ``MAX_LINE`` bytes before its newline."""


class LineSocket:
    """Newline-framed lines on a connected TCP socket, with Nagle's algorithm off.

    A line ends at its ``\n`` and is at most ``MAX_LINE`` bytes, newline
    included; it counts only once its newline has arrived, and reads as UTF-8
    with U+FFFD for each byte that is not. Bytes received past a newline stay
    buffered for the next line, so lines sent back to back are read in order.
    """

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._buf = b""

    def send_line(self, line: str) -> None:
        self.sock.sendall((line + "\n").encode())

    def recv_line(self) -> str | None:
        """The next line without its newline, or None once the peer has closed; LineTooLong past the cap."""
        end = self._buf.find(b"\n")
        while end < 0:
            if len(self._buf) >= MAX_LINE:
                raise LineTooLong(f"no newline in {len(self._buf)} bytes")
            chunk = self.sock.recv(_RECV_BYTES)
            if not chunk:
                return None
            self._buf += chunk
            end = self._buf.find(b"\n", len(self._buf) - len(chunk))  # only the new bytes can hold it
        if end >= MAX_LINE:
            raise LineTooLong(f"line of {end + 1} bytes")
        line, self._buf = self._buf[:end], self._buf[end + 1 :]
        return line.decode("utf-8", "replace")


def serve_stdio(device, infile=None, outfile=None) -> None:
    """Serve line requests on stdin/stdout until EOF; each line of bytes reads as ``LineSocket`` reads one."""
    infile = infile if infile is not None else sys.stdin.buffer
    outfile = outfile if outfile is not None else sys.stdout
    for raw in infile:
        line = raw.removesuffix(b"\n").decode("utf-8", "replace")
        if not line.strip():
            continue
        with _LOCK:
            reply = device.handle_line(line)
        outfile.write(reply + "\n")
        outfile.flush()


class _LineHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        """Answer each line of the connection as ``LineSocket`` reads it, a blank line skipped."""
        lines = LineSocket(self.request)
        device = self.server.device
        try:
            while (line := lines.recv_line()) is not None:
                if not line.strip():
                    continue
                with _LOCK:
                    # looked up per line, so a wrapper installed on a live server (perfbench's
                    # layer spans) sees every later request of an open connection
                    reply = device.handle_line(line)
                lines.send_line(reply)
        except LineTooLong:
            return


class LineServer(socketserver.ThreadingTCPServer):
    """TCP server answering one JSON line per request line."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, device, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _LineHandler)
        self.device = device

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def serve_background(self) -> threading.Thread:
        # poll for shutdown() every 0.05 s; socketserver's 0.5 s default makes shutdown() wait that long
        thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        return thread


def serve_tcp(device, host: str = "127.0.0.1", port: int = 0) -> LineServer:
    """Bind a TCP line server; call serve_forever() or serve_background()."""
    return LineServer(device, host, port)
