"""Line servers exposing a device's handle_line over stdio or TCP.

One request line in, one JSON response line out. A TCP server answers one
connection at a time, so one client owns its device until it disconnects.
One lock serialises the requests of every server in the process, as its
devices may share a bench (``serve --dut-listen`` serves two from two threads).
"""

import socketserver
import sys
import threading
from functools import partial

from hilsim.wire import LineSocket, LineTooLong, decode_line

_LOCK = threading.Lock()


def _answer(device, lines, send) -> None:
    """``send`` the device's reply to each line of ``lines`` that is not blank, taken under the process lock."""
    for line in lines:
        if line.strip():
            with _LOCK:
                # looked up per line, so a wrapper installed on a live server sees the open connection's requests
                reply = device.handle_line(line)
            send(reply)


def serve_stdio(device, infile=None, outfile=None) -> None:
    """Serve line requests on stdin/stdout until EOF; each line of bytes reads as ``LineSocket`` reads one."""
    infile = infile if infile is not None else sys.stdin.buffer
    outfile = outfile if outfile is not None else sys.stdout
    lines = (decode_line(raw.removesuffix(b"\n")) for raw in infile)
    _answer(device, lines, partial(print, file=outfile, flush=True))


class _LineHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        """Answer each line of the connection as ``LineSocket`` reads it."""
        lines = LineSocket(self.request)
        try:
            _answer(self.server.device, iter(lines.recv_line, None), lines.send_line)
        except LineTooLong:
            return


class LineServer(socketserver.TCPServer):
    """TCP server answering a connection to its end, later ones waiting; ``shutdown()`` waits for it to close."""

    allow_reuse_address = True

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
