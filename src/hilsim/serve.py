"""Line servers exposing a device's handle_line over stdio or TCP.

One request line in, one JSON response line out. The TCP server accepts
multiple sequential clients; each connection gets its own read loop but
all of them talk to the same device instance.
"""

from __future__ import annotations

import socketserver
import sys
import threading


def serve_stdio(device, infile=None, outfile=None) -> None:
    """Serve line requests on stdin/stdout until EOF."""
    infile = infile if infile is not None else sys.stdin
    outfile = outfile if outfile is not None else sys.stdout
    for line in infile:
        if not line.strip():
            continue
        outfile.write(device.handle_line(line) + "\n")
        outfile.flush()


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            with self.server.lock:
                reply = self.server.device.handle_line(line)
            self.wfile.write(reply.encode("utf-8") + b"\n")


class LineServer(socketserver.ThreadingTCPServer):
    """TCP server answering one JSON line per request line."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, device, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _LineHandler)
        self.device = device
        self.lock = threading.Lock()

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
