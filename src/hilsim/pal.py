"""Protocol abstraction layers for both endpoints.

``RefDeviceClient`` turns named parameter access into raw register commands
using a CSV map selected by the device-reported version. ``DutClient`` wraps
the DUT shell. Both speak newline-delimited requests with one-line JSON
responses, over an in-process handler or a TCP socket.
"""

from __future__ import annotations

import json
import re
import socket
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from hilsim.memmap.layout import ACCESS_CODES, LayoutedMap
from hilsim.memmap.schema import STRUCT_CODES
from hilsim.wire import ERROR, REF_SUCCESS_REPLY, SUCCESS, TIMEOUT, LineSocket, LineTooLong
from hilsim.wire import dut_success_text, json_object

_SEMVER_SUFFIX = re.compile(r"[-_](\d+\.\d+\.\d+)$")
# a run of map bytes a client may write: any access code but read-only
_WRITABLE_RUN = re.compile(b"[^%c]+" % ACCESS_CODES["read-only"])


def _device_error(reply: dict) -> str | None:
    """The error of a failed reference reply; None for success, which is a ``result`` of the JSON integer 0 only."""
    result = reply.get("result")
    return None if type(result) is int and result == 0 else f"device result {result!r}"


class TransportError(OSError):
    pass


class InProcessTransport:
    """Directly invokes a device's handle_line; no wire involved."""

    def __init__(self, handler):
        self._handler = handler

    def request(self, line: str) -> str:
        """The handler's reply; an exception it raises fails the request, as a served one drops its connection."""
        try:
            return self._handler(line)
        except Exception as exc:
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc

    def close(self) -> None:
        pass


class TcpTransport:
    """Connects lazily so an unreachable endpoint surfaces as a request error.

    Lines are framed by ``LineSocket``, as the server frames them. A failed
    request drops the connection, and the next request opens a new one.
    Once connected, the socket blocks and the kernel holds ``timeout`` as its
    send and receive limit, so a request is one ``send`` and one ``recv``
    with no ``poll`` before each.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._addr = (host, port)
        self._timeout = timeout
        self._lines: LineSocket | None = None

    def _connect(self) -> LineSocket:
        try:
            sock = socket.create_connection(self._addr, timeout=self._timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {self._addr[0]}:{self._addr[1]}: {exc}") from exc
        # the same limit as a POSIX timeval, held by the kernel; a zero one would mean no limit
        limit = struct.pack("ll", *divmod(max(1, round(self._timeout * 1e6)), 1_000_000))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, limit)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, limit)
        sock.setblocking(True)
        self._lines = LineSocket(sock)
        return self._lines

    def request(self, line: str) -> str:
        lines = self._lines or self._connect()
        try:
            lines.send_line(line)
            reply = lines.recv_line()
        except BlockingIOError as exc:  # the kernel's send or receive limit ran out
            self.close()
            raise TransportError("timed out") from exc
        except (OSError, LineTooLong) as exc:
            self.close()
            raise TransportError(str(exc)) from exc
        if reply is None:
            self.close()
            raise TransportError("connection closed")
        return reply

    def close(self) -> None:
        if self._lines is not None:
            self._lines.sock.close()
            self._lines = None


def open_transport(endpoint):
    """Accept a device object, an existing transport, or a host:port string."""
    if hasattr(endpoint, "request"):
        return endpoint
    if hasattr(endpoint, "handle_line"):
        return InProcessTransport(endpoint.handle_line)
    if isinstance(endpoint, str):
        spec = endpoint.removeprefix("tcp://")
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad endpoint {endpoint!r}, expected host:port")
        return TcpTransport(host, int(port))
    raise TypeError(f"cannot interpret endpoint {endpoint!r}")


NameMap = LayoutedMap  # perfbench/tracer.py imports the map type by this name and patches its from_csv


class MapStore:
    """Installed CSV maps in a directory, indexed by version string.

    A map's version comes from its filename (``*_1.2.3.csv``) or, for the
    ``<name>_map.csv`` files the generator writes, from the sibling
    ``<name>_version.txt``.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._index: dict[str, Path] = {}
        for path in sorted(self.directory.glob("**/*.csv")):
            version = self._version_of(path)
            if version is not None:
                self._index[version] = path

    @staticmethod
    def _version_of(path: Path) -> str | None:
        match = _SEMVER_SUFFIX.search(path.stem)
        if match:
            return match.group(1)
        if path.stem.endswith("_map"):
            sibling = path.with_name(path.stem[: -len("_map")] + "_version.txt")
            if sibling.exists():
                words = sibling.read_text("utf-8").split()
                if not words:
                    raise ValueError(f"{sibling}: no version")
                return words[0]
        return None

    def versions(self) -> list[str]:
        return sorted(self._index)

    def get(self, version: str) -> LayoutedMap:
        if version not in self._index:
            raise KeyError(f"no installed map for version {version!r}")
        return LayoutedMap.from_csv(self._index[version].read_text("utf-8"), version, str(self._index[version]))


@dataclass
class PalResult:
    """Structured result mirroring the DUT response schema."""

    cmd: list[str] = field(default_factory=list)
    data: object = None
    result: str = SUCCESS
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result == SUCCESS


@lru_cache(maxsize=8)
def _reset_writes(name_map: LayoutedMap) -> tuple[str, ...]:
    """One ``wr`` of the default image per contiguous non-read-only span, init flags set to 1.

    Followed by ``ex``, these restore what a local reset restores in every
    byte a client may write.
    """
    image = bytearray(name_map.default_image)
    for entry in name_map.init_flags.values():
        image[entry.offset : entry.offset + entry.elem_size] = entry.pack(1)
    return tuple(
        f"wr {run.start()} {' '.join(map(str, image[run.start() : run.end()]))}"
        for run in _WRITABLE_RUN.finditer(name_map.access_mask)
    )


class RefDeviceClient:
    """Name-based access to a reference device."""

    def __init__(self, endpoint, maps):
        self.transport = open_transport(endpoint)
        self.store = maps if isinstance(maps, (MapStore, LayoutedMap)) else MapStore(maps)
        self.map: LayoutedMap | None = self.store if isinstance(self.store, LayoutedMap) else None

    def connect(self) -> PalResult:
        """Read the device version and bind the matching map; only a failed transport is a ``Timeout``."""
        try:
            text = self.transport.request("-v")
        except TransportError:
            return PalResult(cmd=["-v"], result=TIMEOUT, error="endpoint unreachable")
        reply = json_object(text) or {}
        version = reply.get("version")
        if _device_error(reply) or type(version) is not str:
            return PalResult(cmd=["-v"], result=ERROR, error=f"no version in reply {text[:80]!r}")
        if self.map is not None and self.map.version == version:
            return PalResult(cmd=["-v"], data=version)
        if not isinstance(self.store, MapStore) or version not in self.store.versions():
            return PalResult(cmd=["-v"], result=ERROR, error=f"no map for reported version {version!r}")
        self.map = self.store.get(version)
        return PalResult(cmd=["-v"], data=version)

    def _require_map(self) -> LayoutedMap:
        if self.map is None:
            raise RuntimeError("client is not connected; call connect() first")
        return self.map

    def raw(self, line: str) -> dict:
        """Send one line and decode its reply; a reply that is not a JSON object raises ``TransportError``."""
        return self._decode(self.transport.request(line))

    @staticmethod
    def _decode(reply: str) -> dict:
        """The fields of a device reply; a bare success is matched as text, any other read by ``json_object``."""
        if reply == REF_SUCCESS_REPLY:
            return {"result": 0}
        fields = json_object(reply)
        if fields is None:
            raise TransportError(f"malformed reply {reply[:80]!r}")
        return fields

    def read_reg(self, name: str, index: int = 0, count: int | None = None) -> PalResult:
        result = self.read_regs((name,), 1 if count is None else count, index)
        if result.ok:
            result.data = result.data[0]
        return result

    def read_regs(self, names, count: int, index: int = 0) -> PalResult:
        """Read elements index..index+count-1 of each of ``names`` in one request; the data is one list per name.

        The entries must follow each other in the map, so one read from the first's element index
        through the last's element index+count-1 covers them all, and no other client's write can
        land between two of them.
        """
        # each entry looked up, checked to follow the one before and placed, in one pass
        try:
            lookup = self._require_map().lookup
            placed = []  # (struct format, element offset) per entry
            last = None
            for name in names:
                entry = lookup(name)
                if last is not None and last.offset + last.size != entry.offset:
                    raise ValueError(f"{entry.name} does not follow {last.name} in the map")
                placed.append((f"<{count}{STRUCT_CODES[entry.type]}", entry.element_offset(index, count)))
                last = entry
        except (KeyError, ValueError) as exc:
            return PalResult(result=ERROR, error=str(exc))
        start = placed[0][1]
        size = placed[-1][1] + count * last.elem_size - start
        line = f"rr {start} {size}"
        text = self.transport.request(line)
        reply = self._decode(text)
        error = _device_error(reply)
        if error:
            return PalResult(cmd=[line], result=ERROR, error=error)
        # the bare int of a one-byte read, or a list of exactly ``size`` ints in 0-255
        data = reply.get("data")
        if size == 1 and type(data) is int:
            data = [data]
        try:
            raw = bytes(data) if type(data) is list else b""
        except (TypeError, ValueError):
            raw = b""
        # bytes() takes JSON true and false as 1 and 0; only a reply that spells one out pays the type check
        if ("true" in text or "false" in text) and raw and any(type(b) is bool for b in data):
            raw = b""
        if len(raw) != size:
            return PalResult(cmd=[line], result=ERROR, error=f"malformed reply {json.dumps(reply)[:80]!r}")
        data = [list(struct.unpack_from(fmt, raw, at - start)) for fmt, at in placed]
        return PalResult(cmd=[line], data=data)

    def _wr_line(self, name: str, value, index: int = 0) -> str:
        """The ``wr`` line of a write; raises ``KeyError`` or ``ValueError`` for one the client refuses."""
        entry = self._require_map().lookup(name)
        if entry.access == "read-only":
            raise ValueError(f"{name} is read-only")
        offset = entry.element_offset(index, len(value) if isinstance(value, (list, tuple)) else 1)
        return "wr {} {}".format(offset, " ".join(map(str, entry.pack(value))))

    def write_reg(self, name: str, value, index: int = 0) -> PalResult:
        try:
            line = self._wr_line(name, value, index)
        except (KeyError, ValueError) as exc:
            return PalResult(result=ERROR, error=str(exc))
        return self._send((line,))

    def execute(self) -> PalResult:
        return self._send(("ex",))

    def _send(self, lines) -> PalResult:
        """Send a run of ``wr`` and ``ex`` lines in order; ``cmd`` holds every line sent.

        The first line the device refuses ends the run with an error: the device's own for a
        one-line run, else prefixed with the refused line (``write at 184: …``, ``execute: …``).
        """
        sent = []
        for line in lines:
            sent.append(line)
            error = _device_error(self.raw(line))
            if error:
                if len(lines) > 1:
                    error = f"{'execute' if line == 'ex' else 'write at ' + line.split()[1]}: {error}"
                return PalResult(cmd=sent, result=ERROR, error=error)
        return PalResult(cmd=sent)

    def restore_defaults(self) -> PalResult:
        """Send the ``_reset_writes`` lines, then ``ex``: over the wire, what a local bench reset restores."""
        return self._send((*_reset_writes(self._require_map()), "ex"))

    def write_and_execute(self, name: str, value) -> PalResult:
        """Write a parameter, raise its module's ``init-trigger`` flag if any and not the write, and
        execute. Every line is built before the first is sent, so a run the client refuses sends nothing."""
        init_flag = self._require_map().init_flags.get(name.split(".")[0])
        try:
            lines = [self._wr_line(name, value)]
            if init_flag is not None and init_flag.name != name:
                lines.append(self._wr_line(init_flag.name, 1))
        except (KeyError, ValueError) as exc:
            return PalResult(result=ERROR, error=str(exc))
        return self._send((*lines, "ex"))


class DutClient:
    """Typed wrapper over the DUT shell."""

    def __init__(self, endpoint):
        self.transport = open_transport(endpoint)

    def command(self, line: str) -> dict:
        """Send one shell line; only a failed transport is a ``Timeout``, a reply with no ``json_object`` an ``Error``.

        A plain success reply, ``dut_success_text(line)``, is matched as text and answered with a fresh dict.
        """
        try:
            text = self.transport.request(line)
        except TransportError:
            return {"cmd": [line], "result": TIMEOUT}
        if text == dut_success_text(line):
            return {"cmd": [line], "result": SUCCESS}
        reply = json_object(text)
        if reply is None:
            return {"cmd": [line], "result": ERROR, "error": f"malformed reply {text[:80]!r}"}
        return reply

    def sync(self) -> dict:
        return self.command("sync")

    def get_metadata(self) -> dict:
        return self.command("get_metadata")

    def gpio_toggle(self, pin: int) -> dict:
        return self.command(f"gpio_toggle {pin}")

    def timer_bench(self, n_timers: int, period_ns: int, pin: int) -> dict:
        return self.command(f"timer_bench {n_timers} {period_ns} {pin}")

    def timer_trace(self, n_edges: int, period_ns: int, pin: int) -> dict:
        return self.command(f"timer_trace {n_edges} {period_ns} {pin}")
