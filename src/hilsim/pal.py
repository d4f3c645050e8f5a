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
from dataclasses import dataclass, field
from pathlib import Path

from hilsim.memmap.layout import LayoutedMap
from hilsim.serve import LineSocket, LineTooLong

SUCCESS = "Success"
ERROR = "Error"
TIMEOUT = "Timeout"

_SEMVER_SUFFIX = re.compile(r"[-_](\d+\.\d+\.\d+)$")


class TransportError(OSError):
    pass


class InProcessTransport:
    """Directly invokes a device's handle_line; no wire involved."""

    def __init__(self, handler):
        self._handler = handler

    def request(self, line: str) -> str:
        return self._handler(line)

    def close(self) -> None:
        pass


class TcpTransport:
    """Connects lazily so an unreachable endpoint surfaces as a request error.

    Lines are framed by ``LineSocket``, the server's own framing. A failed
    request drops the connection, and the next request opens a new one.
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
        self._lines = LineSocket(sock)
        return self._lines

    def request(self, line: str) -> str:
        lines = self._lines or self._connect()
        try:
            lines.send_line(line)
            reply = lines.recv_line()
        except (OSError, LineTooLong) as exc:
            self.close()
            raise TransportError(str(exc)) from exc
        if reply is None:
            self.close()
            raise TransportError("connection closed")
        return reply.decode()

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
                return sibling.read_text("utf-8").split()[0]
        return None

    def versions(self) -> list[str]:
        return sorted(self._index)

    def get(self, version: str) -> LayoutedMap:
        if version not in self._index:
            raise KeyError(f"no installed map for version {version!r}")
        return LayoutedMap.from_csv(self._index[version].read_text("utf-8"), version)


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


class RefDeviceClient:
    """Name-based access to a reference device."""

    def __init__(self, endpoint, maps):
        self.transport = open_transport(endpoint)
        self.store = maps if isinstance(maps, (MapStore, LayoutedMap)) else MapStore(maps)
        self.map: LayoutedMap | None = self.store if isinstance(self.store, LayoutedMap) else None

    def connect(self) -> PalResult:
        """Read the device version and bind the matching map."""
        try:
            reply = json.loads(self.transport.request("-v"))
        except (TransportError, json.JSONDecodeError):
            return PalResult(cmd=["-v"], result=TIMEOUT, error="endpoint unreachable")
        version = reply.get("version")
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
        return json.loads(self.transport.request(line))

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
        try:
            name_map = self._require_map()
            entries = [name_map.lookup(name) for name in names]
            for before, after in zip(entries, entries[1:]):
                if before.offset + before.size != after.offset:
                    raise ValueError(f"{after.name} does not follow {before.name} in the map")
            offsets = [entry.element_offset(index, count) for entry in entries]
        except (KeyError, ValueError) as exc:
            return PalResult(result=ERROR, error=str(exc))
        start = offsets[0]
        line = f"rr {start} {offsets[-1] + count * entries[-1].elem_size - start}"
        reply = self.raw(line)
        if reply.get("result") != 0:
            return PalResult(cmd=[line], result=ERROR, error=f"device result {reply.get('result')}")
        raw = reply["data"]
        raw = bytes([raw] if isinstance(raw, int) else raw)
        data = [e.unpack(raw[at - start : at - start + count * e.elem_size]) for e, at in zip(entries, offsets)]
        return PalResult(cmd=[line], data=data)

    def write_reg(self, name: str, value, index: int = 0) -> PalResult:
        try:
            entry = self._require_map().lookup(name)
        except KeyError as exc:
            return PalResult(result=ERROR, error=str(exc))
        if entry.access == "read-only":
            return PalResult(result=ERROR, error=f"{name} is read-only")
        try:
            offset = entry.element_offset(index, len(value) if isinstance(value, (list, tuple)) else 1)
            data = entry.pack(value)
        except ValueError as exc:
            return PalResult(result=ERROR, error=str(exc))
        line = "wr {} {}".format(offset, " ".join(map(str, data)))
        reply = self.raw(line)
        if reply.get("result") != 0:
            return PalResult(cmd=[line], result=ERROR, error=f"device result {reply.get('result')}")
        return PalResult(cmd=[line])

    def execute(self) -> PalResult:
        reply = self.raw("ex")
        ok = reply.get("result") == 0
        return PalResult(cmd=["ex"], result=SUCCESS if ok else ERROR)

    def write_and_execute(self, name: str, value, index: int = 0) -> PalResult:
        """Write a parameter, raise its module's init flag if it has one and that was not the write, and execute."""
        # resolved before the first write, so a module with no init flag never leaves a write staged
        init_flag = name.split(".")[0] + ".mode.init"
        raise_flag = name != init_flag and init_flag in self._require_map().by_name
        first = self.write_reg(name, value, index=index)
        if not first.ok:
            return first
        if raise_flag:
            flag = self.write_reg(init_flag, 1)
            flag.cmd = first.cmd + flag.cmd
            if not flag.ok:
                flag.error = f"init flag write failed: {flag.error}"
                return flag
            first = flag
        final = self.execute()
        final.cmd = first.cmd + final.cmd
        if not final.ok:
            final.error = "execute failed"
        return final


class DutClient:
    """Typed wrapper over the DUT shell."""

    def __init__(self, endpoint):
        self.transport = open_transport(endpoint)

    def command(self, line: str) -> dict:
        try:
            return json.loads(self.transport.request(line))
        except (TransportError, json.JSONDecodeError):
            return {"cmd": [line], "result": TIMEOUT}

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
