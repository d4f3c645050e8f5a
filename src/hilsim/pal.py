"""Protocol abstraction layers for both endpoints.

``RefDeviceClient`` turns named parameter access into raw register commands
using a CSV map selected by the device-reported version. ``DutClient`` wraps
the DUT shell. Both speak newline-delimited requests with one-line JSON
responses, over an in-process handler or a TCP socket.
"""

from __future__ import annotations

import csv
import io
import json
import re
import socket
from dataclasses import dataclass, field
from pathlib import Path

from hilsim.memmap.layout import LayoutEntry
from hilsim.memmap.schema import SCALAR_TYPES

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
    """Connects lazily so an unreachable endpoint surfaces as a request error."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._addr = (host, port)
        self._timeout = timeout
        self._sock = None
        self._fh = None

    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        try:
            self._sock = socket.create_connection(self._addr, timeout=self._timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {self._addr[0]}:{self._addr[1]}: {exc}") from exc
        self._fh = self._sock.makefile("rw", encoding="ascii", newline="\n")

    def request(self, line: str) -> str:
        self._ensure_connected()
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
            reply = self._fh.readline()
        except OSError as exc:
            raise TransportError(str(exc)) from exc
        if not reply:
            raise TransportError("connection closed")
        return reply.rstrip("\n")

    def close(self) -> None:
        if self._sock is not None:
            self._fh.close()
            self._sock.close()
            self._sock = None


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


class NameMap:
    """Qualified name -> layout entry lookup loaded from a CSV map."""

    def __init__(self, entries: dict[str, LayoutEntry], version: str = ""):
        self.entries = entries
        self.version = version

    @classmethod
    def from_csv(cls, text: str, version: str = "") -> "NameMap":
        """Parse ``emit_csv`` rows back into layout entries (a one-element list default becomes a scalar)."""
        entries = {}
        for row in csv.DictReader(io.StringIO(text)):
            size = int(row["size"])
            default = row.get("default") or "0"
            flags = row.get("flags") or ""
            entry = LayoutEntry(
                name=row["name"],
                offset=int(row["offset"]),
                size=size,
                type=row["type"],
                array_len=size // SCALAR_TYPES[row["type"]][0],
                access=row["access"],
                default=[int(v) for v in default.split(";")] if ";" in default else int(default),
                flags=tuple(flags.split("|")) if flags else (),
                description=row["description"],
            )
            entries[entry.name] = entry
        return cls(entries, version=version)

    def lookup(self, name: str) -> LayoutEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self.entries)


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

    def get(self, version: str) -> NameMap:
        if version not in self._index:
            raise KeyError(f"no installed map for version {version!r}")
        return NameMap.from_csv(self._index[version].read_text("utf-8"), version=version)


@dataclass
class PalResult:
    """Structured result mirroring the DUT response schema."""

    cmd: list[str] = field(default_factory=list)
    data: object = None
    result: str = SUCCESS
    error: str | None = None

    def __getitem__(self, key):
        return getattr(self, key)

    @property
    def ok(self) -> bool:
        return self.result == SUCCESS


class RefDeviceClient:
    """Name-based access to a reference device."""

    def __init__(self, endpoint, maps):
        self.transport = open_transport(endpoint)
        self.store = maps if isinstance(maps, (MapStore, NameMap)) else MapStore(maps)
        self.map: NameMap | None = self.store if isinstance(self.store, NameMap) else None

    def connect(self) -> PalResult:
        """Read the device version and bind the matching map."""
        try:
            reply = json.loads(self.transport.request("-v"))
        except (TransportError, json.JSONDecodeError):
            return PalResult(cmd=["-v"], result=TIMEOUT, error="endpoint unreachable")
        version = reply.get("version")
        if self.map is not None and self.map.version in ("", version):
            return PalResult(cmd=["-v"], data=version)
        try:
            self.map = self.store.get(version)
        except KeyError:
            return PalResult(cmd=["-v"], result=ERROR, error=f"no map for reported version {version!r}")
        return PalResult(cmd=["-v"], data=version)

    def _require_map(self) -> NameMap:
        if self.map is None:
            raise RuntimeError("client is not connected; call connect() first")
        return self.map

    def _issue(self, line: str) -> dict:
        return json.loads(self.transport.request(line))

    def raw(self, line: str) -> dict:
        return self._issue(line)

    def read_reg(self, name: str, index: int = 0, count: int | None = None) -> PalResult:
        count = 1 if count is None else count
        try:
            entry = self._require_map().lookup(name)
            offset = entry.element_offset(index, count)
        except (KeyError, ValueError) as exc:
            return PalResult(result=ERROR, error=str(exc))
        line = f"rr {offset} {count * entry.elem_size}"
        reply = self._issue(line)
        if reply.get("result") != 0:
            return PalResult(cmd=[line], result=ERROR, error=f"device result {reply.get('result')}")
        raw = reply["data"]
        return PalResult(cmd=[line], data=entry.unpack(bytes([raw] if isinstance(raw, int) else raw)))

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
        reply = self._issue(line)
        if reply.get("result") != 0:
            return PalResult(cmd=[line], result=ERROR, error=f"device result {reply.get('result')}")
        return PalResult(cmd=[line])

    def execute(self) -> PalResult:
        reply = self._issue("ex")
        ok = reply.get("result") == 0
        return PalResult(cmd=["ex"], result=SUCCESS if ok else ERROR)

    def write_and_execute(self, name: str, value, index: int = 0) -> PalResult:
        """Write a parameter, raise its module's init flag, and execute."""
        first = self.write_reg(name, value, index=index)
        if not first.ok:
            return first
        module = name.split(".")[0]
        flag = self.write_reg(f"{module}.mode.init", 1)
        if not flag.ok:
            flag.cmd = first.cmd + flag.cmd
            flag.error = f"init flag write failed: {flag.error}"
            return flag
        final = self.execute()
        final.cmd = first.cmd + flag.cmd + final.cmd
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

    def i2c_init(self, bitrate: int | None = None) -> dict:
        return self.command("i2c_init" + (f" {bitrate}" if bitrate else ""))

    def i2c_read_reg(self, addr: int, reg: int, length: int = 1) -> dict:
        return self.command(f"i2c_read_reg {addr} {reg} {length}")

    def i2c_write_reg(self, addr: int, reg: int, data) -> dict:
        payload = " ".join(str(b) for b in data)
        return self.command(f"i2c_write_reg {addr} {reg} {payload}")

    def i2c_read_bytes(self, addr: int, length: int) -> dict:
        return self.command(f"i2c_read_bytes {addr} {length}")

    def i2c_write_bytes(self, addr: int, data) -> dict:
        payload = " ".join(str(b) for b in data)
        return self.command(f"i2c_write_bytes {addr} {payload}")

    def spi_init(self, mode: int = 0, bitrate: int | None = None) -> dict:
        suffix = f" {bitrate}" if bitrate else ""
        return self.command(f"spi_init {mode}{suffix}")

    def spi_transfer(self, data) -> dict:
        return self.command("spi_transfer " + " ".join(str(b) for b in data))

    def uart_init(self, baud: int | None = None) -> dict:
        return self.command("uart_init" + (f" {baud}" if baud else ""))

    def uart_write(self, data) -> dict:
        return self.command("uart_write " + " ".join(str(b) for b in data))

    def gpio_set(self, pin: int, level: int) -> dict:
        return self.command(f"gpio_set {pin} {level}")

    def gpio_toggle(self, pin: int) -> dict:
        return self.command(f"gpio_toggle {pin}")

    def timer_bench(self, n_timers: int, period_ns: int, pin: int) -> dict:
        return self.command(f"timer_bench {n_timers} {period_ns} {pin}")

    def timer_trace(self, n_edges: int, period_ns: int, pin: int) -> dict:
        return self.command(f"timer_trace {n_edges} {period_ns} {pin}")
