"""Virtual reference device.

A register file with staged writes, per-byte access control, and an
execute/commit step that re-initializes peripheral modules, served over a
line-oriented protocol: ``rr <index> <size>``, ``wr <index> [data]``,
``ex``, ``-v``. Every request yields exactly one JSON response line.
"""

from __future__ import annotations

import json
from typing import Callable

from hilsim.memmap.layout import ACCESS_CODES, LayoutedMap

# Result codes for the register protocol.
RESULT_SUCCESS = 0
RESULT_PARSE_ERROR = 1
RESULT_OUT_OF_RANGE = 2
RESULT_ACCESS_VIOLATION = 3
RESULT_INTERNAL_ERROR = 4

_READ_ONLY = bytes([ACCESS_CODES["read-only"]])


class AccessViolation(ValueError):
    def __init__(self, offset: int):
        super().__init__(f"write touches read-only byte at offset {offset}")
        self.offset = offset


class RangeViolation(ValueError):
    pass


class RegisterFile:
    """Committed byte array plus staged writes and a per-byte access mask."""

    def __init__(self, layout: LayoutedMap):
        self.map = layout
        self.committed = bytearray(layout.default_image)
        self.access_mask = layout.access_mask
        self.staged: list[tuple[int, bytes]] = []

    def reset(self) -> None:
        """Restore the default image in place and drop staged writes."""
        # a full-slice assignment also restores the size of a grown file
        self.committed[:] = self.map.default_image
        self.staged.clear()

    @property
    def total_size(self) -> int:
        return len(self.committed)

    def read(self, offset: int, size: int) -> bytes:
        """Read committed bytes. Staged writes are not visible."""
        if size < 1 or offset < 0 or offset + size > self.total_size:
            raise RangeViolation(f"read of {size} bytes at {offset} out of range")
        return bytes(self.committed[offset : offset + size])

    def stage_write(self, offset: int, data: bytes) -> None:
        """Stage a write; it takes effect only on commit."""
        if len(data) < 1 or offset < 0 or offset + len(data) > self.total_size:
            raise RangeViolation(f"write of {len(data)} bytes at {offset} out of range")
        read_only = self.access_mask.find(_READ_ONLY, offset, offset + len(data))
        if read_only >= 0:
            raise AccessViolation(read_only)
        self.staged.append((offset, bytes(data)))

    def commit(self) -> None:
        """Apply all staged writes atomically, in submission order."""
        for offset, data in self.staged:
            self.committed[offset : offset + len(data)] = data
        self.staged.clear()

    # Internal accessors for peripheral models; bypass access control and
    # staging so models can publish telemetry between commands.

    def poke(self, offset: int, data: bytes) -> None:
        self.committed[offset : offset + len(data)] = data

    def read_param(self, name: str, index: int = 0, count: int | None = None) -> int | list[int]:
        entry = self.map.lookup(name)
        count = 1 if count is None else count
        values = entry.unpack(self.read(entry.element_offset(index, count), count * entry.elem_size))
        return values[0] if count == 1 else values

    def poke_param(self, name: str, value: int | list[int], index: int = 0) -> None:
        """Poke one value, or a list of consecutive elements from ``index``, inside the entry."""
        entry = self.map.lookup(name)
        count = len(value) if isinstance(value, (list, tuple)) else 1
        self.poke(entry.element_offset(index, count), entry.pack(value))


def format_response(fields: dict) -> str:
    """Serialize a response dictionary to its single-line wire form."""
    return json.dumps(fields)


class ReferenceDevice:
    """Protocol front-end over a register file and its peripheral models."""

    def __init__(self, layout: LayoutedMap):
        self.regs = RegisterFile(layout)
        self.version = layout.version
        # module name -> re-init callback, invoked on execute when the
        # module's init flag byte transitioned to 1
        self._init_hooks: dict[str, Callable[[], None]] = {}
        self._init_flags: dict[str, int] = {}
        for entry in layout.entries:
            if "init-trigger" in entry.flags:
                module = entry.name.split(".")[0]
                self._init_flags[module] = entry.offset

    def register_init_hook(self, module: str, hook: Callable[[], None]) -> None:
        if module not in self._init_flags:
            raise KeyError(f"module {module!r} has no init-trigger parameter")
        self._init_hooks[module] = hook

    def reset(self) -> None:
        """Restore defaults and re-init all registered peripheral models."""
        self.regs.reset()
        for hook in self._init_hooks.values():
            hook()

    def read_regs(self, offset: int, size: int) -> bytes:
        return self.regs.read(offset, size)

    def write_regs(self, offset: int, data: bytes) -> None:
        self.regs.stage_write(offset, data)

    def execute(self) -> None:
        """Commit staged writes, then re-init flagged modules exactly once."""
        self.regs.commit()
        for module, flag_offset in self._init_flags.items():
            if self.regs.committed[flag_offset] == 1:
                hook = self._init_hooks.get(module)
                if hook is not None:
                    hook()
                self.regs.committed[flag_offset] = 0

    def handle_line(self, line: str) -> str:
        """Dispatch one command line; always returns one JSON line."""
        try:
            return self._dispatch(line.strip())
        except Exception:  # protocol totality: never propagate
            return format_response({"result": RESULT_INTERNAL_ERROR})

    def _dispatch(self, line: str) -> str:
        parts = line.split()
        if not parts:
            return format_response({"result": RESULT_PARSE_ERROR})
        cmd = parts[0]
        if cmd == "rr":
            return self._cmd_read(parts[1:])
        if cmd == "wr":
            return self._cmd_write(parts[1:])
        if cmd == "ex":
            self.execute()
            return format_response({"result": RESULT_SUCCESS})
        if cmd == "-v":
            return format_response({"version": self.version, "result": RESULT_SUCCESS})
        return format_response({"result": RESULT_PARSE_ERROR})

    def _cmd_read(self, args: list[str]) -> str:
        if len(args) != 2:
            return format_response({"result": RESULT_PARSE_ERROR})
        try:
            offset, size = (_parse_int(a) for a in args)
        except ValueError:
            return format_response({"result": RESULT_PARSE_ERROR})
        try:
            data = self.read_regs(offset, size)
        except RangeViolation:
            return format_response({"result": RESULT_OUT_OF_RANGE})
        # bare integer for single-byte reads, list otherwise
        payload = data[0] if size == 1 else list(data)
        return format_response({"data": payload, "result": RESULT_SUCCESS})

    def _cmd_write(self, args: list[str]) -> str:
        if len(args) < 2:
            return format_response({"result": RESULT_PARSE_ERROR})
        try:
            offset = _parse_int(args[0])
            data = _parse_bytes(args[1:])
        except ValueError:
            return format_response({"result": RESULT_PARSE_ERROR})
        try:
            self.write_regs(offset, data)
        except RangeViolation:
            return format_response({"result": RESULT_OUT_OF_RANGE})
        except AccessViolation:
            return format_response({"result": RESULT_ACCESS_VIOLATION})
        return format_response({"result": RESULT_SUCCESS})


def _parse_int(token: str) -> int:
    value = int(token, 16) if token.lower().startswith("0x") else int(token)
    if value < 0:
        raise ValueError(token)
    return value


_DECIMAL_BYTES = {str(i): i for i in range(256)}


def _parse_bytes(tokens: list[str]) -> bytes:
    try:
        # fast path for plain decimal bytes; any other spelling takes the checked path
        return bytes(map(_DECIMAL_BYTES.__getitem__, tokens))
    except KeyError:
        return bytes(_parse_int(t) for t in tokens)  # ValueError above 0xFF
