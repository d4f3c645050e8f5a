"""Virtual reference device.

A register file with staged writes, per-byte access control, and an
execute/commit step that re-initializes peripheral modules, served over a
line-oriented protocol: ``rr <index> <size>``, ``wr <index> [data]``,
``ex``, ``-v``. Every request yields exactly one JSON response line.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from typing import Callable

from hilsim.memmap.layout import ACCESS_CODES, ELEMENT, LayoutedMap, LayoutEntry
from hilsim.wire import RESULT_ACCESS_VIOLATION, RESULT_INTERNAL_ERROR, RESULT_LINES
from hilsim.wire import RESULT_OUT_OF_RANGE, RESULT_PARSE_ERROR, RESULT_SUCCESS

_READ_ONLY = bytes([ACCESS_CODES["read-only"]])
# how many accepted ``wr`` lines a device keeps: a client's reset sends the same 16 before every case
ACCEPTED_WRITES = 64


class AccessViolation(ValueError):
    def __init__(self, offset: int):
        super().__init__(f"write touches read-only byte at offset {offset}")
        self.offset = offset


class RangeViolation(ValueError):
    pass


class Field:
    """One element of a map entry bound to its offset in a register file, read and written with no name lookup.

    A value out of the entry's range raises the same ``ValueError`` as ``LayoutEntry.pack`` and
    leaves the register as it was. ``wrap`` and ``add`` publish a value wrapped at the register's
    width, as a hardware counter or timestamp wraps.
    """

    __slots__ = ("entry", "offset", "modulus", "_span", "_codec", "_view")

    def __init__(self, view: memoryview, entry: LayoutEntry, index: int = 0):
        self.entry = entry
        self.offset = entry.element_offset(index)
        self.modulus = 1 << 8 * entry.elem_size  # where a counter of this width wraps
        self._span = slice(self.offset, self.offset + entry.elem_size)
        self._codec = ELEMENT[entry.type]
        self._view = view

    def get(self) -> int:
        return self._codec.unpack_from(self._view, self.offset)[0]

    def set(self, value: int) -> None:
        # packed before the view is touched: Struct.pack_into zeroes the element before it raises
        try:
            self._view[self._span] = self._codec.pack(value)
        except struct.error:
            self.entry.pack(value)  # raises the entry's ValueError
            raise

    def wrap(self, value: int) -> None:
        self.set(value % self.modulus)

    def add(self, delta: int) -> None:
        self.set((self.get() + delta) % self.modulus)


class RegisterFile:
    """Committed byte array plus staged writes and a per-byte access mask.

    Models ``bind`` the registers they publish once, when they are built; a binding stays
    valid for the file's life, because ``reset`` restores it in place and its size is fixed.
    A model that defers its writes sets ``pending`` to its publish, which must clear it; the
    file runs it before ``read``, so no reply sees a stale image.
    """

    def __init__(self, layout: LayoutedMap):
        self.map = layout
        self.committed = bytearray(layout.default_image)
        # poke writes through this view: faster than a bytearray slice assignment, and while
        # the view exists the file cannot be resized
        self._view = memoryview(self.committed)
        self.access_mask = layout.access_mask
        self.staged: list[tuple[int, bytes]] = []
        self.pending: Callable[[], None] | None = None

    def reset(self) -> None:
        """Restore the default image in place and drop staged writes."""
        self.committed[:] = self.map.default_image
        self.staged.clear()

    def restore(self, *modules: str) -> None:
        """Return every read-only register of ``modules`` to its default-image bytes."""
        image = self.map.default_image
        for module in modules:
            for span in self.map.read_only_spans[module]:
                self.committed[span] = image[span]

    @property
    def total_size(self) -> int:
        return len(self.committed)

    def read(self, offset: int, size: int) -> bytes:
        """Read committed bytes, once a pending publish has run. Staged writes are not visible."""
        if self.pending is not None:
            self.pending()
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

    # Internal accessors for peripheral models; bypass access control and staging so models
    # can publish telemetry between commands. Hot paths write through bound fields;
    # poke_param and read_param, which look the name up per call, are the cold-path and test API.

    def bind(self, name: str, index: int = 0) -> Field:
        """Resolve element ``index`` of entry ``name`` once, for repeated reads and writes."""
        return Field(self._view, self.map.lookup(name), index)

    def poke(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if offset < 0 or end > len(self._view):
            raise RangeViolation(f"poke of {len(data)} bytes at {offset} out of range")
        self._view[offset:end] = data

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


# each byte's decimal text: an ``rr`` reply is written from these, byte for byte as ``json.dumps`` writes it
_BYTE_TEXT = [str(i) for i in range(256)]


class ReferenceDevice:
    """Protocol front-end over a register file and its peripheral models."""

    def __init__(self, layout: LayoutedMap):
        self.regs = RegisterFile(layout)
        self._version_line = json.dumps({"version": layout.version, "result": RESULT_SUCCESS})
        # accepted ``wr`` line -> the (offset, bytes) it stages, least recently sent first; whether
        # a line is accepted depends only on the line, as the file's size and access mask never change
        self._accepted: OrderedDict[str, tuple[int, bytes]] = OrderedDict()
        # module name -> offset of its init flag byte, and -> the model callback that re-reads
        # the module's configuration; one callback may serve several modules
        self._init_flags = {module: entry.offset for module, entry in layout.init_flags.items()}
        self._init_hooks: dict[str, Callable[[], None]] = {}

    def register_init_hook(self, module: str, hook: Callable[[], None]) -> None:
        """Run ``hook`` on each re-init of ``module``, once the device has restored the read-only registers
        of every module ``hook`` serves. ``hook`` re-reads configuration; the trace unit's also restores gpio0-2."""
        if module not in self._init_flags:
            raise KeyError(f"module {module!r} has no init-trigger parameter")
        self._init_hooks[module] = hook

    def reset(self) -> None:
        """Restore the default image, then run each distinct hook once."""
        self.regs.reset()
        for hook in dict.fromkeys(self._init_hooks.values()):
            hook()

    def execute(self) -> None:
        """Commit staged writes, lower each init flag at 1, restore the read-only registers of its
        module and of every module sharing its hook, then run each distinct hook once."""
        self.regs.commit()
        committed = self.regs.committed
        raised = [module for module, offset in self._init_flags.items() if committed[offset] == 1]
        for module in raised:
            committed[self._init_flags[module]] = 0
        hooks = dict.fromkeys(self._init_hooks[m] for m in raised if m in self._init_hooks)
        self.regs.restore(*(m for m in self._init_flags if m in raised or self._init_hooks.get(m) in hooks))
        for hook in hooks:
            hook()

    def handle_line(self, line: str) -> str:
        """Dispatch one command line; always returns one JSON line.

        A ``wr`` line the device has accepted before stages its bytes again with one lookup.
        """
        try:
            staged = self._accepted.get(line)
            if staged is not None:
                self._accepted.move_to_end(line)
                self.regs.staged.append(staged)
                return RESULT_LINES[RESULT_SUCCESS]
            return self._dispatch(line)
        except Exception:  # protocol totality: never propagate
            return RESULT_LINES[RESULT_INTERNAL_ERROR]

    def _dispatch(self, line: str) -> str:
        # whitespace around and between words splits away; a ``wr`` line splits into command,
        # offset and its data text, which _cmd_write decodes whole
        parts = line.split(None, 2)
        if not parts:
            return RESULT_LINES[RESULT_PARSE_ERROR]
        cmd = parts[0]
        if cmd == "wr":
            return self._cmd_write(line, parts[1:])
        if cmd == "rr":
            return self._cmd_read(line.split()[1:])
        if cmd == "ex":
            self.execute()
            return RESULT_LINES[RESULT_SUCCESS]
        if cmd == "-v":
            return self._version_line
        return RESULT_LINES[RESULT_PARSE_ERROR]

    def _cmd_read(self, args: list[str]) -> str:
        if len(args) != 2:
            return RESULT_LINES[RESULT_PARSE_ERROR]
        try:
            offset, size = (_parse_int(a) for a in args)
        except ValueError:
            return RESULT_LINES[RESULT_PARSE_ERROR]
        try:
            data = self.regs.read(offset, size)
        except RangeViolation:
            return RESULT_LINES[RESULT_OUT_OF_RANGE]
        # bare integer for single-byte reads, list otherwise
        if size == 1:
            return '{"data": ' + _BYTE_TEXT[data[0]] + ', "result": 0}'
        return '{"data": [' + ", ".join(map(_BYTE_TEXT.__getitem__, data)) + '], "result": 0}'

    def _cmd_write(self, line: str, args: list[str]) -> str:
        """Stage ``args``, an offset and the data text after it, and keep ``line`` if it is accepted."""
        if len(args) < 2:
            return RESULT_LINES[RESULT_PARSE_ERROR]
        try:
            offset = _parse_int(args[0])
            data = _parse_data(args[1])
        except ValueError:
            return RESULT_LINES[RESULT_PARSE_ERROR]
        try:
            self.regs.stage_write(offset, data)
        except RangeViolation:
            return RESULT_LINES[RESULT_OUT_OF_RANGE]
        except AccessViolation:
            return RESULT_LINES[RESULT_ACCESS_VIOLATION]
        accepted = self._accepted
        accepted[line] = self.regs.staged[-1]
        if len(accepted) > ACCEPTED_WRITES:
            accepted.popitem(last=False)
        return RESULT_LINES[RESULT_SUCCESS]


def _parse_int(token: str) -> int:
    value = int(token, 16) if token.lower().startswith("0x") else int(token)
    if value < 0:
        raise ValueError(token)
    return value


def _parse_data(text: str) -> bytes:
    """The bytes of a ``wr`` data text; a malformed text, or a byte above 0xFF, raises ``ValueError``."""
    return bytes(_parse_int(t) for t in text.split())
