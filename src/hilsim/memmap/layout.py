"""Deterministic packed layout of a register-map spec.

Placement rule: declaration order, each scalar advanced to its natural
alignment, records aligned to their largest member, no reordering. A
module introduces no alignment of its own, so appending parameters to the
end of a map never moves existing entries. Total size is padded up to
``padded_total_size`` when the spec requests it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from hilsim.memmap.schema import MemoryMapSpec, ParameterSpec


# per-byte codes of LayoutedMap.access_mask; padding between entries is writable
ACCESS_CODES = {"writable": 0, "privileged": 1, "read-only": 2}

# struct format character of each scalar type; register values are little-endian
STRUCT_CODES = {"u8": "B", "u16": "H", "u32": "I", "u64": "Q", "i8": "b", "i16": "h", "i32": "i", "i64": "q"}
_ELEMENT = {t: struct.Struct("<" + code) for t, code in STRUCT_CODES.items()}  # pack's hot case, one element


class LayoutError(ValueError):
    """Layout constraint violation (e.g. exceeding the padded size)."""


@dataclass(frozen=True)
class LayoutEntry:
    """One leaf entry of the layout: a scalar or array of scalars."""

    name: str
    offset: int
    size: int
    type: str
    array_len: int
    access: str
    default: object
    flags: tuple[str, ...]
    description: str

    @property
    def elem_size(self) -> int:
        return self.size // self.array_len

    def element_offset(self, index: int, count: int = 1) -> int:
        """Byte offset of element ``index``; elements index..index+count must lie in the entry."""
        if index < 0 or index + count > self.array_len:
            raise ValueError(f"{self.name}: index {index}+{count} exceeds array length {self.array_len}")
        return self.offset + index * self.size // self.array_len

    def pack(self, value) -> bytes:
        """Encode one value, or a list of consecutive elements, as register bytes."""
        try:
            if isinstance(value, (list, tuple)):
                return struct.pack(f"<{len(value)}{STRUCT_CODES[self.type]}", *value)
            return _ELEMENT[self.type].pack(value)
        except struct.error:
            raise ValueError(f"{self.name}: value {value!r} out of range for {self.type}") from None

    def unpack(self, raw: bytes) -> list[int]:
        """Decode register bytes into one int per element."""
        return list(struct.unpack(f"<{len(raw) // self.elem_size}{STRUCT_CODES[self.type]}", raw))

    def default_bytes(self) -> bytes:
        """Expand the default value to the entry's committed byte image."""
        values = self.default if isinstance(self.default, list) else [self.default] * self.array_len
        return self.pack(list(values) + [0] * (self.array_len - len(values)))


@dataclass
class LayoutedMap:
    """Computed packed layout: ordered leaf entries plus the source spec."""

    spec: MemoryMapSpec
    entries: tuple[LayoutEntry, ...]
    total_size: int
    by_name: dict[str, LayoutEntry] = field(default_factory=dict)
    # the whole map at its defaults, which every reset restores, and one
    # ACCESS_CODES byte per map byte; set here rather than as cached
    # properties, which would slow every attribute lookup on the map
    default_image: bytes = field(init=False, repr=False, compare=False)
    access_mask: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.by_name:
            self.by_name = {e.name: e for e in self.entries}
        image = bytearray(self.total_size)
        mask = bytearray(self.total_size)
        for e in self.entries:
            image[e.offset : e.offset + e.size] = e.default_bytes()
            mask[e.offset : e.offset + e.size] = bytes([ACCESS_CODES[e.access]]) * e.size
        self.default_image = bytes(image)
        self.access_mask = bytes(mask)

    @property
    def version(self) -> str:
        return self.spec.version

    @property
    def map_hash(self) -> str:
        digest = hashlib.sha256()
        for e in self.entries:
            digest.update(f"{e.name}:{e.offset}:{e.size}:{e.type}\n".encode())
        return digest.hexdigest()[:16]

    def lookup(self, name: str) -> LayoutEntry:
        try:
            return self.by_name[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def module_entries(self, module: str) -> list[LayoutEntry]:
        prefix = module + "."
        return [e for e in self.entries if e.name.startswith(prefix)]


def _alignment(param: ParameterSpec) -> int:
    if param.is_record:
        return max(_alignment(m) for m in param.members)
    return min(param.scalar_size(), 8)


def _align(offset: int, alignment: int) -> int:
    rem = offset % alignment
    return offset if rem == 0 else offset + alignment - rem


def _place(param: ParameterSpec, qualname: str, offset: int, entries: list[LayoutEntry]) -> int:
    offset = _align(offset, _alignment(param))
    if param.is_record:
        for member in param.members:
            offset = _place(member, f"{qualname}.{member.name}", offset, entries)
        return offset
    size = param.scalar_size() * param.array_len
    entries.append(
        LayoutEntry(
            name=qualname,
            offset=offset,
            size=size,
            type=param.type,
            array_len=param.array_len,
            access=param.access,
            default=param.default,
            flags=param.flags,
            description=param.description,
        )
    )
    return offset + size


def compute_layout(spec: MemoryMapSpec) -> LayoutedMap:
    """Place every parameter and return the resulting map."""
    entries: list[LayoutEntry] = []
    offset = 0
    for module in spec.modules:
        for param in module.parameters:
            offset = _place(param, f"{module.name}.{param.name}", offset, entries)

    total = offset
    if spec.padded_total_size is not None:
        if total > spec.padded_total_size:
            raise LayoutError(
                f"layout needs {total} bytes, exceeding padded_total_size {spec.padded_total_size}"
            )
        total = spec.padded_total_size

    return LayoutedMap(spec=spec, entries=tuple(entries), total_size=total)
