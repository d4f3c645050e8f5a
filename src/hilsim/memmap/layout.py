"""Deterministic packed layout of a register-map spec.

Placement rule: declaration order, each scalar advanced to its natural
alignment, records aligned to their largest member, no reordering. A
module introduces no alignment of its own, so appending parameters to the
end of a map never moves existing entries. Total size is padded up to
``padded_total_size`` when the spec requests it.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field
from functools import cached_property

from hilsim.memmap.schema import STRUCT_CODES, MemoryMapSpec, ParameterSpec


# per-byte codes of LayoutedMap.access_mask; padding between and after the entries is read-only
ACCESS_CODES = {"writable": 0, "privileged": 1, "read-only": 2}

# one element of each type: pack's hot case, and the codec a bound register field writes through
ELEMENT = {t: struct.Struct("<" + code) for t, code in STRUCT_CODES.items()}


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
            return ELEMENT[self.type].pack(value)
        except struct.error:
            raise ValueError(f"{self.name}: value {value!r} out of range for {self.type}") from None

    def unpack(self, raw: bytes) -> list[int]:
        """Decode register bytes into one int per element."""
        return list(struct.unpack(f"<{len(raw) // self.elem_size}{STRUCT_CODES[self.type]}", raw))

    def default_bytes(self) -> bytes:
        """Expand the default value to the entry's committed byte image."""
        values = self.default if isinstance(self.default, list) else [self.default] * self.array_len
        return self.pack(list(values) + [0] * (self.array_len - len(values)))


@dataclass(eq=False)
class LayoutedMap:
    """Packed layout: ordered leaf entries, the map's version, and the spec it was computed from.

    A map read back from its CSV form has no spec. Maps compare and hash by identity.
    """

    entries: tuple[LayoutEntry, ...]
    total_size: int
    version: str
    spec: MemoryMapSpec | None = None
    by_name: dict[str, LayoutEntry] = field(init=False, repr=False)

    def __post_init__(self):
        self.by_name = {e.name: e for e in self.entries}

    @classmethod
    def from_csv(cls, text: str, version: str, source: str = "CSV map") -> "LayoutedMap":
        """Parse ``emit_csv`` rows into a map ending at its last entry; a one-element list default becomes a
        scalar. A missing column, unknown type or access, bad number, or a row no layout places (a negative
        offset, a size that is no positive multiple of its type's, an offset inside the row before, or a
        repeated name) raises ``ValueError`` naming the row."""
        entries = []
        end = 0  # of the row before, so a negative offset is below it too
        for line, row in enumerate(csv.DictReader(io.StringIO(text)), start=2):
            try:
                if row["type"] not in ELEMENT or row["access"] not in ACCESS_CODES:
                    raise ValueError(f"unknown type {row['type']!r} or access {row['access']!r}")
                offset, size = int(row["offset"]), int(row["size"])
                elem_size = ELEMENT[row["type"]].size
                if offset < end:
                    raise ValueError(f"negative offset {offset}" if offset < 0 else
                                     f"offset {offset} is below {end}, where the row before ends")
                if size <= 0 or size % elem_size:
                    raise ValueError(f"size {size} is no positive multiple of {elem_size}, the size of {row['type']}")
                end = offset + size
                default = row.get("default") or "0"
                flags = row.get("flags") or ""
                entries.append(
                    LayoutEntry(
                        name=row["name"],
                        offset=offset,
                        size=size,
                        type=row["type"],
                        array_len=size // elem_size,
                        access=row["access"],
                        default=[int(v) for v in default.split(";")] if ";" in default else int(default),
                        flags=tuple(flags.split("|")) if flags else (),
                        description=row["description"],
                    )
                )
            except KeyError as exc:  # a column the header lacks
                raise ValueError(f"{source}, row {line}: no {exc} column") from None
            except ValueError as exc:
                raise ValueError(f"{source}, row {line}: {exc}") from None
        parsed = cls(tuple(entries), end, version)
        if len(parsed.by_name) < len(entries):  # a name given twice: find its row, on this error path only
            seen = set()
            for line, entry in enumerate(entries, start=2):
                if entry.name in seen:
                    raise ValueError(f"{source}, row {line}: repeated name {entry.name!r}")
                seen.add(entry.name)
        return parsed

    @cached_property
    def default_image(self) -> bytes:
        """The whole map at its defaults, which every reset restores; padding is zero."""
        image = bytearray(self.total_size)
        for e in self.entries:
            image[e.offset : e.offset + e.size] = e.default_bytes()
        return bytes(image)

    @cached_property
    def access_mask(self) -> bytes:
        """One ACCESS_CODES byte per map byte."""
        mask = bytearray([ACCESS_CODES["read-only"]]) * self.total_size
        for e in self.entries:
            mask[e.offset : e.offset + e.size] = bytes([ACCESS_CODES[e.access]]) * e.size
        return bytes(mask)

    @cached_property
    def read_only_spans(self) -> dict[str, tuple[slice, ...]]:
        """Per module, the merged byte ranges of its read-only entries, which the module's re-init restores."""
        spans: dict[str, list[list[int]]] = {}
        for e in self.entries:
            module_spans = spans.setdefault(e.name.split(".")[0], [])
            if e.access != "read-only":
                continue
            if module_spans and module_spans[-1][1] == e.offset:
                module_spans[-1][1] = e.offset + e.size
            else:
                module_spans.append([e.offset, e.offset + e.size])
        return {m: tuple(slice(*span) for span in s) for m, s in spans.items()}

    @cached_property
    def init_flags(self) -> dict[str, LayoutEntry]:
        """Per module, its ``init-trigger`` entry: the flag a client raises to make the module re-init."""
        return {e.name.split(".")[0]: e for e in self.entries if "init-trigger" in e.flags}

    @property
    def map_hash(self) -> str:
        """Digest of each entry's name, offset, size and type; descriptions and defaults do not affect it."""
        import hashlib  # here, not at the top: it loads OpenSSL, which a served device never uses

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

    return LayoutedMap(entries=tuple(entries), total_size=total, version=spec.version, spec=spec)
