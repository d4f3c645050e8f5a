"""Register-map configuration parsing and validation.

The configuration is a JSON document; the machine-readable schema lives in
``hilsim/data/map_config.schema.json``.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass

# the one table of scalar types: each type's struct format code; register values are little-endian
STRUCT_CODES = {"u8": "B", "u16": "H", "u32": "I", "u64": "Q", "i8": "b", "i16": "h", "i32": "i", "i64": "q"}


def _size_and_range(code: str) -> tuple[int, int, int]:
    """A code's standard size (never the native one), and the range of that many bytes: signed for a lower-case code."""
    size = struct.calcsize("<" + code)
    lo = -(1 << 8 * size - 1) if code.islower() else 0
    return size, lo, lo + (1 << 8 * size) - 1


SCALAR_TYPES = {t: _size_and_range(code) for t, code in STRUCT_CODES.items()}

# map_config.schema.json's patterns: a name is ASCII letters, digits and underscores, a version
# three runs of ASCII digits; str.isidentifier and str.isdigit would let other scripts through
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VERSION = re.compile(r"[0-9]+\.[0-9]+\.[0-9]+")

ACCESS_LEVELS = ("read-only", "writable", "privileged")
KNOWN_FLAGS = ("init-trigger", "volatile", "user-shared")

# the keys the schema allows on the document, a module, a record and a scalar parameter
DOCUMENT_KEYS = frozenset({"name", "version", "padded_total_size", "modules"})
MODULE_KEYS = frozenset({"name", "description", "parameters"})
RECORD_KEYS = frozenset({"name", "type", "description", "members"})
SCALAR_KEYS = frozenset({"name", "type", "description", "array_len", "default", "access", "flags"})


class ConfigError(ValueError):
    """Schema violation in a register-map configuration."""


class ConfigSyntaxError(ConfigError):
    """Malformed configuration document (reports line and column)."""


@dataclass
class ParameterSpec:
    """One named parameter: a scalar, an array of scalars, or a record."""

    name: str
    type: str
    array_len: int = 1
    default: object = 0
    access: str = "writable"
    flags: tuple[str, ...] = ()
    description: str = ""
    members: tuple["ParameterSpec", ...] = ()

    @property
    def is_record(self) -> bool:
        return self.type == "record"

    def scalar_size(self) -> int:
        return SCALAR_TYPES[self.type][0]


@dataclass
class ModuleSpec:
    name: str
    description: str = ""
    parameters: tuple[ParameterSpec, ...] = ()


@dataclass
class MemoryMapSpec:
    name: str
    version: str
    modules: tuple[ModuleSpec, ...] = ()
    padded_total_size: int | None = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _require_keys(obj: dict, allowed: frozenset, where: str) -> None:
    if not allowed.issuperset(obj):
        raise ConfigError(f"{where} takes no key {min(obj.keys() - allowed)!r}")


def _is_int(value) -> bool:
    """An integer as the schema means it: JSON true and false are not integers."""
    return type(value) is int


def _check_default(param: ParameterSpec, qualname: str) -> None:
    lo, hi = SCALAR_TYPES[param.type][1:]
    values = param.default if isinstance(param.default, list) else [param.default]
    _require(len(values) <= param.array_len, f"{qualname}: default list longer than array_len")
    for v in values:
        _require(_is_int(v), f"{qualname}: default must be an integer")
        _require(lo <= v <= hi, f"{qualname}: default {v} out of range for {param.type}")


def _parse_parameter(obj: dict, qualname: str) -> ParameterSpec:
    _require(isinstance(obj, dict), f"{qualname}: parameter must be an object")
    name = obj.get("name")
    _require(isinstance(name, str) and _IDENTIFIER.fullmatch(name), f"{qualname}: bad parameter name {name!r}")
    ptype = obj.get("type", "u8")
    record = ptype == "record"
    _require_keys(obj, RECORD_KEYS if record else SCALAR_KEYS, f"{qualname}: a {'record' if record else 'scalar'}")
    description = obj.get("description", "")
    _require(
        isinstance(description, str) and description.strip() != "",
        f"{qualname}: description must be non-empty",
    )

    if record:
        raw_members = obj.get("members", [])
        _require(len(raw_members) >= 1, f"{qualname}: record needs at least one member")
        members = []
        seen = set()
        for m in raw_members:
            sub = _parse_parameter(m, f"{qualname}.{m.get('name', '?')}")
            _require(sub.name not in seen, f"{qualname}.{sub.name}: duplicate member name")
            seen.add(sub.name)
            members.append(sub)
        return ParameterSpec(name=name, type="record", description=description, members=tuple(members))

    access = obj.get("access", "writable")
    _require(access in ACCESS_LEVELS, f"{qualname}: unknown access level {access!r}")
    flags = obj.get("flags", [])
    _require(
        isinstance(flags, list) and all(isinstance(f, str) for f in flags) and len(set(flags)) == len(flags),
        f"{qualname}: flags must be a list of unique strings",
    )
    for f in flags:
        _require(f in KNOWN_FLAGS, f"{qualname}: unknown flag {f!r}")
    _require(ptype in SCALAR_TYPES, f"{qualname}: unknown type {ptype!r}")
    array_len = obj.get("array_len", 1)
    _require(_is_int(array_len) and array_len >= 1, f"{qualname}: array_len must be >= 1")
    param = ParameterSpec(
        name=name,
        type=ptype,
        array_len=array_len,
        default=obj.get("default", 0),
        access=access,
        flags=tuple(flags),
        description=description,
    )
    _check_default(param, qualname)
    return param


def _init_triggers(params, prefix: str):
    """The qualified names of the ``init-trigger`` scalars among ``params`` and their record members."""
    for param in params:
        qualname = f"{prefix}.{param.name}"
        if param.is_record:
            yield from _init_triggers(param.members, qualname)
        elif "init-trigger" in param.flags:
            yield qualname


def parse_config(text: str) -> MemoryMapSpec:
    """Parse and validate a register-map configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(
            f"configuration syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    _require(isinstance(doc, dict), "top-level document must be an object")
    _require_keys(doc, DOCUMENT_KEYS, "the map document")
    name = doc.get("name")
    _require(isinstance(name, str) and _IDENTIFIER.fullmatch(name), f"bad map name {name!r}")
    version = doc.get("version")
    _require(isinstance(version, str), "version must be a string")
    _require(_VERSION.fullmatch(version), f"version {version!r} is not major.minor.patch")
    padded = doc.get("padded_total_size")
    if padded is not None:
        _require(_is_int(padded) and padded >= 1, "padded_total_size must be a positive integer")

    modules = []
    qualnames: set[str] = set()
    module_names: set[str] = set()
    for mod in doc.get("modules", []):
        _require(isinstance(mod, dict), "module must be an object")
        mod_name = mod.get("name")
        _require(isinstance(mod_name, str) and _IDENTIFIER.fullmatch(mod_name), f"bad module name {mod_name!r}")
        _require(mod_name not in module_names, f"duplicate module name {mod_name!r}")
        _require_keys(mod, MODULE_KEYS, f"module {mod_name!r}")
        description = mod.get("description", "")
        _require(isinstance(description, str), f"module {mod_name!r}: description must be a string")
        module_names.add(mod_name)
        params = []
        for p in mod.get("parameters", []):
            qual = f"{mod_name}.{p.get('name', '?')}"
            param = _parse_parameter(p, qual)
            _require(qual not in qualnames, f"duplicate parameter name {qual}")
            qualnames.add(qual)
            params.append(param)
        # a module re-inits on one flag; a second one would be a flag that does nothing
        triggers = list(_init_triggers(params, mod_name))
        if len(triggers) > 1:
            raise ConfigError(
                f"module {mod_name!r} has more than one init-trigger parameter: {triggers[0]} and {triggers[1]}"
            )
        modules.append(
            ModuleSpec(name=mod_name, description=description, parameters=tuple(params))
        )

    return MemoryMapSpec(
        name=name,
        version=version,
        modules=tuple(modules),
        padded_total_size=padded,
    )


def parse_config_file(path) -> MemoryMapSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
