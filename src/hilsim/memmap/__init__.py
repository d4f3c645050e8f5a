"""Register-map code generator.

Parses a JSON register-map configuration, computes a deterministic packed
layout, and emits struct declaration text, a CSV map, docs, and a version
identifier.
"""

from hilsim.memmap.schema import (
    ACCESS_LEVELS,
    KNOWN_FLAGS,
    SCALAR_TYPES,
    ConfigError,
    ConfigSyntaxError,
    MemoryMapSpec,
    ModuleSpec,
    ParameterSpec,
    parse_config,
    parse_config_file,
)
from hilsim.memmap.layout import LayoutedMap, LayoutEntry, LayoutError, compute_layout
from hilsim.memmap.emit import emit_csv, emit_docs, emit_struct_decl

__all__ = [
    "ACCESS_LEVELS",
    "KNOWN_FLAGS",
    "SCALAR_TYPES",
    "ConfigError",
    "ConfigSyntaxError",
    "MemoryMapSpec",
    "ModuleSpec",
    "ParameterSpec",
    "parse_config",
    "parse_config_file",
    "LayoutedMap",
    "LayoutEntry",
    "LayoutError",
    "compute_layout",
    "emit_csv",
    "emit_docs",
    "emit_struct_decl",
]
