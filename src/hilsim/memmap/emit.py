"""Artifact emission: C-style struct text, CSV map, docs."""

from __future__ import annotations

import csv
import io

from hilsim.memmap.layout import LayoutedMap
from hilsim.memmap.schema import ParameterSpec

CSV_COLUMNS = ["name", "offset", "size", "type", "access", "default", "flags", "description"]


def _emit_param(param: ParameterSpec, indent: str, lines: list[str]) -> None:
    if param.is_record:
        lines.append(f"{indent}struct {{")
        for member in param.members:
            _emit_param(member, indent + "    ", lines)
        lines.append(f"{indent}}} {param.name};")
        return
    ctype = f"{'u' if param.type.startswith('u') else ''}int{8 * param.scalar_size()}_t"
    suffix = f"[{param.array_len}]" if param.array_len > 1 else ""
    comment = f" /* {param.description} */" if param.description else ""
    lines.append(f"{indent}{ctype} {param.name}{suffix};{comment}")


def emit_struct_decl(layout: LayoutedMap) -> str:
    """Emit a nested packed record declaration mirroring the layout order."""
    spec = layout.spec
    lines = [
        f"/* {spec.name} register map, version {spec.version} */",
        "#pragma pack(1)",
        f"typedef struct {spec.name}_map_t {{",
    ]
    for module in spec.modules:
        lines.append(f"    struct {{ /* {module.description or module.name} */")
        for param in module.parameters:
            _emit_param(param, "        ", lines)
        lines.append(f"    }} {module.name};")
    lines.append(f"}} {spec.name}_map_t; /* total {layout.total_size} bytes */")
    lines.append("#pragma pack()")
    return "\n".join(lines) + "\n"


def emit_csv(layout: LayoutedMap) -> str:
    """One row per leaf entry, ordered by offset, header row first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in layout.entries:
        default = ";".join(str(v) for v in e.default) if isinstance(e.default, list) else e.default
        writer.writerow(
            [e.name, e.offset, e.size, e.type, e.access, default, "|".join(e.flags), e.description]
        )
    return buf.getvalue()


def emit_docs(layout: LayoutedMap) -> str:
    """Human-readable register-map documentation (markdown)."""
    spec = layout.spec
    lines = [
        f"# {spec.name} register map",
        "",
        f"Version: {spec.version}",
        f"Total size: {layout.total_size} bytes",
        "",
    ]
    for module in spec.modules:
        lines.append(f"## {module.name}")
        if module.description:
            lines.append("")
            lines.append(module.description)
        lines.append("")
        for e in layout.module_entries(module.name):
            array = f"[{e.array_len}]" if e.array_len > 1 else ""
            lines.append(
                f"- `{e.name}` ({e.type}{array}, offset {e.offset}, size {e.size}, "
                f"{e.access}, default {e.default}): {e.description}"
            )
        lines.append("")
    return "\n".join(lines)

