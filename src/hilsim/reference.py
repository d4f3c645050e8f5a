"""Access to the bundled reference register-map configuration."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from hilsim.memmap.layout import LayoutedMap, compute_layout
from hilsim.memmap.schema import parse_config


def reference_config_text() -> str:
    return resources.files("hilsim").joinpath("data/reference_map.json").read_text("utf-8")


@lru_cache(maxsize=1)
def reference_layout() -> LayoutedMap:
    """The bundled map's layout; cached, treat as immutable."""
    return compute_layout(parse_config(reference_config_text()))
