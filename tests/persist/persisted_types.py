"""The persisted dataclasses, found by walking the on-disk roots.

A file's ``sites`` rows hold :class:`SiteSurfacingResult`; its ``meta``
rows hold :class:`SurfacingConfig` (bound by the store) or, in a
snapshot, every field of :class:`ServiceSnapshot`.  Everything below a
root is found through
``fields`` + ``get_type_hints``, so a dataclass added under a result
object joins the codec tests and the layout guard on its own.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

from repro.core.surfacer import SiteSurfacingResult
from repro.persist.snapshot import ServiceSnapshot

ROOTS = (ServiceSnapshot, SiteSurfacingResult)


def persisted_dataclasses(*roots: type) -> list[type]:
    """Every dataclass reachable from ``roots``, sorted by name."""
    found: dict[str, type] = {}
    pending = list(roots)
    while pending:
        tp = pending.pop()
        if not is_dataclass(tp):
            pending.extend(get_args(tp))
        elif tp.__name__ not in found:
            found[tp.__name__] = tp
            pending.extend(get_type_hints(tp).values())
    return [found[name] for name in sorted(found)]


def layout_lines(*roots: type) -> list[str]:
    """One ``Class.field: annotation`` line per persisted field, sorted.

    Annotations are the source strings (every persisted module uses
    ``from __future__ import annotations``), so the lines do not depend
    on the interpreter's ``repr`` of a type.
    """
    return sorted(
        f"{tp.__name__}.{spec.name}: {spec.type}"
        for tp in persisted_dataclasses(*roots)
        for spec in fields(tp)
        if spec.init
    )
