"""The persisted dataclasses *are* the on-disk layout: guard it per format.

The codec writes whatever the dataclasses declare, so renaming or
retyping a field silently changes what a snapshot or a store file holds.
``layouts/sqlite-<format>.txt`` records every ``Class.field: annotation``
line the format number stands for; the current classes must still say
exactly that, or the format number has to move.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.persist.sqlite import SQLITE_FORMAT

from persisted_types import ROOTS, layout_lines

LAYOUTS = Path(__file__).parent / "layouts"


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def test_layout_is_the_one_recorded_for_its_format_number():
    current = layout_lines(*ROOTS)
    recording = LAYOUTS / f"sqlite-{SQLITE_FORMAT}.txt"
    recorded = recording.read_text().splitlines() if recording.exists() else []
    moved = [f"  - {line}" for line in recorded if line not in current]
    moved += [f"  + {line}" for line in current if line not in recorded]
    assert digest(current) == digest(recorded), (
        f"the persisted layout is not what format {SQLITE_FORMAT} records "
        f"({recording.name}: {digest(recorded)}, now {digest(current)}):\n"
        + "\n".join(moved)
        + "\nbump SQLITE_FORMAT and record the new layout, or -- for a new "
        "defaulted field only, which older files of this format still "
        f"decode without -- add its line to {recording}"
    )
