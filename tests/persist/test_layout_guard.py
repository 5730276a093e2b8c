"""The persisted dataclasses *are* the on-disk layout: guard it per format.

The codec writes whatever the dataclasses declare, so renaming or
retyping a field silently changes what a snapshot or a store file holds.
``layouts/<kind>-<format>.txt`` records every ``Class.field: annotation``
line a format number stands for; the current classes must still say
exactly that, or the format number has to move.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.persist.snapshot import SNAPSHOT_FORMAT
from repro.persist.sqlite import SQLITE_FORMAT

from persisted_types import ROOTS, layout_lines

LAYOUTS = Path(__file__).parent / "layouts"
FORMATS = {"snapshot": SNAPSHOT_FORMAT, "sqlite": SQLITE_FORMAT}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_layout_is_the_one_recorded_for_its_format_number(kind):
    current = layout_lines(*ROOTS[kind])
    recording = LAYOUTS / f"{kind}-{FORMATS[kind]}.txt"
    recorded = recording.read_text().splitlines() if recording.exists() else []
    moved = [f"  - {line}" for line in recorded if line not in current]
    moved += [f"  + {line}" for line in current if line not in recorded]
    assert digest(current) == digest(recorded), (
        f"the persisted {kind} layout is not what format {FORMATS[kind]} records "
        f"({recording.name}: {digest(recorded)}, now {digest(current)}):\n"
        + "\n".join(moved)
        + f"\nbump {kind.upper()}_FORMAT and record the new layout, or -- for a "
        "new defaulted field only, which older files of this format still "
        f"decode without -- add its line to {recording}"
    )
