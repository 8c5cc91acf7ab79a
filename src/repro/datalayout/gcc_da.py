"""GCC-DA: the update-oblivious data-layout baseline.

Paper §5.7 observed that *"the data allocation scheme in gcc hashes the
variable into the symbol table using their names"* — so the layout is a
function of the variable *names*, not of the declaration order:
shuffling declarations changes nothing, but renaming a variable (or
adding one) perturbs the hash order and cascades offset changes through
the segment.

We reproduce that with a deterministic name hash (CRC-32 of the uid):
objects are laid out in ascending hash order.  Insertions land at their
hash position and shift everything after them; renames move the object
and shift others; pure shuffles of the source are invisible.
"""

from __future__ import annotations

import zlib

from .layout import DataLayout, LayoutObject


def name_hash(uid: str) -> int:
    """Deterministic stand-in for gcc's symbol-table hash."""
    return zlib.crc32(uid.encode("utf-8"))


def allocate_gcc_da(objects: list[LayoutObject]) -> DataLayout:
    """Lay out ``objects`` in name-hash order, densely packed."""
    layout = DataLayout(algorithm="gcc-da")
    address = layout.segment_base
    for obj in sorted(objects, key=lambda o: (name_hash(o.uid), o.uid)):
        layout.objects[obj.uid] = obj
        layout.addresses[obj.uid] = address
        address += obj.size
    layout.segment_end = address
    layout.check()
    return layout
