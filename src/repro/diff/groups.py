"""Out-of-order script groups (paper §2.2).

*"The packets may also be grouped so that when remote sensors receive
groups out of order, they are still able to perform updates independent
of the receiving order."*

A plain edit script is a sequential program over the old image — it can
only be interpreted front to back.  A :class:`ScriptGroup` makes a
slice of the script *self-contained* by recording the absolute
old-image cursor (in instructions) and the absolute new-image position
(also in instructions) at which its primitives apply.  A sensor that
receives groups in any order can apply each into the right window of
the image under construction, completing the update when all groups
have arrived.

Each group costs a 6-byte header (old cursor, new cursor, primitive
count — two bytes each) on top of its primitives, so grouping trades
out-of-order tolerance for a little payload; :func:`group_script`
exposes the granularity knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.assembler import BinaryImage
from .edit_script import EditScript, PrimOp, Primitive
from .patcher import PatchError

GROUP_HEADER_BYTES = 6


@dataclass
class ScriptGroup:
    """A self-contained slice of an edit script."""

    old_cursor: int  # old-image instruction index where the slice starts
    new_cursor: int  # new-image instruction index where its output lands
    primitives: list[Primitive] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return GROUP_HEADER_BYTES + sum(p.size_bytes for p in self.primitives)

    @property
    def new_instructions(self) -> int:
        """Instructions this group contributes to the new image."""
        total = 0
        for prim in self.primitives:
            if prim.op in (PrimOp.COPY, PrimOp.INSERT, PrimOp.REPLACE):
                total += prim.count
        return total


def group_script(script: EditScript, max_group_bytes: int = 64) -> list[ScriptGroup]:
    """Split ``script`` into self-contained groups of roughly
    ``max_group_bytes`` payload each."""
    groups: list[ScriptGroup] = []
    current = ScriptGroup(old_cursor=0, new_cursor=0)
    old_cursor = 0
    new_cursor = 0
    for prim in script.primitives:
        if (
            current.primitives
            and current.size_bytes + prim.size_bytes > max_group_bytes
        ):
            groups.append(current)
            current = ScriptGroup(old_cursor=old_cursor, new_cursor=new_cursor)
        current.primitives.append(prim)
        if prim.op in (PrimOp.COPY, PrimOp.REMOVE, PrimOp.REPLACE):
            old_cursor += prim.count
        if prim.op in (PrimOp.COPY, PrimOp.INSERT, PrimOp.REPLACE):
            new_cursor += prim.count
    if current.primitives:
        groups.append(current)
    return groups


def apply_groups(
    old: BinaryImage, groups: list[ScriptGroup], total_new_instructions: int
) -> list[tuple[int, ...]]:
    """Apply groups *in any order*; returns the new instruction units.

    Raises :class:`PatchError` if the groups do not tile the new image
    exactly (missing or overlapping groups).
    """
    old_units = [tuple(enc.words) for enc in old.code]
    out: list[tuple[int, ...] | None] = [None] * total_new_instructions

    for group in groups:
        old_pos = group.old_cursor
        new_pos = group.new_cursor
        for prim in group.primitives:
            if prim.op is PrimOp.COPY:
                for offset in range(prim.count):
                    _place(out, new_pos + offset, old_units[old_pos + offset])
                old_pos += prim.count
                new_pos += prim.count
            elif prim.op is PrimOp.REMOVE:
                old_pos += prim.count
            else:  # INSERT / REPLACE
                for offset, unit in enumerate(prim.words):
                    _place(out, new_pos + offset, unit)
                new_pos += prim.count
                if prim.op is PrimOp.REPLACE:
                    old_pos += prim.count

    missing = [index for index, unit in enumerate(out) if unit is None]
    if missing:
        raise PatchError(
            f"groups leave {len(missing)} new instructions unfilled "
            f"(first at {missing[0]})"
        )
    return out  # type: ignore[return-value]


def _place(out: list, index: int, unit: tuple[int, ...]) -> None:
    if index >= len(out):
        raise PatchError(f"group writes past the new image at {index}")
    if out[index] is not None and out[index] != unit:
        raise PatchError(f"conflicting groups at new instruction {index}")
    out[index] = unit


def grouped_words(
    old: BinaryImage, groups: list[ScriptGroup], total_new_instructions: int
) -> list[int]:
    """Flat word stream after applying the groups."""
    flat: list[int] = []
    for unit in apply_groups(old, groups, total_new_instructions):
        flat.extend(unit)
    return flat
