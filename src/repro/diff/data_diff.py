"""Data-segment diffing.

Code updates can change *data* too: global initial values, const
tables, and layout-induced moves of initialised objects.  The sensor
must receive those bytes alongside the instruction script, so the
update planner ships a byte-level patch list for the data segment.

Wire format per patch: 2-byte offset + 1-byte length + payload
(length <= 255; longer runs split).  Nearby changed runs are merged
when the gap is smaller than a patch header, which minimises total
bytes — the same size/energy trade the instruction script makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_HEADER_BYTES = 3
_MAX_PATCH = 255


@dataclass(frozen=True)
class DataPatch:
    """Replace ``len(data)`` bytes at ``offset`` with ``data``."""

    offset: int
    data: bytes

    @property
    def size_bytes(self) -> int:
        return _HEADER_BYTES + len(self.data)


@dataclass
class DataScript:
    """The data-segment half of an update.

    ``resized`` marks a segment-length change with no byte patches (a
    pure truncation/extension-with-zeros) — it still needs a script.
    """

    patches: list[DataPatch] = field(default_factory=list)
    new_length: int = 0
    resized: bool = False

    @property
    def size_bytes(self) -> int:
        if self.is_empty:
            return 0
        # +2: the script carries the new segment length once.
        return 2 + sum(p.size_bytes for p in self.patches)

    @property
    def is_empty(self) -> bool:
        return not self.patches and not self.resized

    def to_bytes(self) -> bytes:
        out = bytearray()
        if self.is_empty:
            return bytes(out)
        out += self.new_length.to_bytes(2, "little")
        for patch in self.patches:
            out += patch.offset.to_bytes(2, "little")
            out.append(len(patch.data))
            out += patch.data
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DataScript":
        script = cls()
        if not blob:
            return script
        script.new_length = int.from_bytes(blob[0:2], "little")
        script.resized = True  # a serialised script always states length
        pos = 2
        while pos < len(blob):
            offset = int.from_bytes(blob[pos : pos + 2], "little")
            length = blob[pos + 2]
            pos += 3
            script.patches.append(DataPatch(offset, bytes(blob[pos : pos + length])))
            pos += length
        return script


def diff_data(old: bytes, new: bytes) -> DataScript:
    """Byte-level diff of two data images.

    Differing runs at most a patch header's size apart are coalesced
    into one patch (a patch header costs more than re-sending a short
    unchanged gap).
    """
    script = DataScript(new_length=len(new))
    limit = max(len(old), len(new))

    def byte_at(blob: bytes, index: int) -> int:
        return blob[index] if index < len(blob) else 0

    runs: list[tuple[int, int]] = []  # [start, end)
    index = 0
    while index < limit:
        if byte_at(old, index) == byte_at(new, index) and index < len(new):
            index += 1
            continue
        if index >= len(new):
            break  # truncation handled by new_length
        start = index
        while index < len(new) and (
            index >= len(old) or byte_at(old, index) != byte_at(new, index)
        ):
            index += 1
        runs.append((start, index))

    merged: list[tuple[int, int]] = []
    for start, end in runs:
        if merged and start - merged[-1][1] <= _HEADER_BYTES:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))

    for start, end in merged:
        cursor = start
        while cursor < end:
            take = min(end - cursor, _MAX_PATCH)
            script.patches.append(DataPatch(cursor, bytes(new[cursor : cursor + take])))
            cursor += take
    script.resized = len(new) != len(old)
    return script


def apply_data(old: bytes, script: DataScript) -> bytes:
    """Sensor-side application of a data script."""
    if script.is_empty:
        return bytes(old)
    out = bytearray(script.new_length)
    common = min(len(old), script.new_length)
    out[:common] = old[:common]
    for patch in script.patches:
        out[patch.offset : patch.offset + len(patch.data)] = patch.data
    return bytes(out)
