"""Changed/unchanged chunk identification (paper §3.2).

Given the IR of the old and new program versions, we

1. align the two instruction sequences with a longest-common-
   subsequence match over *normalised* instruction text (labels and
   temporary statement-ids masked, see
   :meth:`repro.ir.instructions.IRInstr.render`),
2. mark new instructions without a match as *changed*, and
3. group successive instructions of the same kind into chunks, merging
   unchanged runs shorter than the threshold ``K`` into their changed
   neighbours — exactly the rule of §3.2: *"a chunk is considered
   non-changed if (i) all its instructions are not changed, and (ii)
   the chunk size is larger than K instructions."*
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import SequenceMatcher

from ..ir.function import IRFunction

#: Default chunking threshold (instructions).
DEFAULT_K = 4


@dataclass
class IRMatch:
    """Alignment between old and new IR instruction indices."""

    new_to_old: dict[int, int] = field(default_factory=dict)
    old_to_new: dict[int, int] = field(default_factory=dict)


@dataclass
class Chunk:
    """A run ``[start, end)`` of new-IR instructions of one kind."""

    start: int
    end: int
    changed: bool

    def __len__(self) -> int:
        return self.end - self.start

    def indices(self) -> range:
        return range(self.start, self.end)


def match_ir(old_fn: IRFunction, new_fn: IRFunction) -> IRMatch:
    """Align old and new IR by LCS over normalised instruction text."""
    old_texts = [ins.normalized() for ins in old_fn.instrs]
    new_texts = [ins.normalized() for ins in new_fn.instrs]
    matcher = SequenceMatcher(a=old_texts, b=new_texts, autojunk=False)
    match = IRMatch()
    for block in matcher.get_matching_blocks():
        for offset in range(block.size):
            old_index = block.a + offset
            new_index = block.b + offset
            match.new_to_old[new_index] = old_index
            match.old_to_new[old_index] = new_index
    return match


def changed_indices(new_fn: IRFunction, match: IRMatch) -> set[int]:
    """New-IR indices considered *changed* (unmatched against the old IR)."""
    return {
        index for index in range(len(new_fn.instrs)) if index not in match.new_to_old
    }


def build_chunks(
    new_fn: IRFunction, match: IRMatch, k: int = DEFAULT_K
) -> list[Chunk]:
    """Partition the new IR into changed/unchanged chunks (§3.2)."""
    count = len(new_fn.instrs)
    if count == 0:
        return []
    changed = changed_indices(new_fn, match)

    # Raw runs of equal changed-ness.
    runs: list[Chunk] = []
    run_start = 0
    run_changed = 0 in changed
    for index in range(1, count):
        is_changed = index in changed
        if is_changed != run_changed:
            runs.append(Chunk(run_start, index, run_changed))
            run_start = index
            run_changed = is_changed
    runs.append(Chunk(run_start, count, run_changed))

    # Unchanged runs of size <= K merge into neighbouring changed chunks
    # (only when they actually have a changed neighbour; a short but
    # isolated unchanged program stays unchanged).
    merged: list[Chunk] = []
    for run in runs:
        demote = (
            not run.changed
            and len(run) <= k
            and len(runs) > 1  # has neighbours
        )
        if demote:
            run = Chunk(run.start, run.end, True)
        if merged and merged[-1].changed == run.changed:
            merged[-1] = Chunk(merged[-1].start, run.end, run.changed)
        else:
            merged.append(run)
    return merged
