"""Preferred-register tags (paper §3.2).

*"In UCC-RA, we tag each variable in an unchanged IR instruction with
the register name that was assigned in the old binary."*

Given the old allocation record and the old↔new IR match, this module
computes, for every virtual register of the new IR:

* ``at(vreg, new_index)`` — the register the old binary held the
  variable in at the matched old instruction (None when unmatched or
  previously spilled), and
* ``variable_preference(vreg)`` — the dominant old register across all
  matched occurrences, used as the coarse per-variable hint.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..ir.function import IRFunction
from .base import AllocationRecord
from .chunks import IRMatch


@dataclass
class PreferenceMap:
    """Preferred-register tags for one function's new IR."""

    #: (vreg name, new IR index) -> preferred base register
    tags: dict[tuple[str, int], int] = field(default_factory=dict)
    #: vreg name -> dominant preferred base register
    dominant: dict[str, int] = field(default_factory=dict)
    #: vreg name -> True if the old allocation spilled it
    was_spilled: dict[str, bool] = field(default_factory=dict)

    def at(self, vreg: str, new_index: int) -> int | None:
        return self.tags.get((vreg, new_index))

    def variable_preference(self, vreg: str) -> int | None:
        return self.dominant.get(vreg)

    def next_tag_at_or_after(self, vreg: str, new_index: int) -> int | None:
        """The nearest tag at or after ``new_index`` — what a definition
        inside a changed chunk should aim for so the downstream
        unchanged uses match the old encoding."""
        best: tuple[int, int] | None = None
        for (name, idx), reg in self.tags.items():
            if name == vreg and idx >= new_index:
                if best is None or idx < best[0]:
                    best = (idx, reg)
        return best[1] if best else None


def build_preferences(
    old_fn: IRFunction,
    new_fn: IRFunction,
    old_record: AllocationRecord,
    match: IRMatch,
) -> PreferenceMap:
    """Compute preferred-register tags from the old decisions."""
    prefs = PreferenceMap()
    votes: dict[str, Counter] = {}

    for new_index, old_index in match.new_to_old.items():
        new_instr = new_fn.instrs[new_index]
        for reg in new_instr.vregs():
            placement = old_record.placements.get(reg.name)
            if placement is None:
                continue
            if placement.spilled:
                prefs.was_spilled[reg.name] = True
                continue
            base = placement.reg_at(old_index)
            if base is None:
                continue
            prefs.tags[(reg.name, new_index)] = base
            votes.setdefault(reg.name, Counter())[base] += 1

    for name, counter in votes.items():
        # Deterministic tie-break: highest count, then lowest register.
        base, _ = min(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        prefs.dominant[name] = base
    return prefs
