"""Code placement: where each function's code lives in program flash.

The paper defers update-conscious *code placement* to future work
("we will investigate the code placement problem in our future work",
§3) but the phenomenon is fully present in this reproduction: our
``CALL``/``JMP`` instructions embed absolute word addresses, so when an
early function grows or shrinks, every later function shifts and every
call site that targets a shifted function re-encodes — update noise
with no semantic cause, exactly analogous to the register/layout
cascades of §3/§4 (and the subject of Feedback Linking [26], which the
paper cites).

Two placement strategies:

* :func:`baseline_placement` — functions packed back-to-back in
  definition order (what a conventional toolchain does);
* :func:`ucc_placement` — update-conscious: every function that still
  fits its old *slot* keeps its old start address, with NOP padding
  filling any shrinkage; a function that outgrows its slot expands in
  place (shifting only its successors); new functions append at the
  end; ``headroom`` optionally pre-pads slots at first deployment so
  future growth does not shift successors (the slop-space idea of
  FlexCup-era systems).

The trade is the familiar one: padding NOPs are transmitted once (and
occupy flash), in exchange for keeping every call site to every stable
function byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instructions import MachineInstr


@dataclass(frozen=True)
class FunctionSlot:
    """One function's flash slot: ``[start, start + slot_words)``."""

    name: str
    start: int
    code_words: int
    slot_words: int

    @property
    def padding_words(self) -> int:
        return self.slot_words - self.code_words


@dataclass
class PlacementPlan:
    """The full flash layout of a program's functions."""

    slots: list[FunctionSlot] = field(default_factory=list)
    algorithm: str = "baseline"

    def slot(self, name: str) -> FunctionSlot:
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(slot.name == name for slot in self.slots)

    @property
    def total_words(self) -> int:
        return max((slot.start + slot.slot_words for slot in self.slots), default=0)

    @property
    def total_padding(self) -> int:
        return sum(slot.padding_words for slot in self.slots)

    def stable_functions(self, old: "PlacementPlan") -> list[str]:
        """Functions that kept their start address versus ``old``."""
        return [
            slot.name
            for slot in self.slots
            if slot.name in old and old.slot(slot.name).start == slot.start
        ]


def baseline_placement(
    sizes: dict[str, int], order: list[str], headroom: int = 0
) -> PlacementPlan:
    """Pack functions back-to-back in ``order``.

    ``headroom`` adds slack words to every slot (useful when the first
    deployment anticipates maintenance).
    """
    plan = PlacementPlan(algorithm="baseline")
    cursor = 0
    for name in order:
        code = sizes[name]
        slot = FunctionSlot(
            name=name, start=cursor, code_words=code, slot_words=code + headroom
        )
        plan.slots.append(slot)
        cursor += slot.slot_words
    return plan


def ucc_placement(
    sizes: dict[str, int],
    order: list[str],
    old_plan: PlacementPlan,
    headroom: int = 0,
) -> PlacementPlan:
    """Update-conscious placement against ``old_plan``.

    * A survivor that fits its old slot keeps it (address-stable; NOP
      padding fills any shrinkage).
    * A survivor that *outgrew* its slot expands in place: the differ
      matches the function's unchanged instructions against the old
      body, so only the genuinely changed instructions (plus the
      shifted successors' call sites) transmit.
    * Deleted functions' regions are compacted away (successors shift
      down) — their call sites are gone anyway.
    * New functions append at the end.
    """
    plan = PlacementPlan(algorithm="ucc")
    newcomers = [name for name in order if name not in old_plan]
    cursor = 0
    for old in sorted(old_plan.slots, key=lambda slot: slot.start):
        name = old.name
        if name not in sizes:
            continue  # deleted function: compact (its callers are gone)
        code = sizes[name]
        if code <= old.slot_words and old.start >= cursor:
            # Address-stable: keep the slot, pad any shrinkage.
            plan.slots.append(
                FunctionSlot(
                    name=name,
                    start=old.start,
                    code_words=code,
                    slot_words=old.slot_words,
                )
            )
            cursor = old.start + old.slot_words
        else:
            # Outgrew its slot (or already displaced): expand in place
            # and let successors shift.
            plan.slots.append(
                FunctionSlot(
                    name=name,
                    start=cursor,
                    code_words=code,
                    slot_words=code + headroom,
                )
            )
            cursor += code + headroom

    for name in newcomers:
        code = sizes[name]
        plan.slots.append(
            FunctionSlot(
                name=name, start=cursor, code_words=code, slot_words=code + headroom
            )
        )
        cursor += code + headroom
    return plan


def apply_placement(
    function_code: dict[str, list[MachineInstr]], plan: PlacementPlan
) -> list[MachineInstr]:
    """Emit functions in address order with NOP padding.

    Inter-slot gaps (e.g. a survivor holding its old address after a
    predecessor shrank) and intra-slot tails become NOPs tagged
    ``<pad>``.  The assembler's address assignment then reproduces the
    plan exactly (checked by :func:`repro.core.compiler.link`).
    """
    out: list[MachineInstr] = []
    cursor = 0
    for slot in sorted(plan.slots, key=lambda slot: slot.start):
        gap = slot.start - cursor
        if gap < 0:  # pragma: no cover - plans are constructed gap-free
            raise ValueError(f"placement overlap at {slot}")
        out.extend(MachineInstr("nop", comment="<pad>") for _ in range(gap))
        out.extend(function_code[slot.name])
        out.extend(
            MachineInstr("nop", comment="<pad>") for _ in range(slot.padding_words)
        )
        cursor = slot.start + slot.slot_words
    return out


def code_size_words(instrs: list[MachineInstr]) -> int:
    """Total encoded size of a function's instruction list."""
    return sum(ins.size_words for ins in instrs)
