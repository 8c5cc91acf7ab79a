"""Allocator-facing data model.

An :class:`AllocationRecord` is the persisted outcome of register
allocation for one function — *"the compilation decisions that were
made when generating the old binary"* that the paper's update-conscious
compiler feeds back into the next compile.  The record is:

* consumed by instruction selection (which physical register holds each
  virtual register at each IR instruction, which vregs are spilled,
  which inter-register ``mov`` instructions to insert), and
* carried inside :class:`repro.core.compiler.CompiledProgram` so a
  later update can recover the old decisions.

Placements are *piecewise*: UCC-RA may split a live range at a chunk
boundary (paper Figure 4(c)) so a variable lives in different registers
over different IR index ranges, with an inserted ``mov`` joining them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..isa import registers as regs


class AllocationError(Exception):
    """Raised when an allocation is internally inconsistent."""


@dataclass
class Piece:
    """``vreg`` sits in physical base register ``base`` over IR indices
    ``[start, end]`` (inclusive)."""

    start: int
    end: int
    base: int


@dataclass
class Placement:
    """Where one virtual register lives.

    ``pieces`` is sorted and non-overlapping.  A fully spilled vreg has
    ``spilled=True`` and no pieces; instruction selection then accesses
    it through the scratch registers and its frame slot.
    """

    vreg: str
    size: int
    pieces: list[Piece] = field(default_factory=list)
    spilled: bool = False

    def reg_at(self, index: int) -> int | None:
        """Physical base register at IR index ``index`` (None = memory)."""
        starts = [p.start for p in self.pieces]
        pos = bisect_right(starts, index) - 1
        if pos >= 0 and self.pieces[pos].start <= index <= self.pieces[pos].end:
            return self.pieces[pos].base
        return None

    def physical_regs_at(self, index: int) -> tuple[int, ...]:
        base = self.reg_at(index)
        if base is None:
            return ()
        return regs.registers_of(base, self.size)

    @property
    def sole_register(self) -> int | None:
        """The base register if the placement is a single piece."""
        if len(self.pieces) == 1:
            return self.pieces[0].base
        return None

    def add_piece(self, start: int, end: int, base: int) -> None:
        if start > end:
            raise AllocationError(f"bad piece [{start}, {end}] for {self.vreg}")
        for piece in self.pieces:
            if not (end < piece.start or piece.end < start):
                raise AllocationError(
                    f"overlapping pieces for {self.vreg} at [{start}, {end}]"
                )
        self.pieces.append(Piece(start, end, base))
        self.pieces.sort(key=lambda p: p.start)


@dataclass
class MoveInsertion:
    """An inter-register move the allocator asks codegen to insert.

    The move executes *before* IR instruction ``ir_index`` and copies
    ``vreg`` from base register ``src`` to base register ``dst``.
    """

    ir_index: int
    vreg: str
    src: int
    dst: int
    size: int


@dataclass
class AllocationRecord:
    """Complete register-allocation outcome for one function."""

    function: str
    placements: dict[str, Placement] = field(default_factory=dict)
    moves: list[MoveInsertion] = field(default_factory=list)
    #: order in which spilled vregs were assigned frame slots (the frame
    #: builder turns this into byte offsets).
    spill_order: list[str] = field(default_factory=list)
    #: name of the algorithm that produced this record
    algorithm: str = ""

    def placement(self, vreg: str) -> Placement:
        try:
            return self.placements[vreg]
        except KeyError:
            raise AllocationError(
                f"no placement for vreg {vreg!r} in {self.function}"
            ) from None

    def reg_at(self, vreg: str, index: int) -> int | None:
        return self.placement(vreg).reg_at(index)

    def moves_before(self, index: int) -> list[MoveInsertion]:
        return [m for m in self.moves if m.ir_index == index]

    def spilled_vregs(self) -> list[str]:
        return [name for name, p in self.placements.items() if p.spilled]


def allocation_conflicts(record: AllocationRecord, liveness):
    """Yield every register-sharing conflict as ``(index, phys, a, b)``.

    A conflict exists when two simultaneously-live vregs occupy the
    same physical register at some IR index.  Values live *into* an
    instruction must be pairwise disjoint, and so must values live
    *out of* it.  A value dying at the instruction may legally share a
    register with one defined there (the selector handles the
    two-address hazards).

    ``liveness`` is a :class:`repro.ir.liveness.LivenessInfo`.  Shared
    by :func:`verify_allocation` (the producers' cheap self-check,
    first conflict raises) and the independent allocation verifier in
    :mod:`repro.analysis.alloc_verifier` (collects all conflicts).
    """

    def check_set(names, index: int):
        occupied: dict[int, str] = {}
        for name in sorted(names):
            placement = record.placements.get(name)
            if placement is None:
                continue
            for phys in placement.physical_regs_at(index):
                other = occupied.get(phys)
                if other is not None and other != name:
                    yield index, phys, other, name
                occupied[phys] = name

    instrs = liveness.function.instrs
    for index in range(len(instrs)):
        uses = {r.name for r in instrs[index].uses()}
        defs = {r.name for r in instrs[index].defs()}
        yield from check_set(set(liveness.live_in[index]) | uses, index)
        yield from check_set(set(liveness.live_out[index]) | defs, index)


def verify_allocation(record: AllocationRecord, liveness) -> None:
    """Check that no two simultaneously-live vregs share a physical
    register at any IR index.  Raises :class:`AllocationError` on the
    first conflict found (see :func:`allocation_conflicts`).
    """
    for index, phys, other, name in allocation_conflicts(record, liveness):
        raise AllocationError(
            f"{record.function}: r{phys} holds both {other} and "
            f"{name} at IR index {index}"
        )
