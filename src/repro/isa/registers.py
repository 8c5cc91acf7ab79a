"""The register file of the reproduction's AVR-flavoured target.

Mirrors the ATmega128L conventions the paper compiles for: 32 8-bit
registers ``r0``..``r31``; 16-bit values occupy even-aligned register
*pairs* (paper eq. 9's consecutive-register constraint, at the u16
width ucc-C uses).

Reserved registers (never handed out by any allocator, so both the
baseline and UCC allocators face the same register file):

* ``r0``       — assembler/spill scratch byte
* ``r1``       — always-zero register (cleared at function entry)
* ``r26:r27``  — X: scratch pair for spilled u16 values
* ``r30:r31``  — Z: array addressing pointer

Calling convention (static frames, see DESIGN.md §5): arguments are
stored by the caller into the callee's static frame; the return value
travels in ``r24`` (u8) or ``r24:r25`` (u16).  ``r2``..``r17`` are
callee-saved; ``r18``..``r25`` are caller-saved and therefore clobbered
by calls.
"""

from __future__ import annotations

NUM_REGS = 32

SCRATCH = 0  # r0
ZERO = 1  # r1
X_LO, X_HI = 26, 27
Z_LO, Z_HI = 30, 31

RESERVED = frozenset({SCRATCH, ZERO, X_LO, X_HI, 28, 29, Z_LO, Z_HI})

#: Registers any allocator may assign, in ascending order.
ALLOCATABLE = tuple(r for r in range(2, 26))

#: Callee-saved subset of the allocatable registers.  Virtual registers
#: that are live across a call must be placed here.
CALLEE_SAVED = tuple(r for r in ALLOCATABLE if r <= 17)

#: Caller-saved subset (clobbered by CALL).
CALLER_SAVED = tuple(r for r in ALLOCATABLE if r >= 18)

#: Return-value registers.
RET_LO, RET_HI = 24, 25

#: Even-aligned allocatable pair bases (for u16 virtual registers).
PAIR_BASES = tuple(r for r in ALLOCATABLE if r % 2 == 0 and (r + 1) in ALLOCATABLE)

CALLEE_SAVED_PAIR_BASES = tuple(r for r in PAIR_BASES if (r + 1) <= 17)
CALLER_SAVED_PAIR_BASES = tuple(r for r in PAIR_BASES if r >= 18)

#: Allocation preference order: call-clobbered registers first (they
#: cost no prologue push/pop), then callee-saved.  Values that are live
#: across a call are restricted to the callee-saved suffix.
PREFERRED_ORDER = CALLER_SAVED + CALLEE_SAVED
PREFERRED_PAIR_ORDER = CALLER_SAVED_PAIR_BASES + CALLEE_SAVED_PAIR_BASES


def reg_name(index: int) -> str:
    if not 0 <= index < NUM_REGS:
        raise ValueError(f"register index {index} out of range")
    return f"r{index}"


def registers_of(base: int, size: int) -> tuple[int, ...]:
    """The physical registers a value of ``size`` bytes occupies."""
    if size == 1:
        return (base,)
    if size == 2:
        return (base, base + 1)
    raise ValueError(f"unsupported value size {size}")


def candidates(size: int, callee_saved_only: bool = False) -> tuple[int, ...]:
    """Legal base registers for a value of ``size`` bytes, in allocation
    preference order (call-clobbered first)."""
    if size == 1:
        return CALLEE_SAVED if callee_saved_only else PREFERRED_ORDER
    if size == 2:
        return CALLEE_SAVED_PAIR_BASES if callee_saved_only else PREFERRED_PAIR_ORDER
    raise ValueError(f"unsupported value size {size}")
