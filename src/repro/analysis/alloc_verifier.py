"""Allocation verifier: independently re-check a register allocation.

Re-derives liveness from the IR and checks the persisted
:class:`~repro.regalloc.base.AllocationRecord` against it:

* no two simultaneously-live vregs share a physical register,
* no placement touches a reserved register; u16 values sit on legal
  even-aligned pairs,
* values live across a call occupy callee-saved registers,
* every (non-spilled) use and definition has a register at its IR
  index — no live-range piece gaps at real occurrences,
* spill bookkeeping is consistent (``spilled`` flag ⇔ ``spill_order``),
* a placement that changes base register while the value stays live is
  joined by exactly the inter-register move the allocator recorded, and
* when a :class:`~repro.regalloc.ucc_ra.UCCReport` is supplied, every
  inserted move restores a preferred-register tag — the only reason
  UCC-RA pays for one — and the report's move count matches the record.
"""

from __future__ import annotations

from ..ir.function import IRFunction
from ..ir.liveness import LivenessInfo, analyze
from ..isa import registers as regs
from ..regalloc.base import AllocationRecord, allocation_conflicts
from .base import Finding

PASS_NAME = "allocation"


def verify_allocation_record(
    fn: IRFunction,
    record: AllocationRecord,
    report=None,
) -> list[Finding]:
    """Run every allocation check; returns all findings (empty = clean).

    ``report`` optionally carries the UCC-RA diagnostics used for the
    preferred-tag accounting check.
    """
    findings: list[Finding] = []
    info = analyze(fn)

    findings.extend(_check_piece_shape(fn, record))
    findings.extend(_check_register_classes(fn, record, info))
    findings.extend(_check_conflicts(fn, record, info))
    findings.extend(_check_coverage(fn, record))
    findings.extend(_check_spill_bookkeeping(fn, record))
    findings.extend(_check_move_continuity(fn, record, info))
    if report is not None and record.algorithm == "ucc-ra":
        findings.extend(_check_tag_accounting(fn, record, report))
    return findings


def _finding(fn: IRFunction, message: str, location: int | None = None) -> Finding:
    return Finding(
        pass_name=PASS_NAME, message=message, function=fn.name, location=location
    )


def _check_piece_shape(fn: IRFunction, record: AllocationRecord) -> list[Finding]:
    """Pieces must be well-formed, sorted, and non-overlapping."""
    findings = []
    for name, placement in record.placements.items():
        if placement.spilled and placement.pieces:
            findings.append(
                _finding(fn, f"{name} is spilled but still has register pieces")
            )
        previous_end = None
        for piece in placement.pieces:
            if piece.start > piece.end:
                findings.append(
                    _finding(
                        fn,
                        f"{name} has an inverted piece [{piece.start}, {piece.end}]",
                        piece.start,
                    )
                )
            if previous_end is not None and piece.start <= previous_end:
                findings.append(
                    _finding(
                        fn,
                        f"{name} has overlapping/unsorted pieces at {piece.start}",
                        piece.start,
                    )
                )
            previous_end = piece.end
    return findings


def _check_register_classes(
    fn: IRFunction, record: AllocationRecord, info: LivenessInfo
) -> list[Finding]:
    """Reserved registers, pair alignment, callee-saved constraint."""
    findings = []
    for name, placement in record.placements.items():
        interval = info.intervals.get(name)
        for piece in placement.pieces:
            units = regs.registers_of(piece.base, placement.size)
            reserved = [u for u in units if u in regs.RESERVED]
            if reserved:
                findings.append(
                    _finding(
                        fn,
                        f"{name} occupies reserved register r{reserved[0]}",
                        piece.start,
                    )
                )
            if any(u not in range(regs.NUM_REGS) for u in units):
                findings.append(
                    _finding(fn, f"{name} occupies a register out of range", piece.start)
                )
            if placement.size == 2 and piece.base % 2 != 0:
                findings.append(
                    _finding(
                        fn,
                        f"u16 {name} is not even-aligned (base r{piece.base})",
                        piece.start,
                    )
                )
            if interval is not None and interval.crosses_call:
                clobbered = [u for u in units if u in regs.CALLER_SAVED]
                if clobbered:
                    findings.append(
                        _finding(
                            fn,
                            f"call-crossing {name} sits in caller-saved "
                            f"r{clobbered[0]}",
                            piece.start,
                        )
                    )
    return findings


def _check_conflicts(
    fn: IRFunction, record: AllocationRecord, info: LivenessInfo
) -> list[Finding]:
    """No two simultaneously-live vregs share a physical register."""
    findings = []
    seen: set[tuple] = set()
    for index, phys, a, b in allocation_conflicts(record, info):
        key = (phys, a, b)
        if key in seen:  # report each clobbered pair once
            continue
        seen.add(key)
        findings.append(
            _finding(fn, f"r{phys} holds both {a} and {b}", index)
        )
    return findings


def _check_coverage(fn: IRFunction, record: AllocationRecord) -> list[Finding]:
    """Every real occurrence of a non-spilled vreg has a register."""
    findings = []
    for index, ins in enumerate(fn.instrs):
        for reg in ins.vregs():
            placement = record.placements.get(reg.name)
            if placement is None:
                findings.append(
                    _finding(fn, f"no placement recorded for {reg.name}", index)
                )
                continue
            if placement.spilled:
                continue
            if placement.reg_at(index) is None:
                findings.append(
                    _finding(
                        fn,
                        f"{reg.name} has no register at its occurrence",
                        index,
                    )
                )
    return findings


def _check_spill_bookkeeping(fn: IRFunction, record: AllocationRecord) -> list[Finding]:
    findings = []
    spilled = {n for n, p in record.placements.items() if p.spilled}
    order = record.spill_order
    if len(order) != len(set(order)):
        findings.append(_finding(fn, "spill_order lists a vreg twice"))
    for name in spilled - set(order):
        findings.append(
            _finding(fn, f"spilled {name} is missing from spill_order")
        )
    for name in set(order) - spilled:
        findings.append(
            _finding(fn, f"spill_order lists non-spilled vreg {name}")
        )
    return findings


def _check_move_continuity(
    fn: IRFunction, record: AllocationRecord, info: LivenessInfo
) -> list[Finding]:
    """Base-register changes of a live value must be joined by moves.

    Two adjacent pieces with different bases are legal when the value
    is dead in between (a live-range hole); when it is live, the
    recorded :class:`~repro.regalloc.base.MoveInsertion` must copy the
    value from the old base to the new one at the second piece's start.
    Conversely every recorded move must join two real pieces.
    """
    findings = []
    moves_by_key = {(m.vreg, m.ir_index): m for m in record.moves}
    used_moves = set()

    for name, placement in record.placements.items():
        for first, second in zip(placement.pieces, placement.pieces[1:]):
            if first.base == second.base:
                continue
            # Live across the gap?  The value is carried over iff it is
            # live out of the last index of the first piece.
            if first.end < len(info.live_out) and name not in info.live_out[first.end]:
                continue
            move = moves_by_key.get((name, second.start))
            if move is None:
                findings.append(
                    _finding(
                        fn,
                        f"{name} switches r{first.base}->r{second.base} "
                        "without an inserted move",
                        second.start,
                    )
                )
                continue
            used_moves.add((name, second.start))
            if move.src != first.base or move.dst != second.base:
                findings.append(
                    _finding(
                        fn,
                        f"move for {name} copies r{move.src}->r{move.dst} but "
                        f"the pieces switch r{first.base}->r{second.base}",
                        second.start,
                    )
                )

    for move in record.moves:
        if (move.vreg, move.ir_index) in used_moves:
            continue
        placement = record.placements.get(move.vreg)
        if placement is None or placement.spilled:
            findings.append(
                _finding(
                    fn,
                    f"recorded move for {move.vreg} has no register placement",
                    move.ir_index,
                )
            )
            continue
        findings.append(
            _finding(
                fn,
                f"recorded move for {move.vreg} at IR {move.ir_index} does not "
                "join two placement pieces",
                move.ir_index,
            )
        )
    return findings


def _check_tag_accounting(
    fn: IRFunction, record: AllocationRecord, report
) -> list[Finding]:
    """Inserted moves must restore preferred-register tags.

    UCC-RA only pays for a move when it switches a value *back to* the
    register the old binary used (paper Figure 4(c)); a move to any
    other register is never energy-justified.  The report's count must
    also match the record, or the planner's accounting (and hence the
    energy comparison) is off.
    """
    findings = []
    prefs = getattr(report, "preferences", None)
    if prefs is not None:
        for move in record.moves:
            tags_after = {
                reg
                for (name, idx), reg in prefs.tags.items()
                if name == move.vreg and idx >= move.ir_index
            }
            if move.dst not in tags_after:
                findings.append(
                    _finding(
                        fn,
                        f"move for {move.vreg} targets r{move.dst}, which is "
                        "not a preferred tag at or after the move point",
                        move.ir_index,
                    )
                )
    moves_reported = getattr(report, "moves_inserted", None)
    if moves_reported is not None and moves_reported != len(record.moves):
        findings.append(
            _finding(
                fn,
                f"report charges {moves_reported} inserted move(s) but the "
                f"record carries {len(record.moves)}",
            )
        )
    return findings
