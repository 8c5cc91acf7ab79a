"""Update-conscious register allocation (UCC-RA, paper §3).

The driver implements the strategy of §3.2:

* identify changed/unchanged chunks of the new IR against the old IR
  (:mod:`repro.regalloc.chunks`),
* tag variables with the register the *old* binary assigned them
  (:mod:`repro.regalloc.preferences`),
* keep the old decisions for unchanged code, allocate changed code with
  preference for the old decisions, and
* insert inter-register ``mov`` instructions at chunk boundaries when —
  and only when — the energy model says re-encoding the downstream
  unchanged instructions would cost more than transmitting and
  executing the ``mov`` (paper Figure 4(c); §5.5's observation that a
  large execution count ``Cnt`` disables the insertion falls out of the
  same comparison).

The allocator scans definitions in program order but tracks conflicts
through the *interference graph*, not linear intervals: the old
records come from a graph-coloring baseline that freely shares a
register between values with disjoint lifetimes (live-range holes,
def-reuses-dying-use), and the preferred-register tags are only
honourable if the new allocator can reproduce such sharing.  On
unchanged IR this reproduces the old assignment exactly — pinned by
tests (a self-update yields a zero-instruction diff).

Two modes are provided:

* ``allocate_ucc_greedy`` — the linear-time preference-guided scan
  described above; the default used by the end-to-end update pipeline;
* the ILP mode in :mod:`repro.regalloc.ilp_ra` — the faithful §3.3/§3.4
  integer-programming formulation, applied per changed chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..energy.model import DEFAULT_ENERGY_MODEL, EnergyModel
from ..ir.cfg import static_frequencies
from ..ir.function import IRFunction
from ..ir.liveness import analyze, interference_pairs
from ..isa import registers as regs
from ..obs import metrics
from .base import AllocationRecord, MoveInsertion, Placement
from .chunks import Chunk, DEFAULT_K, IRMatch, build_chunks, match_ir
from .preferences import PreferenceMap, build_preferences


@dataclass
class UCCReport:
    """Diagnostics of one UCC-RA run (consumed by tests and benches)."""

    match: IRMatch = None
    chunks: list[Chunk] = field(default_factory=list)
    preferences: PreferenceMap = None
    moves_inserted: int = 0
    moves_rejected: int = 0
    tags_honoured: int = 0
    tags_broken: int = 0


def _publish(report: UCCReport, fallback: bool) -> None:
    """Publish one allocation's reuse accounting to :mod:`repro.obs`."""
    metrics.counter("regalloc.ucc.functions").inc()
    metrics.counter("regalloc.ucc.tags_honoured").inc(report.tags_honoured)
    metrics.counter("regalloc.ucc.tags_broken").inc(report.tags_broken)
    metrics.counter("regalloc.ucc.moves_inserted").inc(report.moves_inserted)
    metrics.counter("regalloc.ucc.moves_rejected").inc(report.moves_rejected)
    changed = sum(1 for chunk in report.chunks if chunk.changed)
    metrics.counter("regalloc.ucc.chunks_changed").inc(changed)
    metrics.counter("regalloc.ucc.chunks_unchanged").inc(
        len(report.chunks) - changed
    )
    if fallback:
        metrics.counter("regalloc.ucc.baseline_fallbacks").inc()


def allocate_ucc_greedy(
    new_fn: IRFunction,
    old_fn: IRFunction,
    old_record: AllocationRecord,
    energy: EnergyModel = DEFAULT_ENERGY_MODEL,
    k: int = DEFAULT_K,
    expected_runs: float = 1000.0,
    loop_weight: float = 10.0,
    old_profile: dict[int, float] | None = None,
) -> tuple[AllocationRecord, UCCReport]:
    """Allocate ``new_fn`` update-consciously against the old decisions.

    ``expected_runs`` is the paper's ``Cnt`` — how many times the code
    is projected to run before it retires; it weighs the execution cost
    of inserted moves against their transmission savings.

    ``old_profile`` optionally supplies *measured* per-IR-instruction
    execution counts of the old binary (paper §2.1: "we collect program
    execution profiles").  Matched instructions inherit the measured
    frequency; unmatched ones fall back to the static loop-nesting
    estimate.
    """
    match = match_ir(old_fn, new_fn)
    chunks = build_chunks(new_fn, match, k)
    prefs = build_preferences(old_fn, new_fn, old_record, match)

    if not prefs.tags and not prefs.was_spilled:
        # No usable hints at all (e.g. every statement changed, or every
        # variable renamed).  The deterministic baseline colorer then
        # reproduces the old encodings better than a guided scan with
        # nothing to guide it — this mirrors the paper's case 13, where
        # UCC-RA "only uses the preferred register tag as hint" and
        # otherwise matches GCC-RA's quality.
        from .graph_coloring import allocate_graph_coloring

        record = allocate_graph_coloring(new_fn)
        record.algorithm = "ucc-ra(baseline-fallback)"
        report = UCCReport(match=match, chunks=chunks, preferences=prefs)
        _publish(report, fallback=True)
        return record, report

    info = analyze(new_fn)
    freqs = static_frequencies(new_fn, loop_weight)
    if old_profile:
        # Per-run frequency = measured executions of the matched old
        # instruction; statically-estimated for new instructions.
        for new_index, old_index in match.new_to_old.items():
            if old_index in old_profile:
                freqs[new_index] = float(old_profile[old_index])

    report = UCCReport(match=match, chunks=chunks, preferences=prefs)
    record = AllocationRecord(function=new_fn.name, algorithm="ucc-ra")

    intervals = info.intervals
    count = len(new_fn.instrs)

    # Interference adjacency over vreg names.
    conflicts: dict[str, set[str]] = {name: set() for name in intervals}
    for a, b in interference_pairs(info):
        if a in conflicts and b in conflicts:
            conflicts[a].add(b)
            conflicts[b].add(a)

    # Scan state: a physical register may be shared by several
    # *non-interfering* vregs whose linear intervals overlap.
    holders: dict[int, set[str]] = {}  # physical register -> holder names
    current_base: dict[str, int] = {}  # live vreg -> base register
    piece_start: dict[str, int] = {}

    def usable(base: int, size: int, name: str) -> bool:
        """Can ``name`` take ``base`` without clashing with a live,
        interfering holder?"""
        mine = conflicts.get(name, set())
        for unit in regs.registers_of(base, size):
            for holder in holders.get(unit, ()):
                if holder in mine:
                    return False
        return True

    def claim(name: str, base: int, size: int, index: int) -> None:
        for unit in regs.registers_of(base, size):
            holders.setdefault(unit, set()).add(name)
        current_base[name] = base
        piece_start[name] = index

    def release(name: str) -> None:
        base = current_base.pop(name)
        size = intervals[name].vreg.size
        for unit in regs.registers_of(base, size):
            holders.get(unit, set()).discard(name)

    def close_piece(name: str, end: int) -> None:
        base = current_base[name]
        record.placements[name].add_piece(piece_start[name], end, base)

    # Per-vreg tagged occurrences, sorted by IR index.
    tags_by_name: dict[str, list[tuple[int, int]]] = {}
    for (name, idx), reg in prefs.tags.items():
        tags_by_name.setdefault(name, []).append((idx, reg))
    for occurrences in tags_by_name.values():
        occurrences.sort()

    # Registers that variables with *future* tagged (matched, unchanged)
    # occurrences still want; avoided when choosing fallback registers so
    # a changed-chunk def does not steal the register a downstream
    # unchanged instruction needs to stay byte-identical.  Only
    # *interfering* variables matter: a non-interfering one can share
    # the register and still receive its tag.
    def reserved_tags(except_vreg: str, at_index: int) -> set[int]:
        reserved = set()
        mine = conflicts.get(except_vreg, set())
        for name, occurrences in tags_by_name.items():
            if name == except_vreg or name not in mine:
                continue
            for idx, reg in occurrences:
                if idx > at_index:
                    reserved.add(reg)
                    break
        return reserved

    def tag_for(name: str, index: int) -> int | None:
        tag = prefs.at(name, index)
        if tag is None:
            tag = prefs.next_tag_at_or_after(name, index)
        if tag is None:
            tag = prefs.variable_preference(name)
        return tag

    def choose_register(name: str, index: int) -> int | None:
        interval = intervals[name]
        candidates = regs.candidates(
            interval.vreg.size, callee_saved_only=interval.crosses_call
        )
        tag = tag_for(name, index)
        if tag is not None and tag in candidates and usable(
            tag, interval.vreg.size, name
        ):
            report.tags_honoured += 1
            return tag
        if tag is not None:
            report.tags_broken += 1
        avoid = reserved_tags(name, index)
        for base in candidates:
            if base not in avoid and usable(base, interval.vreg.size, name):
                return base
        for base in candidates:
            if usable(base, interval.vreg.size, name):
                return base
        return None

    def touches_changed(name: str) -> bool:
        interval = intervals[name]
        for chunk in chunks:
            if not chunk.changed:
                continue
            if not (interval.end < chunk.start or chunk.end - 1 < interval.start):
                return True
        return False

    def allocate(name: str, index: int) -> None:
        interval = intervals[name]
        placement = Placement(vreg=name, size=interval.vreg.size)
        record.placements[name] = placement
        # Keep the old spill decision when the variable was spilled
        # before and its code is unchanged (zero transmission cost).
        if prefs.was_spilled.get(name) and not touches_changed(name):
            placement.spilled = True
            record.spill_order.append(name)
            return
        base = choose_register(name, index)
        if base is None:
            placement.spilled = True
            record.spill_order.append(name)
            return
        claim(name, base, interval.vreg.size, index)

    def consider_switch(name: str, chunk: Chunk) -> None:
        """Move ``name`` back to its old register at an unchanged-chunk
        boundary when the energy model favours it (paper Fig. 4(c))."""
        interval = intervals[name]
        base = current_base[name]
        tag = prefs.at(name, chunk.start)
        if tag is None:
            for idx in chunk.indices():
                tag = prefs.at(name, idx)
                if tag is not None:
                    break
        if tag is None or tag == base:
            return
        size = interval.vreg.size
        candidates = regs.candidates(size, callee_saved_only=interval.crosses_call)
        if tag not in candidates or not usable(tag, size, name):
            return

        # Benefit: matched instructions in this chunk that keep their
        # old encoding instead of being re-transmitted.
        saved_instrs = sum(
            1
            for idx in range(chunk.start, min(chunk.end, interval.end + 1))
            if prefs.at(name, idx) == tag
        )
        benefit = energy.e_trans * saved_instrs
        # A value dead across the boundary (a live-range hole; it is
        # redefined inside the chunk) changes register for free: there
        # is nothing to copy, so no move is inserted or priced.
        carried = name in info.live_out[chunk.start - 1]
        cost = 0.0
        if carried:
            move_words = 1  # one MOV/MOVW instruction word
            cost = energy.e_trans_words(move_words) + (
                freqs.get(chunk.start, 1.0) * expected_runs * energy.e_exe
            )
        if benefit <= cost:
            if carried:
                report.moves_rejected += 1
            return

        close_piece(name, chunk.start - 1)
        release(name)
        claim(name, tag, size, chunk.start)
        if carried:
            record.moves.append(
                MoveInsertion(ir_index=chunk.start, vreg=name, src=base, dst=tag, size=size)
            )
            report.moves_inserted += 1

    unchanged_starts = {c.start: c for c in chunks if not c.changed}

    for index in range(count):
        # 1. retire vregs that died before this instruction
        for name in [n for n in list(current_base) if intervals[n].end < index]:
            close_piece(name, intervals[name].end)
            release(name)

        # 2. at the start of an unchanged chunk, consider switching live
        #    variables back to their old registers
        chunk = unchanged_starts.get(index)
        if chunk is not None and index > 0:
            for name in sorted(current_base):
                consider_switch(name, chunk)

        # 3. allocate vregs whose live interval starts here
        starting = sorted(
            name
            for name, interval in intervals.items()
            if interval.start == index and name not in record.placements
        )
        for name in starting:
            allocate(name, index)

    for name in list(current_base):
        close_piece(name, intervals[name].end)
        release(name)

    if report.tags_broken > report.tags_honoured:
        # The new liveness made most old decisions unreproducible (the
        # adversarial end of the paper's Figure 4 spectrum): a fresh
        # deterministic colouring then matches the old binary at least
        # as well as a half-honoured tag set.  Deterministic, so the
        # choice itself is stable across recompilations.
        from .graph_coloring import allocate_graph_coloring

        fallback = allocate_graph_coloring(new_fn)
        fallback.algorithm = "ucc-ra(baseline-fallback)"
        _publish(report, fallback=True)
        return fallback, report
    _publish(report, fallback=False)
    return record, report
