"""ILP-mode UCC-RA: per-changed-chunk optimal register selection.

Runs the preference-guided greedy allocator first, then, for each
*changed* chunk, builds the paper's integer program
(:mod:`repro.regalloc.ilp_model`) with

* chunk-internal variables (live range contained in the chunk) free to
  be re-decided over a restricted candidate set,
* boundary-crossing variables fixed to the greedy/old decision,

solves it, and adopts the ILP assignment when it improves the modelled
energy.  Adoption is all-or-nothing per chunk and restricted to
solutions where every internal variable occupies one register for its
whole lifetime (intra-chunk shuffling of *changed* instructions cannot
reduce transmission — they are re-sent regardless — so this restriction
costs nothing in our workloads; DESIGN.md §5 records it).

The per-chunk :class:`~repro.ilp.branch_bound.SolveStats` are what the
complexity figures (13-15) plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..energy.model import DEFAULT_ENERGY_MODEL, EnergyModel
from ..ilp.branch_bound import SolveStats
from ..ilp.solver import solve
from ..ir.cfg import static_frequencies
from ..ir.function import IRFunction
from ..ir.liveness import analyze
from ..isa import registers as regs
from ..obs import metrics
from .base import AllocationRecord, Placement
from .chunks import DEFAULT_K, changed_indices
from .ilp_model import ChunkSpec, build_chunk_model, greedy_incumbent, _loc, _mem
from .ucc_ra import UCCReport, allocate_ucc_greedy

#: Registers each chunk-internal variable may be re-decided over.
CANDIDATES_PER_VAR = 4
#: Chunks whose model exceeds this many variables keep the greedy answer.
MAX_MODEL_VARS = 6000


@dataclass
class ILPChunkOutcome:
    """What happened for one changed chunk."""

    lo: int
    hi: int
    status: str  # "adopted" | "kept_greedy" | "skipped_too_big" | "infeasible"
    stats: SolveStats | None = None
    variables_redecided: int = 0


@dataclass
class ILPReport:
    """Aggregate diagnostics of one ILP-mode allocation."""

    greedy: UCCReport = None
    chunks: list[ILPChunkOutcome] = field(default_factory=list)


def allocate_ucc_ilp(
    new_fn: IRFunction,
    old_fn: IRFunction,
    old_record: AllocationRecord,
    energy: EnergyModel = DEFAULT_ENERGY_MODEL,
    k: int = DEFAULT_K,
    expected_runs: float = 1000.0,
) -> tuple[AllocationRecord, ILPReport]:
    """UCC-RA with per-changed-chunk ILP refinement."""
    record, greedy_report = allocate_ucc_greedy(
        new_fn, old_fn, old_record, energy=energy, k=k, expected_runs=expected_runs
    )
    report = ILPReport(greedy=greedy_report)
    info = analyze(new_fn)
    freqs = static_frequencies(new_fn)
    changed = changed_indices(new_fn, greedy_report.match)

    for chunk in greedy_report.chunks:
        if not chunk.changed:
            continue
        spec = build_spec_for_chunk(
            new_fn,
            info,
            record,
            greedy_report,
            chunk.start,
            chunk.end,
            changed,
            freqs,
            energy,
            expected_runs,
            CANDIDATES_PER_VAR,
        )
        internal = [a for a in spec.variables() if a not in spec.fixed]
        if not internal:
            report.chunks.append(
                ILPChunkOutcome(chunk.start, chunk.end, "kept_greedy")
            )
            continue
        model = build_chunk_model(spec)
        if model.num_variables > MAX_MODEL_VARS:
            report.chunks.append(
                ILPChunkOutcome(chunk.start, chunk.end, "skipped_too_big")
            )
            continue
        assignment = {
            a: (None if record.placements[a].spilled else record.placements[a].sole_register)
            for a in spec.variables()
        }
        incumbent = greedy_incumbent(spec, assignment)
        result = solve(model, backend="scipy", incumbent=incumbent)
        _audit_solution(model, result)
        if result.status != "optimal":
            report.chunks.append(
                ILPChunkOutcome(
                    chunk.start, chunk.end, "infeasible", stats=result.stats
                )
            )
            continue
        adopted = _try_adopt(spec, record, internal, result.values)
        report.chunks.append(
            ILPChunkOutcome(
                chunk.start,
                chunk.end,
                "adopted" if adopted else "kept_greedy",
                stats=result.stats,
                variables_redecided=len(internal) if adopted else 0,
            )
        )
    for outcome in report.chunks:
        if outcome.status == "adopted":
            metrics.counter("regalloc.ilp.chunks_adopted").inc()
        elif outcome.status == "kept_greedy":
            metrics.counter("regalloc.ilp.chunks_kept_greedy").inc()
        elif outcome.status == "skipped_too_big":
            metrics.counter("regalloc.ilp.chunks_skipped").inc()
        else:
            metrics.counter("regalloc.ilp.chunks_infeasible").inc()
    return record, report


def _audit_solution(model, result) -> None:
    """Cross-check an "optimal" solve against its own model.

    Imported lazily — ``regalloc.__init__`` pulls this module in, so a
    top-level import of :mod:`repro.analysis` would cycle.
    """
    from ..analysis.base import VerificationError, VerificationReport
    from ..analysis.energy_audit import PASS_NAME, audit_ilp_solution

    findings = audit_ilp_solution(model, result)
    if findings:
        report = VerificationReport()
        report.extend(PASS_NAME, findings)
        raise VerificationError(report)


def build_spec_for_chunk(
    fn: IRFunction,
    info,
    record: AllocationRecord,
    greedy_report: UCCReport,
    lo: int,
    hi: int,
    changed: set[int],
    freqs: dict[int, float],
    energy: EnergyModel,
    expected_runs: float,
    candidates_per_var: int,
) -> ChunkSpec:
    """Assemble the model inputs for one chunk against the greedy record."""
    intervals = info.intervals
    prefs = greedy_report.preferences

    names: set[str] = set()
    for index in range(lo, hi):
        ins = fn.instrs[index]
        names.update(r.name for r in ins.vregs())
        names.update(info.live_in[index])
        names.update(info.live_out[index])

    candidates: dict[str, tuple[int, ...]] = {}
    fixed: dict[str, int] = {}
    for name in sorted(names):
        interval = intervals[name]
        legal = regs.candidates(
            interval.vreg.size, callee_saved_only=interval.crosses_call
        )
        placement = record.placements.get(name)
        chosen: list[int] = []
        tag = prefs.variable_preference(name) if prefs else None
        if tag is not None and tag in legal:
            chosen.append(tag)
        if placement is not None and not placement.spilled:
            base = placement.sole_register
            if base is None and placement.pieces:
                base = placement.pieces[0].base
            if base is not None and base in legal and base not in chosen:
                chosen.append(base)
        for base in legal:
            if len(chosen) >= candidates_per_var:
                break
            if base not in chosen:
                chosen.append(base)
        candidates[name] = tuple(chosen)
        internal = interval.start >= lo and interval.end < hi
        if not internal and placement is not None:
            if placement.spilled:
                fixed[name] = -1  # sentinel: memory
            else:
                base = placement.reg_at(lo) or placement.pieces[0].base
                fixed[name] = base
                if base not in candidates[name]:
                    candidates[name] = candidates[name] + (base,)

    # Translate the memory sentinel for ChunkSpec.fixed semantics.
    spec_fixed = {}
    for name, base in fixed.items():
        spec_fixed[name] = base
    chg = {s: (s in changed) for s in range(lo, hi)}
    prefer = dict(prefs.tags) if prefs else {}
    old_spilled = dict(prefs.was_spilled) if prefs else {}
    return ChunkSpec(
        fn=fn,
        liveness=info,
        lo=lo,
        hi=hi,
        candidates=candidates,
        fixed=spec_fixed,
        prefer=prefer,
        chg=chg,
        freq=freqs,
        old_spilled=old_spilled,
        cnt=expected_runs,
        energy=energy,
    )


def _try_adopt(
    spec: ChunkSpec,
    record: AllocationRecord,
    internal: list[str],
    values: dict[str, int],
) -> bool:
    """Adopt the ILP assignment when every internal variable sits in one
    register throughout (see module docstring)."""
    new_bases: dict[str, int] = {}
    for name in internal:
        base = None
        for p in range(spec.hi - spec.lo + 1):
            if name not in spec.live_at_point(p):
                continue
            if values.get(_mem(name, p), 0):
                return False  # memory residence: keep greedy
            at_p = [
                r for r in spec.candidates[name] if values.get(_loc(name, p, r), 0)
            ]
            if len(at_p) != 1:
                continue
            if base is None:
                base = at_p[0]
            elif base != at_p[0]:
                return False  # moves within the chunk: keep greedy
        if base is None:
            # never live at a point (single-statement temp): keep its
            # greedy register
            continue
        new_bases[name] = base

    for name, base in new_bases.items():
        old_placement = record.placements[name]
        placement = Placement(vreg=name, size=old_placement.size)
        start = min(p.start for p in old_placement.pieces) if old_placement.pieces else spec.lo
        end = max(p.end for p in old_placement.pieces) if old_placement.pieces else spec.lo
        placement.add_piece(start, end, base)
        record.placements[name] = placement
    return True
