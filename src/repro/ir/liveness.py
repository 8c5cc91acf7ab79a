"""Liveness analysis and live intervals.

Provides the dataflow facts every register allocator in this repo
consumes:

* ``live_out``/``live_in`` sets per instruction (backward dataflow over
  the CFG),
* :class:`LiveInterval` — the linear-scan view ``[start, end]`` over
  instruction indices,
* per-instruction def/use/last-use classification — the exact notions
  (``def.a.s``, ``use.a.s``, ``lastUse.a.s``) the paper's ILP model in
  §3.3 builds its decision variables from.

:func:`analyze` solves the dataflow per basic block.  Each block is
summarised by its upward-exposed uses and its defs; the fixed point
``in(b) = use(b) | (out(b) - def(b))``, ``out(b) = U in(succ)`` runs
over blocks only, starting each ``in(b)`` at ``use(b)``.  Every start
lies below the least fixed point, which is unique, so the iteration
ends on it.  One backward sweep per block then fills the
per-instruction sets.  A name's interval is read off block boundaries
and its def/use positions: inside a block a name is live only between
the block's start (if live-in), its defs and uses, and the block's end
(if live-out).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import CFG, build_cfg
from .function import IRFunction
from .instructions import IROp, VReg

_CALL = IROp.CALL


@dataclass
class LiveInterval:
    """Linear live interval of one virtual register.

    ``start`` is the index of the first definition; ``end`` is the last
    instruction index at which the vreg is live (inclusive).
    """

    vreg: VReg
    start: int
    end: int
    #: True if the value is live across any CALL instruction (such vregs
    #: must sit in callee-saved registers under our calling convention).
    crosses_call: bool = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"LiveInterval({self.vreg.name}, [{self.start}, {self.end}])"


@dataclass
class LivenessInfo:
    """All liveness facts for one function."""

    function: IRFunction
    cfg: CFG
    live_in: list[set]
    live_out: list[set]
    intervals: dict[str, LiveInterval]

    def is_last_use(self, index: int, name: str) -> bool:
        """Is instruction ``index`` the last use of ``name`` (paper's
        ``lastUse.a.s``): the vreg is used here and dead afterwards?"""
        ins = self.function.instrs[index]
        if name not in {r.name for r in ins.uses()}:
            return False
        return name not in self.live_out[index]


def analyze(fn: IRFunction) -> LivenessInfo:
    """Run backward liveness over ``fn`` and derive live intervals.

    Adjacent per-instruction entries may share one set object (the
    live-out of an instruction is the live-in of the next one in its
    block); consumers treat the sets as read-only.
    """
    cfg = build_cfg(fn)
    instrs = fn.instrs
    blocks = cfg.blocks
    count = len(instrs)

    # One forward walk.  Per instruction: the defined name (or None) and
    # the used names.  Per block: its upward-exposed uses and its defs.
    # Per name: its first-appearing vreg (as in ``fn.vregs()``) and the
    # first and last index that defines or uses it; parameters count as
    # used at entry.
    def_name: list = [None] * count
    use_names: list = [()] * count
    vreg_by_name: dict[str, VReg] = {}
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for reg in fn.param_vregs:
        if reg.name not in first:
            vreg_by_name[reg.name] = reg
            first[reg.name] = last[reg.name] = 0
    calls: list[int] = []
    gen: list[set] = []
    kill: list[set] = []
    for block in blocks:
        exposed: set = set()
        defined: set = set()
        for idx in range(block.start, block.end):
            ins = instrs[idx]
            dst = ins.dst
            if dst is not None:
                dname = def_name[idx] = dst.name
                if dname not in first:
                    first[dname] = idx
                    vreg_by_name[dname] = dst
                last[dname] = idx
            used = []
            for arg in ins.args:
                if isinstance(arg, VReg):
                    name = arg.name
                    used.append(name)
                    if name not in first:
                        first[name] = idx
                        vreg_by_name[name] = arg
                    last[name] = idx
                    if name not in defined:
                        exposed.add(name)
            if used:
                use_names[idx] = used
            if dst is not None:
                defined.add(dname)
            if ins.op is _CALL:
                calls.append(idx)
        gen.append(exposed)
        kill.append(defined)

    # The fixed point over blocks.  A block's live-in is recomputed only
    # when its live-out changes, so each starts at its upward-exposed
    # uses: a block whose live-out never changes (an exit) is then right.
    block_in = [set(exposed) for exposed in gen]
    block_out: list[set] = [set() for _ in blocks]
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            b = block.index
            out: set = set()
            for succ in block.successors:
                out |= block_in[succ]
            if out != block_out[b]:
                block_out[b] = out
                new_in = gen[b] | (out - kill[b])
                if new_in != block_in[b]:
                    block_in[b] = new_in
                    changed = True

    # One backward sweep per block fills the per-instruction sets.
    live_in: list = [None] * count
    live_out: list = [None] * count
    for block in blocks:
        live = block_out[block.index]
        for idx in range(block.end - 1, block.start - 1, -1):
            live_out[idx] = live
            name = def_name[idx]
            used = use_names[idx]
            if name is not None or used:
                live = set(live)
                live.discard(name)
                live.update(used)
            live_in[idx] = live

    # Intervals.  Inside a block a name is live only between the block's
    # start (if live-in), its defs and uses, and the block's end (if
    # live-out), so block boundaries stretch the def/use extent.
    for block in blocks:
        start = block.start
        for name in block_in[block.index]:
            if first[name] > start:
                first[name] = start
        end = block.end - 1
        for name in block_out[block.index]:
            if last[name] < end:
                last[name] = end
    intervals: dict[str, LiveInterval] = {}
    for start, name in sorted((start, name) for name, start in first.items()):
        intervals[name] = LiveInterval(
            vreg=vreg_by_name[name], start=start, end=last[name]
        )
    # A value live both into and out of a CALL that the call does not
    # define must survive the call; live-in is use | (live-out - def),
    # so that is every live-out name but the call's own result.  The
    # call's own arguments do not need to survive it.
    for idx in calls:
        for name in live_out[idx]:
            if name != def_name[idx]:
                intervals[name].crosses_call = True

    return LivenessInfo(
        function=fn, cfg=cfg, live_in=live_in, live_out=live_out, intervals=intervals
    )


def interference_pairs(info: LivenessInfo) -> set[tuple[str, str]]:
    """All pairs of vreg names that are simultaneously live.

    The classic interference definition: ``a`` interferes with ``b`` if
    ``a`` is defined while ``b`` is live (or vice versa).  Used by the
    graph-coloring baseline allocator.
    """
    pairs: set[tuple[str, str]] = set()
    for idx, ins in enumerate(info.function.instrs):
        live = info.live_out[idx]
        for dreg in ins.defs():
            for other in live:
                if other != dreg.name:
                    pairs.add(_ordered(dreg.name, other))
        # MOV coalescing candidates are still interference-free; the
        # baseline allocator handles that separately.
    # Parameters interfere with each other (all live at entry).
    params = [r.name for r in info.function.param_vregs]
    for i, first in enumerate(params):
        for second in params[i + 1 :]:
            pairs.add(_ordered(first, second))
    return pairs


def _ordered(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)
