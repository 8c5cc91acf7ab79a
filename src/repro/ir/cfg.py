"""Control-flow graph over linear IR.

Basic blocks are index ranges into the function's instruction list.
The CFG is consumed by liveness analysis, the optimizer (jump threading,
unreachable-code removal), and the loop-depth estimator that seeds
``freq(s)`` when no dynamic profile is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .function import IRFunction
from .instructions import IROp


@dataclass
class BasicBlock:
    """A maximal straight-line region ``instrs[start:end]``."""

    index: int
    start: int
    end: int  # exclusive
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def instruction_indices(self) -> range:
        return range(self.start, self.end)


@dataclass
class CFG:
    """The control-flow graph of one IR function."""

    function: IRFunction
    blocks: list[BasicBlock] = field(default_factory=list)
    #: instruction index -> block index
    block_of: dict[int, int] = field(default_factory=dict)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]


_JUMP, _CBR, _RET, _HALT, _LABEL = IROp.JUMP, IROp.CBR, IROp.RET, IROp.HALT, IROp.LABEL


def build_cfg(fn: IRFunction) -> CFG:
    """Split ``fn`` into basic blocks and connect the edges.

    One pass over the instructions finds the block leaders (index 0,
    every label, every instruction after a terminator) and the label
    positions.  Opcodes are compared by identity, which keeps enum
    hashing out of the per-instruction loop.
    """
    instrs = fn.instrs
    leaders: list[int] = []
    label_index: dict[str, int] = {}
    after_terminator = True  # index 0 leads
    for idx, ins in enumerate(instrs):
        op = ins.op
        if op is _LABEL:
            label_index[ins.args[0].name] = idx
            leaders.append(idx)
        elif after_terminator:
            leaders.append(idx)
        after_terminator = op is _JUMP or op is _CBR or op is _RET or op is _HALT

    cfg = CFG(function=fn)
    blocks = cfg.blocks
    block_of = cfg.block_of
    for block_index, (start, end) in enumerate(
        zip(leaders, leaders[1:] + [len(instrs)])
    ):
        blocks.append(BasicBlock(index=block_index, start=start, end=end))
        block_of.update(dict.fromkeys(range(start, end), block_index))

    for block in blocks:
        last = instrs[block.end - 1]
        op = last.op
        if op is _JUMP:
            succs = [block_of[label_index[last.args[0].name]]]
        elif op is _CBR:
            succs = [block_of[label_index[a.name]] for a in last.args[1:]]
        elif op is _RET or op is _HALT or block.index + 1 == len(blocks):
            succs = []
        else:
            succs = [block.index + 1]
        block.successors = succs
        for succ in succs:
            blocks[succ].predecessors.append(block.index)
    return cfg


def reachable_blocks(cfg: CFG) -> set[int]:
    """Blocks reachable from the entry."""
    if not cfg.blocks:
        return set()
    seen = {0}
    stack = [0]
    while stack:
        block = cfg.blocks[stack.pop()]
        for succ in block.successors:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def loop_depths(cfg: CFG) -> dict[int, int]:
    """Approximate loop nesting depth per block.

    A back edge is an edge to a block with a smaller start index (our
    lowering emits loop headers before bodies, so this identifies the
    natural loops the front end produces).  Used to seed static
    execution-frequency estimates (``freq(s)`` in the paper's objective)
    when no dynamic profile is supplied.
    """
    depths = {block.index: 0 for block in cfg.blocks}
    # Collect loop ranges [header_block, latch_block] from back edges.
    loops = []
    for block in cfg.blocks:
        for succ in block.successors:
            if succ <= block.index:
                loops.append((succ, block.index))
    for header, latch in loops:
        for idx in range(header, latch + 1):
            depths[idx] += 1
    return depths


def static_frequencies(fn: IRFunction, loop_weight: float = 10.0) -> dict[int, float]:
    """Static per-instruction execution frequency estimate.

    Each loop nesting level multiplies the base frequency by
    ``loop_weight``, the classic compiler heuristic.  Keys are
    instruction indices.
    """
    cfg = build_cfg(fn)
    depths = loop_depths(cfg)
    freqs: dict[int, float] = {}
    for block in cfg.blocks:
        weight = loop_weight ** depths[block.index]
        for idx in block.instruction_indices():
            freqs[idx] = weight
    return freqs
