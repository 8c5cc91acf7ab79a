"""Machine-independent IR optimization passes.

The paper's pipeline (Figure 1) optimizes ``ir`` into ``IR`` before
update-conscious code generation; UCC itself then never reorders or
rewrites instructions.  Our passes honour the properties UCC depends
on: they are deterministic, they preserve each surviving instruction's
``stmt_id``/``stmt_text`` provenance, and identical input IR yields
identical output IR.

Passes:

* constant folding + algebraic simplification,
* block-local copy propagation,
* dead-code elimination (liveness based),
* unreachable-code removal.
"""

from __future__ import annotations

from ..ir.cfg import build_cfg, reachable_blocks
from ..ir.function import IRFunction, IRModule
from ..ir.instructions import (
    BINARY_OPS,
    IRInstr,
    IROp,
    Imm,
    VReg,
)
from ..ir.liveness import analyze
from ..lang.sema import _eval_binop

#: IR ops with side effects or control relevance — never deleted.
_SIDE_EFFECTS = frozenset(
    {
        IROp.STOREG,
        IROp.STOREIDX,
        IROp.CALL,
        IROp.RET,
        IROp.JUMP,
        IROp.CBR,
        IROp.LABEL,
        IROp.IOREAD,  # reading the timer/adc port changes device state
        IROp.IOWRITE,
        IROp.HALT,
    }
)

_FOLDABLE = {
    IROp.ADD: "+",
    IROp.SUB: "-",
    IROp.MUL: "*",
    IROp.DIV: "/",
    IROp.MOD: "%",
    IROp.AND: "&",
    IROp.OR: "|",
    IROp.XOR: "^",
    IROp.SHL: "<<",
    IROp.SHR: ">>",
    IROp.CMPEQ: "==",
    IROp.CMPNE: "!=",
    IROp.CMPLT: "<",
    IROp.CMPLE: "<=",
    IROp.CMPGT: ">",
    IROp.CMPGE: ">=",
}


def fold_constants(fn: IRFunction) -> bool:
    """Fold ops whose operands are immediates; simplify identities."""
    changed = False
    for index, ins in enumerate(fn.instrs):
        if ins.op in _FOLDABLE and all(isinstance(a, Imm) for a in ins.args):
            left, right = ins.args
            mask = ins.dst.ctype.max_value if ins.dst else 0xFF
            try:
                value = _eval_binop(_FOLDABLE[ins.op], left.value, right.value, mask)
            except ZeroDivisionError:
                continue  # leave the fault to run time
            fn.instrs[index] = _replace(ins, IROp.MOV, (Imm(value & mask, ins.dst.ctype),))
            changed = True
            continue
        if ins.op in BINARY_OPS and len(ins.args) == 2:
            simplified = _algebraic(ins)
            if simplified is not None:
                fn.instrs[index] = simplified
                changed = True
        if ins.op is IROp.NEG and isinstance(ins.args[0], Imm):
            mask = ins.dst.ctype.max_value
            value = (-ins.args[0].value) & mask
            fn.instrs[index] = _replace(ins, IROp.MOV, (Imm(value, ins.dst.ctype),))
            changed = True
        if ins.op is IROp.NOT and isinstance(ins.args[0], Imm):
            mask = ins.dst.ctype.max_value
            value = (~ins.args[0].value) & mask
            fn.instrs[index] = _replace(ins, IROp.MOV, (Imm(value, ins.dst.ctype),))
            changed = True
    return changed


def _algebraic(ins: IRInstr) -> IRInstr | None:
    """x+0, x-0, x*1, x&x, x|0, x^0, x<<0 ... -> mov."""
    left, right = ins.args
    op = ins.op

    def mov(src) -> IRInstr:
        return _replace(ins, IROp.MOV, (src,))

    if isinstance(right, Imm):
        if right.value == 0 and op in (IROp.ADD, IROp.SUB, IROp.OR, IROp.XOR, IROp.SHL, IROp.SHR):
            return mov(left)
        if right.value == 1 and op in (IROp.MUL, IROp.DIV):
            return mov(left)
        if right.value == 0 and op in (IROp.AND, IROp.MUL):
            return mov(Imm(0, ins.dst.ctype))
    if isinstance(left, Imm) and left.value == 0:
        if op in (IROp.ADD, IROp.OR, IROp.XOR):
            return mov(right)
        if op in (IROp.MUL, IROp.AND):
            return mov(Imm(0, ins.dst.ctype))
    return None


def _replace(ins: IRInstr, op: IROp, args: tuple) -> IRInstr:
    return IRInstr(
        op=op,
        dst=ins.dst,
        args=args,
        stmt_id=ins.stmt_id,
        stmt_text=ins.stmt_text,
        freq=ins.freq,
    )


def propagate_copies(fn: IRFunction) -> bool:
    """Block-local copy/constant propagation.

    After ``x = mov y`` (or an immediate), uses of ``x`` within the
    same basic block are replaced by ``y`` until either is redefined.
    Only temporaries are rewritten — named variables keep their
    identity so the update matcher sees stable operands.
    """
    cfg = build_cfg(fn)
    changed = False
    for block in cfg.blocks:
        env: dict[str, object] = {}
        for index in block.instruction_indices():
            ins = fn.instrs[index]
            if ins.op is IROp.CALL:
                env.clear()  # conservative across calls
            new_args = []
            replaced = False
            for arg in ins.args:
                if isinstance(arg, VReg) and arg.name in env:
                    new_args.append(env[arg.name])
                    replaced = True
                else:
                    new_args.append(arg)
            if replaced:
                fn.instrs[index] = _replace(ins, ins.op, tuple(new_args))
                ins = fn.instrs[index]
                changed = True
            # Kill mappings that mention the redefined vreg.
            if ins.dst is not None:
                dead = ins.dst.name
                env.pop(dead, None)
                for key in [k for k, v in env.items() if isinstance(v, VReg) and v.name == dead]:
                    env.pop(key)
                if (
                    ins.op is IROp.MOV
                    and ins.dst.is_temp
                    and isinstance(ins.args[0], (VReg, Imm))
                ):
                    src = ins.args[0]
                    if not (isinstance(src, VReg) and src.ctype != ins.dst.ctype):
                        env[ins.dst.name] = src
    return changed


def eliminate_dead_code(fn: IRFunction) -> bool:
    """Remove side-effect-free defs whose value is never used."""
    info = analyze(fn)
    keep: list[IRInstr] = []
    changed = False
    for index, ins in enumerate(fn.instrs):
        if (
            ins.dst is not None
            and ins.op not in _SIDE_EFFECTS
            and ins.dst.name not in info.live_out[index]
        ):
            changed = True
            continue
        keep.append(ins)
    if changed:
        fn.instrs[:] = keep
    return changed


def remove_unreachable(fn: IRFunction) -> bool:
    """Drop blocks unreachable from the entry (keeps labels addressable)."""
    cfg = build_cfg(fn)
    reachable = reachable_blocks(cfg)
    if len(reachable) == len(cfg.blocks):
        return False
    keep: list[IRInstr] = []
    for block in cfg.blocks:
        if block.index in reachable:
            keep.extend(fn.instrs[block.start : block.end])
        else:
            # Preserve label markers: other code may still name them
            # (e.g. a CBR arm the folder will clean up later).
            for ins in fn.instrs[block.start : block.end]:
                if ins.op is IROp.LABEL:
                    keep.append(ins)
    fn.instrs[:] = keep
    return True


#: Cap on pipeline rounds per function; each round runs every pass once.
MAX_ROUNDS = 8


def optimize_function(fn: IRFunction) -> int:
    """Run the pass pipeline to a fixed point; returns rounds used."""
    from .cse import eliminate_common_subexpressions

    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        changed = False
        changed |= fold_constants(fn)
        changed |= eliminate_common_subexpressions(fn)
        changed |= propagate_copies(fn)
        changed |= eliminate_dead_code(fn)
        changed |= remove_unreachable(fn)
        if not changed:
            break
    return rounds


def optimize_module(module: IRModule) -> None:
    """Optimize every function of a module in place."""
    for fn in module.functions.values():
        optimize_function(fn)
