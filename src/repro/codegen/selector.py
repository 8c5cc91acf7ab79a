"""Instruction selection: IR + allocation record + data layout → machine code.

The selector is deliberately *deterministic and local*: each IR
instruction lowers to a fixed machine pattern given (a) the physical
registers the allocation record assigns its operands at that IR index
and (b) the addresses the data layout assigns the memory objects it
touches.  Consequently an IR instruction whose allocation decisions and
addresses are unchanged between two compiles produces byte-identical
machine code — the property every UCC measurement rests on.

Conventions (see :mod:`repro.isa.registers`):

* ``r1`` is kept zero (cleared in the prologue);
* spilled values and immediates pass through the reserved scratch set;
* arguments are stored into the callee's static frame slots before
  ``CALL``; return values travel in ``r24``/``r24:r25``;
* callee-saved registers the function writes are pushed/popped.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalayout.layout import DataLayout, spill_uid
from ..ir.function import IRFunction, IRModule
from ..ir.instructions import COMPARISONS, IRInstr, IROp, Imm, MemRef, VReg
from ..isa import devices
from ..isa import registers as regs
from ..isa.instructions import MachineInstr, label as mk_label
from ..lang.errors import CompileError
from ..regalloc.base import AllocationRecord
from .scratch import ScratchPool


class SelectionError(CompileError):
    """Raised when the selector cannot lower an instruction."""


_COMMUTATIVE = {IROp.ADD, IROp.AND, IROp.OR, IROp.XOR, IROp.MUL}

#: IR op -> u8 machine mnemonic (register-register form)
_RR_MNEMONIC = {
    IROp.ADD: "add",
    IROp.SUB: "sub",
    IROp.AND: "and",
    IROp.OR: "or",
    IROp.XOR: "eor",
    IROp.MUL: "mul",
    IROp.DIV: "div",
    IROp.MOD: "mod",
}

#: IR op -> immediate mnemonic where one exists
_IMM_MNEMONIC = {
    IROp.SUB: "subi",
    IROp.AND: "andi",
    IROp.OR: "ori",
    IROp.XOR: "eori",
}

#: comparison -> (branch-if-true, swap_operands)
_CMP_BRANCH = {
    IROp.CMPEQ: ("breq", False),
    IROp.CMPNE: ("brne", False),
    IROp.CMPLT: ("brlo", False),
    IROp.CMPGE: ("brsh", False),
    IROp.CMPGT: ("brlo", True),  # a > b  ==  b < a
    IROp.CMPLE: ("brsh", True),  # a <= b ==  b >= a
}


@dataclass
class _Value:
    """A materialised operand: physical base register + size + whether
    the base came from the scratch pool (so it can be released)."""

    base: int
    size: int
    scratch: bool = False


class FunctionSelector:
    """Lowers one IR function to machine instructions."""

    def __init__(
        self,
        fn: IRFunction,
        record: AllocationRecord,
        layout: DataLayout,
        module: IRModule,
    ):
        self.fn = fn
        self.record = record
        self.layout = layout
        self.module = module
        self.out: list[MachineInstr] = []
        self.pool = ScratchPool()
        self.index = -1
        self._gen_labels = 0
        self._fused: dict[int, int] = {}  # cmp index -> cbr index

    # -- small helpers -----------------------------------------------------

    def emit(self, mnemonic: str, **fields) -> MachineInstr:
        # ``comment`` carries the owning function name so execution
        # profiles can be attributed back to (function, IR index).
        instr = MachineInstr(
            mnemonic=mnemonic, ir_index=self.index, comment=self.fn.name, **fields
        )
        self.out.append(instr)
        return instr

    def local_label(self, name: str) -> str:
        return f"{self.fn.name}.{name}"

    def gen_label(self) -> str:
        self._gen_labels += 1
        return f"{self.fn.name}.__g{self.index}_{self._gen_labels}"

    def addr_of(self, uid: str) -> int:
        try:
            return self.layout.address_of(uid)
        except KeyError:
            raise SelectionError(f"no address for data object {uid!r}") from None

    def spill_addr(self, vreg_name: str) -> int:
        return self.addr_of(spill_uid(self.fn.name, vreg_name))

    def reg_of(self, name: str) -> int | None:
        placement = self.record.placements.get(name)
        if placement is None or placement.spilled:
            return None
        base = placement.reg_at(self.index)
        if base is None and not placement.spilled:
            # Live-range piece gap should not happen at a real occurrence.
            raise SelectionError(
                f"{self.fn.name}: vreg {name} has no register at IR {self.index}"
            )
        return base

    # -- operand materialisation ------------------------------------------------

    def load_value(self, operand) -> _Value:
        """Bring an operand into registers (placed reg, or scratch)."""
        if isinstance(operand, Imm):
            size = operand.ctype.element_size
            base = self.pool.take(size)
            self.emit("ldi", rd=base, imm=operand.value & 0xFF)
            if size == 2:
                self.emit("ldi", rd=base + 1, imm=(operand.value >> 8) & 0xFF)
            return _Value(base, size, scratch=True)
        if isinstance(operand, VReg):
            base = self.reg_of(operand.name)
            if base is not None:
                return _Value(base, operand.size)
            # Spilled: load from the frame slot.
            addr = self.spill_addr(operand.name)
            scratch = self.pool.take(operand.size)
            self.emit("lds", rd=scratch, addr=addr)
            if operand.size == 2:
                self.emit("lds", rd=scratch + 1, addr=addr + 1)
            return _Value(scratch, operand.size, scratch=True)
        raise SelectionError(f"cannot materialise operand {operand!r}")

    def release(self, value: _Value) -> None:
        if value.scratch:
            self.pool.release(value.base, value.size)

    def dest(self, dst: VReg) -> tuple[_Value, int | None]:
        """Target registers for a definition; returns (value, writeback
        address or None)."""
        base = self.reg_of(dst.name)
        if base is not None:
            return _Value(base, dst.size), None
        addr = self.spill_addr(dst.name)
        scratch = self.pool.take(dst.size)
        return _Value(scratch, dst.size, scratch=True), addr

    def writeback(self, value: _Value, addr: int | None) -> None:
        if addr is None:
            return
        self.emit("sts", rd=value.base, addr=addr)
        if value.size == 2:
            self.emit("sts", rd=value.base + 1, addr=addr + 1)
        self.release(value)

    def move_regs(self, dst: int, src: int, size: int) -> None:
        if dst == src:
            return
        if size == 2:
            self.emit("movw", rd=dst, rr=src)
        else:
            self.emit("mov", rd=dst, rr=src)

    def load_imm_into(self, base: int, size: int, imm: int) -> None:
        self.emit("ldi", rd=base, imm=imm & 0xFF)
        if size == 2:
            self.emit("ldi", rd=base + 1, imm=(imm >> 8) & 0xFF)

    # -- driver ---------------------------------------------------------------

    def select(self) -> list[MachineInstr]:
        self._find_fusions()
        self.out.append(mk_label(self.fn.name))
        self._prologue_marker = len(self.out)
        self.index = -1
        self.emit("clr", rd=regs.ZERO)
        self._load_params()

        for index, ins in enumerate(self.fn.instrs):
            self.index = index
            self.pool.reset()
            for move in self.record.moves_before(index):
                self.move_regs(move.dst, move.src, move.size)
            self._select_instr(index, ins)

        machine = self.out
        self._insert_saves(machine)
        return machine

    def _load_params(self) -> None:
        for reg in self.fn.param_vregs:
            placement = self.record.placements.get(reg.name)
            if placement is None or placement.spilled or not placement.pieces:
                continue  # spilled param lives in its slot
            base = placement.pieces[0].base
            addr = self.addr_of(reg.name)
            self.emit("lds", rd=base, addr=addr)
            if reg.size == 2:
                self.emit("lds", rd=base + 1, addr=addr + 1)

    def _callee_saved_used(self) -> list[int]:
        used: set[int] = set()
        for placement in self.record.placements.values():
            for piece in placement.pieces:
                used.update(regs.registers_of(piece.base, placement.size))
        for move in self.record.moves:
            used.update(regs.registers_of(move.dst, move.size))
        return sorted(u for u in used if u in regs.CALLEE_SAVED)

    def _insert_saves(self, machine: list[MachineInstr]) -> None:
        """Push/pop used callee-saved registers (prologue + each RET)."""
        saved = self._callee_saved_used()
        if not saved:
            return
        name = self.fn.name
        pushes = [
            MachineInstr("push", rd=r, ir_index=-1, comment=name) for r in saved
        ]
        pops = [
            MachineInstr("pop", rd=r, ir_index=-1, comment=name)
            for r in reversed(saved)
        ]
        rebuilt: list[MachineInstr] = []
        for pos, instr in enumerate(machine):
            if pos == self._prologue_marker:
                rebuilt.extend(pushes)
            if instr.mnemonic == "ret":
                rebuilt.extend(
                    MachineInstr(
                        "pop", rd=p.rd, ir_index=instr.ir_index, comment=name
                    )
                    for p in pops
                )
            rebuilt.append(instr)
        machine[:] = rebuilt

    # -- fusion pre-pass -----------------------------------------------------------

    def _find_fusions(self) -> None:
        """Fuse ``t = cmp...; cbr t`` pairs into compare-and-branch."""
        instrs = self.fn.instrs
        for index in range(len(instrs) - 1):
            first, second = instrs[index], instrs[index + 1]
            if (
                first.op in COMPARISONS
                and second.op is IROp.CBR
                and isinstance(second.args[0], VReg)
                and first.dst is not None
                and second.args[0].name == first.dst.name
                and first.dst.is_temp
                and not self._used_elsewhere(first.dst.name, index, index + 1)
                # A boundary move at the CBR could clobber a register the
                # deferred compare still reads — don't fuse across moves.
                and not self.record.moves_before(index + 1)
            ):
                self._fused[index] = index + 1

    def _used_elsewhere(self, name: str, def_index: int, use_index: int) -> bool:
        for idx, ins in enumerate(self.fn.instrs):
            if idx in (def_index, use_index):
                continue
            if any(r.name == name for r in ins.vregs()):
                return True
        return False

    # -- instruction dispatch --------------------------------------------------------

    def _select_instr(self, index: int, ins: IRInstr) -> None:
        op = ins.op
        if op is IROp.LABEL:
            self.out.append(mk_label(self.local_label(ins.label_name)))
            return
        if index in self._fused:
            return  # emitted by the CBR
        if op is IROp.MOV:
            self._sel_mov(ins)
        elif op in _RR_MNEMONIC or op in (IROp.SHL, IROp.SHR):
            self._sel_binary(ins)
        elif op in (IROp.NEG, IROp.NOT):
            self._sel_unary(ins)
        elif op is IROp.CAST:
            self._sel_cast(ins)
        elif op in COMPARISONS:
            self._sel_compare_value(ins)
        elif op is IROp.LOADG:
            self._sel_loadg(ins)
        elif op is IROp.STOREG:
            self._sel_storeg(ins)
        elif op is IROp.LOADIDX:
            self._sel_loadidx(ins)
        elif op is IROp.STOREIDX:
            self._sel_storeidx(ins)
        elif op is IROp.JUMP:
            self._sel_jump(ins)
        elif op is IROp.CBR:
            self._sel_cbr(ins)
        elif op is IROp.CALL:
            self._sel_call(ins)
        elif op is IROp.RET:
            self._sel_ret(ins)
        elif op is IROp.IOREAD:
            self._sel_ioread(ins)
        elif op is IROp.IOWRITE:
            self._sel_iowrite(ins)
        elif op is IROp.HALT:
            self.emit("halt")
        else:  # pragma: no cover
            raise SelectionError(f"cannot select {ins}")

    # -- moves / casts -----------------------------------------------------------------

    def _sel_mov(self, ins: IRInstr) -> None:
        dst, writeback = self.dest(ins.dst)
        src = ins.args[0]
        if isinstance(src, Imm):
            self.load_imm_into(dst.base, dst.size, src.value)
        else:
            value = self.load_value(src)
            self.move_regs(dst.base, value.base, dst.size)
            self.release(value)
        self.writeback(dst, writeback)

    def _sel_cast(self, ins: IRInstr) -> None:
        dst, writeback = self.dest(ins.dst)
        value = self.load_value(ins.args[0])
        if dst.size == 2 and value.size == 1:
            self.emit("mov", rd=dst.base, rr=value.base)
            self.emit("clr", rd=dst.base + 1)
        else:  # narrowing or same width: take the low byte(s)
            self.emit("mov", rd=dst.base, rr=value.base)
            if dst.size == 2:
                self.emit("mov", rd=dst.base + 1, rr=value.base + 1)
        self.release(value)
        self.writeback(dst, writeback)

    def _sel_unary(self, ins: IRInstr) -> None:
        dst, writeback = self.dest(ins.dst)
        value = self.load_value(ins.args[0])
        self.move_regs(dst.base, value.base, dst.size)
        self.release(value)
        if ins.op is IROp.NOT:
            self.emit("com", rd=dst.base)
            if dst.size == 2:
                self.emit("com", rd=dst.base + 1)
        else:  # NEG: two's complement
            if dst.size == 1:
                self.emit("neg", rd=dst.base)
            else:
                self.emit("com", rd=dst.base)
                self.emit("com", rd=dst.base + 1)
                self.emit("subi", rd=dst.base, imm=0xFF)  # += 1
                self.emit("sbci", rd=dst.base + 1, imm=0xFF)  # += carry
        self.writeback(dst, writeback)

    # -- ALU -------------------------------------------------------------------------------

    def _sel_binary(self, ins: IRInstr) -> None:
        if ins.op in (IROp.SHL, IROp.SHR):
            self._sel_shift(ins)
            return
        dst, writeback = self.dest(ins.dst)
        a, b = ins.args

        # Immediate forms: dst == a (after move) and an imm mnemonic exists.
        if isinstance(b, Imm) and dst.size == 1 and ins.op in _IMM_MNEMONIC:
            value_a = self.load_value(a)
            self.move_regs(dst.base, value_a.base, 1)
            self.release(value_a)
            self.emit(_IMM_MNEMONIC[ins.op], rd=dst.base, imm=b.value & 0xFF)
            self.writeback(dst, writeback)
            return
        if isinstance(b, Imm) and dst.size == 1 and ins.op is IROp.ADD:
            value_a = self.load_value(a)
            self.move_regs(dst.base, value_a.base, 1)
            self.release(value_a)
            # AVR has no ADDI: add is SUBI with the negated immediate.
            self.emit("subi", rd=dst.base, imm=(-b.value) & 0xFF)
            self.writeback(dst, writeback)
            return
        if isinstance(b, Imm) and dst.size == 2 and ins.op in (IROp.ADD, IROp.SUB):
            value_a = self.load_value(a)
            self.move_regs(dst.base, value_a.base, 2)
            self.release(value_a)
            imm = b.value if ins.op is IROp.SUB else -b.value
            self.emit("subi", rd=dst.base, imm=imm & 0xFF)
            self.emit("sbci", rd=dst.base + 1, imm=(imm >> 8) & 0xFF)
            self.writeback(dst, writeback)
            return

        value_a = self.load_value(a)
        value_b = self.load_value(b)
        self._binary_regs(ins.op, dst, value_a, value_b)
        self.release(value_a)
        self.release(value_b)
        self.writeback(dst, writeback)

    def _binary_regs(self, op: IROp, dst: _Value, a: _Value, b: _Value) -> None:
        """dst = a <op> b, all in registers, two-address safe."""
        overlap_b = set(range(dst.base, dst.base + dst.size)) & set(
            range(b.base, b.base + b.size)
        )
        if overlap_b and dst.base != a.base:
            if op in _COMMUTATIVE:
                a, b = b, a
            else:
                # Save b before dst is overwritten by a.
                saved = self.pool.take(b.size)
                self.move_regs(saved, b.base, b.size)
                b = _Value(saved, b.size, scratch=True)
        self.move_regs(dst.base, a.base, dst.size)
        if dst.size == 1:
            self.emit(_RR_MNEMONIC[op], rd=dst.base, rr=b.base)
            return
        if op is IROp.ADD:
            self.emit("add", rd=dst.base, rr=b.base)
            self.emit("adc", rd=dst.base + 1, rr=b.base + 1)
        elif op is IROp.SUB:
            self.emit("sub", rd=dst.base, rr=b.base)
            self.emit("sbc", rd=dst.base + 1, rr=b.base + 1)
        elif op in (IROp.AND, IROp.OR, IROp.XOR):
            mnem = _RR_MNEMONIC[op]
            self.emit(mnem, rd=dst.base, rr=b.base)
            self.emit(mnem, rd=dst.base + 1, rr=b.base + 1)
        elif op in (IROp.MUL, IROp.DIV, IROp.MOD):
            # 16-bit pseudo ops standing in for the libgcc helpers.
            mnem = {"mul": "mul16", "div": "div16", "mod": "mod16"}[
                _RR_MNEMONIC[op]
            ]
            self.emit(mnem, rd=dst.base, rr=b.base)
        else:  # pragma: no cover
            raise SelectionError(f"no 16-bit lowering for {op}")

    def _sel_shift(self, ins: IRInstr) -> None:
        dst, writeback = self.dest(ins.dst)
        a, b = ins.args

        # Capture a run-time shift count *before* dst is written: the
        # allocator may legally give the (dying) count and the defined
        # destination the same register.
        counter = None
        if not isinstance(b, Imm):
            count = self.load_value(b)
            counter = self.pool.take(1)
            self.emit("mov", rd=counter, rr=count.base)
            self.release(count)

        value_a = self.load_value(a)
        self.move_regs(dst.base, value_a.base, dst.size)
        self.release(value_a)

        def emit_one() -> None:
            if ins.op is IROp.SHL:
                self.emit("lsl", rd=dst.base)
                if dst.size == 2:
                    self.emit("rol", rd=dst.base + 1)
            else:
                if dst.size == 2:
                    self.emit("lsr", rd=dst.base + 1)
                    self.emit("ror", rd=dst.base)
                else:
                    self.emit("lsr", rd=dst.base)

        if isinstance(b, Imm):
            for _ in range(min(b.value, 8 * dst.size)):
                emit_one()
        else:
            loop = self.gen_label()
            done = self.gen_label()
            self.out.append(mk_label(loop))
            self.emit("cp", rd=counter, rr=regs.ZERO)
            self.emit("breq", target=done)
            emit_one()
            self.emit("dec", rd=counter)
            self.emit("rjmp", target=loop)
            self.out.append(mk_label(done))
            self.pool.release(counter, 1)
        self.writeback(dst, writeback)

    # -- comparisons -----------------------------------------------------------------------

    def _emit_compare(self, op: IROp, a, b) -> str:
        """Emit CP/CPI/CPC for ``a <op> b``; returns branch-if-true mnemonic."""
        branch, swap = _CMP_BRANCH[op]
        if swap:
            a, b = b, a
        value_a = self.load_value(a)
        if isinstance(b, Imm) and value_a.size == 1:
            self.emit("cpi", rd=value_a.base, imm=b.value & 0xFF)
        else:
            value_b = self.load_value(b)
            self.emit("cp", rd=value_a.base, rr=value_b.base)
            if value_a.size == 2:
                self.emit("cpc", rd=value_a.base + 1, rr=value_b.base + 1)
            self.release(value_b)
        self.release(value_a)
        return branch

    def _sel_compare_value(self, ins: IRInstr) -> None:
        dst, writeback = self.dest(ins.dst)
        # Compute into a register not aliased by the operands.
        operand_units: set[int] = set()
        for arg in ins.args:
            if isinstance(arg, VReg):
                base = self.reg_of(arg.name)
                if base is not None:
                    operand_units.update(range(base, base + arg.size))
        target = dst.base
        temp = None
        if target in operand_units:
            temp = self.pool.take(1)
            target = temp
        true_label = self.gen_label()
        self.emit("ldi", rd=target, imm=1)
        branch = self._emit_compare(ins.op, *ins.args)
        self.emit(branch, target=true_label)
        self.emit("clr", rd=target)
        self.out.append(mk_label(true_label))
        if temp is not None:
            self.emit("mov", rd=dst.base, rr=temp)
            self.pool.release(temp, 1)
        self.writeback(dst, writeback)

    # -- control flow -------------------------------------------------------------------------

    def _next_label_is(self, index: int, label_name: str) -> bool:
        nxt = index + 1
        instrs = self.fn.instrs
        while nxt < len(instrs) and instrs[nxt].op is IROp.LABEL:
            if instrs[nxt].label_name == label_name:
                return True
            nxt += 1
        return False

    def _sel_jump(self, ins: IRInstr) -> None:
        target = ins.args[0].name
        if self._next_label_is(self.index, target):
            return
        self.emit("rjmp", target=self.local_label(target))

    def _sel_cbr(self, ins: IRInstr) -> None:
        cond, true_label, false_label = ins.args
        fused_cmp = None
        fused_index = -1
        for cmp_index, cbr_index in self._fused.items():
            if cbr_index == self.index:
                fused_cmp = self.fn.instrs[cmp_index]
                fused_index = cmp_index
                break
        if fused_cmp is not None:
            # Evaluate operand registers at the compare's own IR index:
            # its operands may die there.  (A boundary move between the
            # two indices only *copies* the value, so the source
            # register still holds it, and moves do not touch flags.)
            cbr_index = self.index
            self.index = fused_index
            branch = self._emit_compare(fused_cmp.op, *fused_cmp.args)
            self.index = cbr_index
        else:
            value = self.load_value(cond)
            self.emit("cp", rd=value.base, rr=regs.ZERO)
            if value.size == 2:
                self.emit("cpc", rd=value.base + 1, rr=regs.ZERO)
            self.release(value)
            branch = "brne"
        self.emit(branch, target=self.local_label(true_label.name))
        if not self._next_label_is(self.index, false_label.name):
            self.emit("rjmp", target=self.local_label(false_label.name))

    def _sel_call(self, ins: IRInstr) -> None:
        callee_name = ins.args[0]
        args = ins.args[1:]
        callee = self.module.functions[callee_name]
        if len(args) != len(callee.param_vregs):
            raise SelectionError(
                f"call to {callee_name} with {len(args)} args, "
                f"expected {len(callee.param_vregs)}"
            )
        for arg, param in zip(args, callee.param_vregs):
            addr = self.addr_of(param.name)
            value = self.load_value(arg)
            self.emit("sts", rd=value.base, addr=addr)
            if param.size == 2:
                if value.size == 2:
                    self.emit("sts", rd=value.base + 1, addr=addr + 1)
                else:
                    self.emit("sts", rd=regs.ZERO, addr=addr + 1)
            self.release(value)
        self.emit("call", target=callee_name)
        if ins.dst is not None:
            dst, writeback = self.dest(ins.dst)
            self.move_regs(dst.base, regs.RET_LO, dst.size)
            self.writeback(dst, writeback)

    def _sel_ret(self, ins: IRInstr) -> None:
        if ins.args:
            value_op = ins.args[0]
            if isinstance(value_op, Imm):
                size = self.fn.return_type.element_size
                self.load_imm_into(regs.RET_LO, size, value_op.value)
            else:
                value = self.load_value(value_op)
                self.move_regs(regs.RET_LO, value.base, value.size)
                self.release(value)
        self.emit("ret")

    # -- memory ------------------------------------------------------------------------------------

    def _sel_loadg(self, ins: IRInstr) -> None:
        ref: MemRef = ins.args[0]
        addr = self.addr_of(ref.symbol)
        dst, writeback = self.dest(ins.dst)
        self.emit("lds", rd=dst.base, addr=addr)
        if dst.size == 2:
            self.emit("lds", rd=dst.base + 1, addr=addr + 1)
        self.writeback(dst, writeback)

    def _sel_storeg(self, ins: IRInstr) -> None:
        ref: MemRef = ins.args[0]
        addr = self.addr_of(ref.symbol)
        value = self.load_value(ins.args[1])
        self.emit("sts", rd=value.base, addr=addr)
        if ref.ctype.element_size == 2:
            if value.size == 2:
                self.emit("sts", rd=value.base + 1, addr=addr + 1)
            else:
                self.emit("sts", rd=regs.ZERO, addr=addr + 1)
        self.release(value)

    def _form_z(self, ref: MemRef, index_op) -> None:
        """Z := &ref[index] for a run-time index."""
        base_addr = self.addr_of(ref.symbol)
        element = ref.ctype.element_size
        self.emit("ldi", rd=regs.Z_LO, imm=base_addr & 0xFF)
        self.emit("ldi", rd=regs.Z_HI, imm=(base_addr >> 8) & 0xFF)
        value = self.load_value(index_op)
        hi = value.base + 1 if value.size == 2 else regs.ZERO
        for _ in range(element):  # add the index once per element byte
            self.emit("add", rd=regs.Z_LO, rr=value.base)
            self.emit("adc", rd=regs.Z_HI, rr=hi)
        self.release(value)

    def _sel_loadidx(self, ins: IRInstr) -> None:
        ref, index_op = ins.args
        element = ref.ctype.element_size
        dst, writeback = self.dest(ins.dst)
        if isinstance(index_op, Imm):
            addr = self.addr_of(ref.symbol) + index_op.value * element
            self.emit("lds", rd=dst.base, addr=addr)
            if element == 2:
                self.emit("lds", rd=dst.base + 1, addr=addr + 1)
        else:
            self._form_z(ref, index_op)
            if element == 2:
                self.emit("ld_zp", rd=dst.base)  # post-increment (PIA mode)
                self.emit("ld_z", rd=dst.base + 1)
            else:
                self.emit("ld_z", rd=dst.base)
        self.writeback(dst, writeback)

    def _sel_storeidx(self, ins: IRInstr) -> None:
        ref, index_op, value_op = ins.args
        element = ref.ctype.element_size
        if isinstance(index_op, Imm):
            addr = self.addr_of(ref.symbol) + index_op.value * element
            value = self.load_value(value_op)
            self.emit("sts", rd=value.base, addr=addr)
            if element == 2:
                src_hi = value.base + 1 if value.size == 2 else regs.ZERO
                self.emit("sts", rd=src_hi, addr=addr + 1)
            self.release(value)
        else:
            self._form_z(ref, index_op)
            value = self.load_value(value_op)
            if element == 2:
                self.emit("st_zp", rd=value.base)
                src_hi = value.base + 1 if value.size == 2 else regs.ZERO
                self.emit("st_z", rd=src_hi)
            else:
                self.emit("st_z", rd=value.base)
            self.release(value)

    # -- devices ---------------------------------------------------------------------------------------

    def _sel_ioread(self, ins: IRInstr) -> None:
        port_name = ins.args[0]
        dst, writeback = self.dest(ins.dst)
        if port_name == "adc":
            self.emit("in", rd=dst.base, rr=devices.PORT_ADC_LO)
            if dst.size == 2:
                self.emit("in", rd=dst.base + 1, rr=devices.PORT_ADC_HI)
        elif port_name == "timer":
            self.emit("in", rd=dst.base, rr=devices.PORT_TIMER)
        elif port_name == "led":
            self.emit("in", rd=dst.base, rr=devices.PORT_LED)
        else:  # pragma: no cover
            raise SelectionError(f"cannot read port {port_name!r}")
        self.writeback(dst, writeback)

    def _sel_iowrite(self, ins: IRInstr) -> None:
        port_name, value_op = ins.args
        value = self.load_value(value_op)
        if port_name == "led":
            self.emit("out", rd=value.base, rr=devices.PORT_LED)
        elif port_name == "radio":
            self.emit("out", rd=value.base, rr=devices.PORT_RADIO_LO)
            hi = value.base + 1 if value.size == 2 else regs.ZERO
            self.emit("out", rd=hi, rr=devices.PORT_RADIO_HI)
        else:  # pragma: no cover
            raise SelectionError(f"cannot write port {port_name!r}")
        self.release(value)


def select_function(
    fn: IRFunction,
    record: AllocationRecord,
    layout: DataLayout,
    module: IRModule,
) -> list[MachineInstr]:
    """Lower one function; the first element is its entry label."""
    return FunctionSelector(fn, record, layout, module).select()


def select_module(
    module: IRModule,
    records: dict[str, AllocationRecord],
    layout: DataLayout,
) -> list[MachineInstr]:
    """Lower a whole module, functions in definition order."""
    out: list[MachineInstr] = []
    for name, fn in module.functions.items():
        out.extend(select_function(fn, records[name], layout, module))
    return out
