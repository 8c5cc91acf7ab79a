"""IR containers: functions and modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.sema import CheckedProgram, Symbol
from ..lang.types import Type
from .instructions import IRInstr, IROp, VReg


@dataclass
class IRFunction:
    """A function lowered to linear three-address code.

    ``instrs`` is the linear instruction list (labels included as
    pseudo-instructions).  ``param_vregs`` lists the vregs holding the
    incoming parameters in order.
    """

    name: str
    return_type: Type
    param_vregs: list[VReg] = field(default_factory=list)
    instrs: list[IRInstr] = field(default_factory=list)
    # Memory-resident symbols owned by this function (local arrays).
    local_arrays: list[Symbol] = field(default_factory=list)
    #: Projected maximal simultaneous activations (paper §4 ``Depth_i``).
    depth: int = 1

    def append(self, instr: IRInstr) -> IRInstr:
        self.instrs.append(instr)
        return instr

    def labels(self) -> dict[str, int]:
        """Map label name -> instruction index of its LABEL marker."""
        return {
            ins.label_name: idx
            for idx, ins in enumerate(self.instrs)
            if ins.op is IROp.LABEL
        }

    def vregs(self) -> list[VReg]:
        """All distinct virtual registers, in first-appearance order."""
        seen: dict[str, VReg] = {}
        for reg in self.param_vregs:
            seen.setdefault(reg.name, reg)
        for ins in self.instrs:
            for reg in ins.vregs():
                seen.setdefault(reg.name, reg)
        return list(seen.values())

    def instruction_count(self) -> int:
        """IR instructions excluding label markers."""
        return sum(1 for ins in self.instrs if ins.op is not IROp.LABEL)

    def render(self) -> str:
        lines = [f"func {self.name}({', '.join(map(str, self.param_vregs))})"]
        for ins in self.instrs:
            indent = "" if ins.op is IROp.LABEL else "  "
            lines.append(indent + str(ins))
        return "\n".join(lines)


@dataclass
class IRModule:
    """A whole program in IR form plus the semantic info it came from."""

    checked: CheckedProgram
    functions: dict[str, IRFunction] = field(default_factory=dict)

    @property
    def globals(self) -> list[Symbol]:
        return self.checked.globals

    def function(self, name: str) -> IRFunction:
        return self.functions[name]

    def memory_symbols(self) -> list[Symbol]:
        """All memory-resident symbols: globals plus local arrays.

        Order: globals in declaration order (the paper's dummy function
        ``P0``), then each function's arrays in function order.
        """
        symbols = list(self.globals)
        for fn in self.functions.values():
            symbols.extend(fn.local_arrays)
        return symbols

    def total_instructions(self) -> int:
        return sum(fn.instruction_count() for fn in self.functions.values())

    def render(self) -> str:
        chunks = []
        for sym in self.globals:
            chunks.append(f"global {sym.uid}: {sym.ctype}")
        for fn in self.functions.values():
            chunks.append(fn.render())
        return "\n\n".join(chunks)
