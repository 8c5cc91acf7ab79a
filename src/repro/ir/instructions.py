"""Three-address intermediate representation.

This is the ``IR`` of the paper's Figure 1: the representation left after
the machine-independent optimization passes, on which UCC's code
generation (register allocation + data layout) operates.

Design points that matter for the reproduction:

* Operands are virtual registers (:class:`VReg`) or immediates
  (:class:`Imm`).  Named program variables become *named* vregs whose
  identity is the semantic symbol uid, so the same source variable has
  the same vreg name before and after a source update.
* Expression temporaries are numbered *per source statement* and each
  IR instruction records its originating statement.  Because numbering
  restarts at every statement, inserting a statement does not rename
  the temporaries of unchanged statements — this is what makes the
  changed/unchanged chunk identification of paper §3.2 well defined.
* Global variables and arrays stay memory-resident and are accessed via
  explicit ``LOADG``/``STOREG``/``LOADIDX``/``STOREIDX`` instructions.
  Their machine encodings embed data-segment addresses, which is how
  the data-layout decisions (paper §4) show up in the binary diff.
* An IR instruction has at most two distinct variable operands, the
  property paper §3.4 relies on when linearising the update-energy term.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..lang.types import Type, U8


class IROp(enum.Enum):
    """IR opcodes."""

    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NEG = "neg"
    NOT = "not"
    CAST = "cast"
    # comparisons produce a u8 0/1
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    # memory
    LOADG = "loadg"  # dst, MemRef
    STOREG = "storeg"  # MemRef, src
    LOADIDX = "loadidx"  # dst, MemRef(array), index
    STOREIDX = "storeidx"  # MemRef(array), index, src
    # control flow
    LABEL = "label"
    JUMP = "jump"
    CBR = "cbr"  # cond, true_label, false_label
    CALL = "call"  # dst(optional), fname, args...
    RET = "ret"  # optional src
    # devices
    IOREAD = "ioread"  # dst, port name
    IOWRITE = "iowrite"  # port name, src
    HALT = "halt"


#: Opcodes that transfer control (end a basic block).
TERMINATORS = frozenset({IROp.JUMP, IROp.CBR, IROp.RET, IROp.HALT})

#: Three-address ALU ops with two source operands.
BINARY_OPS = frozenset(
    {
        IROp.ADD,
        IROp.SUB,
        IROp.MUL,
        IROp.DIV,
        IROp.MOD,
        IROp.AND,
        IROp.OR,
        IROp.XOR,
        IROp.SHL,
        IROp.SHR,
        IROp.CMPEQ,
        IROp.CMPNE,
        IROp.CMPLT,
        IROp.CMPLE,
        IROp.CMPGT,
        IROp.CMPGE,
    }
)

#: Ops with a single source operand.
UNARY_OPS = frozenset({IROp.MOV, IROp.NEG, IROp.NOT, IROp.CAST})

#: Comparison opcodes and their negations (used by branch folding).
COMPARISONS = frozenset(
    {IROp.CMPEQ, IROp.CMPNE, IROp.CMPLT, IROp.CMPLE, IROp.CMPGT, IROp.CMPGE}
)
NEGATED_COMPARISON = {
    IROp.CMPEQ: IROp.CMPNE,
    IROp.CMPNE: IROp.CMPEQ,
    IROp.CMPLT: IROp.CMPGE,
    IROp.CMPLE: IROp.CMPGT,
    IROp.CMPGT: IROp.CMPLE,
    IROp.CMPGE: IROp.CMPLT,
}


@dataclass(frozen=True)
class VReg:
    """A virtual register.

    ``name`` is the symbol uid for named program variables
    (``"main.i"``, ``"counter"``) or ``"$<stmt>.<k>"`` for the ``k``-th
    temporary of source statement ``<stmt>``.  Temporary names are
    globally unique (so liveness treats each as its own value) but the
    *normalised* rendering masks the statement id, so an unchanged
    statement renders identically before and after a source update.
    """

    name: str
    ctype: Type = U8

    @property
    def is_temp(self) -> bool:
        return self.name.startswith("$")

    @property
    def local_temp_name(self) -> str:
        """Statement-local identity: ``$3.1`` -> ``$.1``."""
        if not self.is_temp:
            return self.name
        return "$." + self.name.split(".", 1)[1]

    @property
    def size(self) -> int:
        return self.ctype.element_size

    def __str__(self) -> str:
        return f"%{self.name}:{self.ctype.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: int
    ctype: Type = U8

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class MemRef:
    """A reference to a memory-resident variable (global or array).

    ``symbol`` is the semantic symbol uid.  The actual address is bound
    later by the data-layout pass; the IR stays layout-independent.
    """

    symbol: str
    ctype: Type = U8

    def __str__(self) -> str:
        return f"@{self.symbol}"


@dataclass(frozen=True)
class Label:
    """A branch target."""

    name: str

    def __str__(self) -> str:
        return f".{self.name}"


Operand = object  # VReg | Imm | MemRef | Label | str


@dataclass
class IRInstr:
    """One three-address IR instruction.

    ``stmt_id`` identifies the source statement the instruction was
    lowered from; ``stmt_text`` is that statement's normalised source
    text (used by the chunker to match old/new IR).
    """

    op: IROp
    dst: VReg | None = None
    args: tuple = ()
    stmt_id: int = -1
    stmt_text: str = ""
    # Filled by profiling / update planning:
    freq: float = 1.0

    # -- operand accessors -------------------------------------------------

    def uses(self) -> list[VReg]:
        """Virtual registers read by this instruction."""
        used = [a for a in self.args if isinstance(a, VReg)]
        return used

    def defs(self) -> list[VReg]:
        """Virtual registers written by this instruction."""
        return [self.dst] if self.dst is not None else []

    def vregs(self) -> list[VReg]:
        return self.defs() + self.uses()

    def variables(self) -> list[str]:
        """Distinct vreg names touched, definition first."""
        seen: list[str] = []
        for reg in self.vregs():
            if reg.name not in seen:
                seen.append(reg.name)
        return seen

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    @property
    def is_label(self) -> bool:
        return self.op is IROp.LABEL

    @property
    def label_name(self) -> str:
        assert self.op is IROp.LABEL
        return self.args[0].name

    # -- rendering ---------------------------------------------------------

    def render(self, normalized: bool = False) -> str:
        """A textual form of the instruction.

        With ``normalized=True``, label identities and temporary
        statement-ids are masked, so purely positional renumbering
        (labels shifting, statements moving) does not make an unchanged
        instruction look changed.  Chunk matching (paper §3.2) compares
        normalised renderings.
        """

        def fmt(arg) -> str:
            if isinstance(arg, Label):
                return ".L?" if normalized else str(arg)
            if normalized and isinstance(arg, VReg):
                return f"%{arg.local_temp_name}:{arg.ctype.name}"
            return str(arg)

        parts = []
        if self.dst is not None:
            parts.append(f"{fmt(self.dst)} =")
        parts.append(self.op.value)
        parts.extend(fmt(arg) for arg in self.args)
        return " ".join(parts)

    def normalized(self) -> str:
        """Shorthand for :meth:`render` with ``normalized=True``."""
        return self.render(normalized=True)

    def __str__(self) -> str:
        return self.render()
