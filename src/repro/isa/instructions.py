"""Machine instruction set of the AVR-flavoured target.

The ISA keeps every property the paper's techniques depend on (fixed
16-bit instruction words, register numbers and data addresses embedded
in the encoding, post-increment loads for multi-byte values) while the
exact bit layout is our own regular scheme — see DESIGN.md §2.

Formats
-------

* ``RR``    — one word: ``op(6) | rd(5) | rr(5)``; register-register
  ALU ops, single-register ops (``rr`` = 0), ``IN``/``OUT`` (``rr`` =
  port number), ``LD``/``ST`` through Z.
* ``IMM``   — two words: ``op | rd | 0`` then the 8-bit immediate;
  register-immediate ALU ops.
* ``ADDR``  — two words: ``op | rd | 0`` then a 16-bit data address or
  code word-address (``LDS``/``STS``/``CALL``/``JMP``).
* ``BR``    — one word: ``op(6) | offset(10, signed)``; conditional
  branches and ``RJMP``, offset in words relative to the *next*
  instruction.
* ``NONE``  — one word: ``op`` only (``RET``, ``NOP``, ``HALT``).

Cycle costs follow the ATmega128 datasheet where an equivalent exists;
``DIV``/``MOD`` are pseudo-instructions standing in for avr-libgcc's
software division (4 cycles — a deliberately coarse stand-in, identical
for every allocator, documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

F_RR = "rr"
F_IMM = "imm"
F_ADDR = "addr"
F_BR = "br"
F_NONE = "none"


@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    opcode: int
    fmt: str
    cycles: int  # base cost; branches add 1 when taken
    reads_rd: bool = True
    writes_rd: bool = False


def _build_table() -> dict[str, OpSpec]:
    specs = [
        # mnemonic, fmt, cycles, reads_rd, writes_rd
        ("nop", F_NONE, 1, False, False),
        ("halt", F_NONE, 1, False, False),
        ("ret", F_NONE, 4, False, False),
        # register-register ALU
        ("add", F_RR, 1, True, True),
        ("adc", F_RR, 1, True, True),
        ("sub", F_RR, 1, True, True),
        ("sbc", F_RR, 1, True, True),
        ("and", F_RR, 1, True, True),
        ("or", F_RR, 1, True, True),
        ("eor", F_RR, 1, True, True),
        ("mov", F_RR, 1, False, True),
        ("movw", F_RR, 1, False, True),  # rd/rr are pair bases
        ("cp", F_RR, 1, True, False),
        ("cpc", F_RR, 1, True, False),
        ("mul", F_RR, 2, True, True),  # rd = low byte of rd*rr (deviation)
        ("div", F_RR, 4, True, True),  # pseudo: rd = rd / rr
        ("mod", F_RR, 4, True, True),  # pseudo: rd = rd % rr
        # 16-bit pseudo ops over register pairs, standing in for the
        # avr-libgcc __mulhi3/__udivmodhi4 helper calls.
        ("mul16", F_RR, 8, True, True),
        ("div16", F_RR, 16, True, True),
        ("mod16", F_RR, 16, True, True),
        # single-register (rr = 0)
        ("neg", F_RR, 1, True, True),
        ("com", F_RR, 1, True, True),
        ("inc", F_RR, 1, True, True),
        ("dec", F_RR, 1, True, True),
        ("lsl", F_RR, 1, True, True),
        ("lsr", F_RR, 1, True, True),
        ("rol", F_RR, 1, True, True),
        ("ror", F_RR, 1, True, True),
        ("clr", F_RR, 1, False, True),
        ("push", F_RR, 2, True, False),
        ("pop", F_RR, 2, False, True),
        # I/O (rr = port number)
        ("in", F_RR, 1, False, True),
        ("out", F_RR, 1, True, False),
        # indirect loads/stores through Z (rd is data reg)
        ("ld_z", F_RR, 2, False, True),
        ("ld_zp", F_RR, 2, False, True),  # post-increment Z (PIA mode)
        ("st_z", F_RR, 2, True, False),
        ("st_zp", F_RR, 2, True, False),
        # immediates (two words)
        ("ldi", F_IMM, 1, False, True),
        ("subi", F_IMM, 1, True, True),
        ("sbci", F_IMM, 1, True, True),
        ("andi", F_IMM, 1, True, True),
        ("ori", F_IMM, 1, True, True),
        ("eori", F_IMM, 1, True, True),
        ("cpi", F_IMM, 1, True, False),
        # absolute memory / control (two words)
        ("lds", F_ADDR, 2, False, True),
        ("sts", F_ADDR, 2, True, False),
        ("call", F_ADDR, 4, False, False),
        ("jmp", F_ADDR, 3, False, False),
        # relative control (one word)
        ("rjmp", F_BR, 2, False, False),
        ("breq", F_BR, 1, False, False),
        ("brne", F_BR, 1, False, False),
        ("brlo", F_BR, 1, False, False),  # branch if carry set (unsigned <)
        ("brsh", F_BR, 1, False, False),  # branch if carry clear (unsigned >=)
    ]
    table = {}
    for opcode, (mnemonic, fmt, cycles, reads, writes) in enumerate(specs, start=1):
        table[mnemonic] = OpSpec(mnemonic, opcode, fmt, cycles, reads, writes)
    return table


#: mnemonic -> OpSpec
OPCODES: dict[str, OpSpec] = _build_table()

#: opcode number -> OpSpec
BY_OPCODE: dict[int, OpSpec] = {spec.opcode: spec for spec in OPCODES.values()}

#: Mnemonics whose encoded second word is a data address (so relocating a
#: variable re-encodes them -- what UCC-DA minimises).
DATA_ADDRESS_OPS = frozenset({"lds", "sts"})


@dataclass
class MachineInstr:
    """One machine instruction (or a label pseudo-instruction).

    Before assembly, branch/call targets are symbolic (``target``).
    ``ir_index`` ties the instruction back to the IR instruction it was
    selected from, which is how execution profiles map back to
    ``freq(s)`` and how the differ reports per-statement attribution.
    """

    mnemonic: str
    rd: int = 0
    rr: int = 0
    imm: int = 0
    addr: int = 0
    target: str = ""  # symbolic label (branches, calls, jmp)
    ir_index: int = -1
    comment: str = ""

    @property
    def is_label(self) -> bool:
        return self.mnemonic == "label"

    @property
    def spec(self) -> OpSpec:
        return OPCODES[self.mnemonic]

    @property
    def size_words(self) -> int:
        if self.is_label:
            return 0
        fmt = self.spec.fmt
        return 2 if fmt in (F_IMM, F_ADDR) else 1

    @property
    def cycles(self) -> int:
        return self.spec.cycles

    def render(self) -> str:
        if self.is_label:
            return f"{self.target}:"
        spec = self.spec
        if spec.fmt == F_NONE:
            return self.mnemonic
        if spec.fmt == F_RR:
            if self.mnemonic in ("in",):
                return f"{self.mnemonic} r{self.rd}, ${self.rr:02x}"
            if self.mnemonic in ("out",):
                return f"{self.mnemonic} ${self.rr:02x}, r{self.rd}"
            if self.mnemonic in ("push", "pop", "neg", "com", "inc", "dec",
                                 "lsl", "lsr", "rol", "ror", "clr",
                                 "ld_z", "ld_zp", "st_z", "st_zp"):
                return f"{self.mnemonic} r{self.rd}"
            return f"{self.mnemonic} r{self.rd}, r{self.rr}"
        if spec.fmt == F_IMM:
            return f"{self.mnemonic} r{self.rd}, #{self.imm}"
        if spec.fmt == F_ADDR:
            if self.mnemonic in ("call", "jmp"):
                where = self.target or f"@{self.addr:04x}"
                return f"{self.mnemonic} {where}"
            if self.mnemonic == "sts":
                return f"sts ${self.addr:04x}, r{self.rd}"
            return f"{self.mnemonic} r{self.rd}, ${self.addr:04x}"
        if spec.fmt == F_BR:
            where = self.target or f"{self.addr:+d}"
            return f"{self.mnemonic} {where}"
        raise AssertionError(spec.fmt)  # pragma: no cover

    def __str__(self) -> str:
        return self.render()


def label(name: str) -> MachineInstr:
    """Create a label pseudo-instruction."""
    return MachineInstr(mnemonic="label", target=name)


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------

_OFFSET_BITS = 10
_OFFSET_MIN = -(1 << (_OFFSET_BITS - 1))
_OFFSET_MAX = (1 << (_OFFSET_BITS - 1)) - 1


class EncodingError(Exception):
    """Raised when an instruction cannot be encoded (bad field range)."""


def encode(instr: MachineInstr) -> tuple[int, ...]:
    """Encode ``instr`` into one or two 16-bit words.

    Branch targets must already be resolved to word offsets
    (``instr.addr``) and call targets to absolute word addresses —
    the assembler does this.
    """
    if instr.is_label:
        return ()
    spec = instr.spec
    op = spec.opcode
    if spec.fmt == F_NONE:
        return ((op << 10),)
    if spec.fmt == F_RR:
        _check_reg(instr.rd)
        if not 0 <= instr.rr < 32:
            raise EncodingError(f"rr/port {instr.rr} out of range in {instr}")
        return ((op << 10) | (instr.rd << 5) | instr.rr,)
    if spec.fmt == F_IMM:
        _check_reg(instr.rd)
        if not 0 <= instr.imm <= 0xFF:
            raise EncodingError(f"immediate {instr.imm} out of range in {instr}")
        return ((op << 10) | (instr.rd << 5), instr.imm)
    if spec.fmt == F_ADDR:
        _check_reg(instr.rd)
        if not 0 <= instr.addr <= 0xFFFF:
            raise EncodingError(f"address {instr.addr:#x} out of range in {instr}")
        return ((op << 10) | (instr.rd << 5), instr.addr)
    if spec.fmt == F_BR:
        offset = instr.addr
        if not _OFFSET_MIN <= offset <= _OFFSET_MAX:
            raise EncodingError(f"branch offset {offset} out of range in {instr}")
        return ((op << 10) | (offset & ((1 << _OFFSET_BITS) - 1)),)
    raise AssertionError(spec.fmt)  # pragma: no cover


def decode(words: list[int], index: int) -> tuple[MachineInstr, int]:
    """Decode the instruction starting at ``words[index]``.

    Returns the instruction and the number of words consumed.
    """
    word = words[index]
    opcode = word >> 10
    spec = BY_OPCODE.get(opcode)
    if spec is None:
        raise EncodingError(f"unknown opcode {opcode} in word {word:#06x}")
    instr = MachineInstr(mnemonic=spec.mnemonic)
    if spec.fmt == F_NONE:
        return instr, 1
    if spec.fmt == F_RR:
        instr.rd = (word >> 5) & 0x1F
        instr.rr = word & 0x1F
        return instr, 1
    if spec.fmt == F_IMM:
        instr.rd = (word >> 5) & 0x1F
        instr.imm = words[index + 1]
        return instr, 2
    if spec.fmt == F_ADDR:
        instr.rd = (word >> 5) & 0x1F
        instr.addr = words[index + 1]
        return instr, 2
    if spec.fmt == F_BR:
        raw = word & ((1 << _OFFSET_BITS) - 1)
        if raw >= (1 << (_OFFSET_BITS - 1)):
            raw -= 1 << _OFFSET_BITS
        instr.addr = raw
        return instr, 1
    raise AssertionError(spec.fmt)  # pragma: no cover


def _check_reg(reg: int) -> None:
    if not 0 <= reg < 32:
        raise EncodingError(f"register r{reg} out of range")


def encode_batch(instrs: list[MachineInstr]) -> list[tuple[int, ...]]:
    """Encode many instructions at once; labels encode to ``()``."""
    return [encode(instr) for instr in instrs]


def decode_batch(words: list[int]) -> list[MachineInstr]:
    """Decode a flat word list back into an instruction list."""
    instrs = []
    index = 0
    while index < len(words):
        instr, consumed = decode(words, index)
        instrs.append(instr)
        index += consumed
    return instrs
