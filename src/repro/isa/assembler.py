"""Assembler: symbolic machine code → executable binary image.

Two passes: the first assigns word addresses to every instruction and
records label positions; the second resolves branch offsets and call
targets and encodes each instruction to its 16-bit words.

The output :class:`BinaryImage` is the unit the rest of the system works
on — the differ compares two images instruction-by-instruction, the
patcher rewrites one into another, and the simulator executes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lang.errors import CompileError
from .instructions import (
    EncodingError,
    F_ADDR,
    F_BR,
    MachineInstr,
    decode_batch,
    encode_batch,
)


@dataclass
class EncodedInstr:
    """One encoded instruction: its words, address, and provenance."""

    address: int  # word address of the first word
    words: tuple[int, ...]
    instr: MachineInstr

    @property
    def size_words(self) -> int:
        return len(self.words)

    @property
    def size_bytes(self) -> int:
        return 2 * len(self.words)


@dataclass
class BinaryImage:
    """A fully assembled program.

    ``code`` lists encoded instructions in address order; ``data`` is
    the initial data-segment byte image (globals' initial values);
    ``entry`` is the word address of ``main``; ``symbols`` maps label
    names (functions and local labels, function-qualified) to word
    addresses.
    """

    code: list[EncodedInstr] = field(default_factory=list)
    data: bytes = b""
    data_base: int = 0
    entry: int = 0
    symbols: dict[str, int] = field(default_factory=dict)

    def words(self) -> list[int]:
        flat: list[int] = []
        for enc in self.code:
            flat.extend(enc.words)
        return flat

    def to_bytes(self) -> bytes:
        """The code words as little-endian 16-bit bytes."""
        return np.asarray(self.words(), dtype="<u2").tobytes()

    @property
    def size_words(self) -> int:
        return sum(e.size_words for e in self.code)

    @property
    def size_bytes(self) -> int:
        return 2 * self.size_words

    def instruction_count(self) -> int:
        return len(self.code)

    def disassemble(self) -> str:
        """Human-readable listing with addresses (for debugging)."""
        addr_to_label = {}
        for name, addr in self.symbols.items():
            addr_to_label.setdefault(addr, []).append(name)
        lines = []
        for enc in self.code:
            for name in addr_to_label.get(enc.address, []):
                lines.append(f"{name}:")
            raw = " ".join(f"{w:04x}" for w in enc.words)
            lines.append(f"  {enc.address:04x}: {raw:<10} {enc.instr}")
        return "\n".join(lines)


class AssemblyError(CompileError):
    """Raised for undefined labels or out-of-range encodings."""


def assemble(
    instrs: list[MachineInstr],
    data: bytes = b"",
    data_base: int = 0,
    entry_label: str = "main",
) -> BinaryImage:
    """Assemble a flat instruction list (with label pseudo-instrs).

    Label scoping is the caller's concern: the code generator emits
    function-qualified local labels (``main.L0``), so one flat namespace
    suffices.
    """
    # Pass 1: addresses.
    symbols: dict[str, int] = {}
    address = 0
    for instr in instrs:
        if instr.is_label:
            if instr.target in symbols:
                raise AssemblyError(f"duplicate label {instr.target!r}")
            symbols[instr.target] = address
        else:
            address += instr.size_words

    # Pass 2: resolve targets, then encode the whole program in one
    # batch.
    image = BinaryImage(data=data, data_base=data_base, symbols=symbols)
    address = 0
    resolved_instrs: list[MachineInstr] = []
    addresses: list[int] = []
    for instr in instrs:
        if instr.is_label:
            continue
        resolved = instr
        if instr.target:
            if instr.target not in symbols:
                raise AssemblyError(f"undefined label {instr.target!r}")
            dest = symbols[instr.target]
            if instr.spec.fmt == F_BR:
                resolved = _with_addr(instr, dest - (address + instr.size_words))
            elif instr.spec.fmt == F_ADDR:
                resolved = _with_addr(instr, dest)
            else:
                raise AssemblyError(
                    f"{instr.mnemonic} cannot take a label target"
                )
        resolved_instrs.append(resolved)
        addresses.append(address)
        address += instr.size_words
    try:
        encoded = encode_batch(resolved_instrs)
    except EncodingError as exc:
        raise AssemblyError(str(exc)) from exc
    image.code = [
        EncodedInstr(address=addr, words=words, instr=resolved)
        for addr, words, resolved in zip(addresses, encoded, resolved_instrs)
    ]

    if entry_label not in symbols:
        raise AssemblyError(f"entry point {entry_label!r} not defined")
    image.entry = symbols[entry_label]
    return image


def _with_addr(instr: MachineInstr, addr: int) -> MachineInstr:
    clone = MachineInstr(
        mnemonic=instr.mnemonic,
        rd=instr.rd,
        rr=instr.rr,
        imm=instr.imm,
        addr=addr,
        target=instr.target,
        ir_index=instr.ir_index,
        comment=instr.comment,
    )
    return clone


def disassemble_words(words: list[int]) -> list[MachineInstr]:
    """Decode a flat word list back into instructions.

    Used by tests to confirm the encoding round-trips and by the patcher
    to sanity-check a reconstructed image.
    """
    return decode_batch(words)
