"""Instruction-level simulator (the reproduction's Avrora stand-in).

Executes a :class:`~repro.isa.assembler.BinaryImage` with per-opcode
cycle accounting, AVR-style flag semantics for the subset the code
generator emits, and an execution profiler that attributes machine
instructions back to (function, IR index) — the ``freq(s)`` input of
the paper's energy objective.

Decode once: each :class:`Simulator` turns its image into a dispatch
table when it is built.  The table maps every instruction's start
address to a per-mnemonic handler, the instruction's operands as the
handler needs them (immediates masked, branch targets absolute, the
return address of ``call``), its next PC, base cycles, a
conditional-branch flag and its profile key.  A handler returns the
taken PC or ``None``; :meth:`Simulator.run` loops over the table with
``pc``, ``cycles`` and ``executed`` in locals, and
:meth:`Simulator.step` runs the same loop for one instruction.  The
table lives as long as the simulator; nothing is cached across runs.

Cycle fidelity: base costs come from the opcode table; taken
conditional branches cost one extra cycle, like the ATmega128.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import devices as memmap
from ..isa.assembler import BinaryImage
from ..isa.instructions import F_ADDR, F_BR, F_IMM, F_NONE, OPCODES
from ..obs import metrics, trace
from .devices import DeviceBoard


class SimulationError(Exception):
    """Raised on invalid execution (bad PC, stack mismatch, bad port)."""


@dataclass(frozen=True)
class Divergence:
    """First observable difference between two simulation runs.

    ``channel`` names the device stream ("led", "radio", "timer",
    "adc", "halted", "main_returned"); ``index`` is the position of the
    first differing event in that stream (``None`` for scalar
    channels); ``a``/``b`` are the differing observations.
    """

    channel: str
    a: object
    b: object
    index: int | None = None

    def render(self) -> str:
        at = f"[{self.index}]" if self.index is not None else ""
        return f"{self.channel}{at}: {self.a!r} != {self.b!r}"


def traces_equal(a: "RunResult", b: "RunResult") -> Divergence | None:
    """Compare the observable device traces of two runs.

    Two binaries are behaviourally equivalent for update purposes when
    every externally visible effect matches: the LED write sequence,
    the radio packet sequence, the timer fire count, the ADC sample
    count, and how the run ended.  Returns ``None`` when the traces
    agree, else the first :class:`Divergence` (sequence channels are
    compared before scalar ones, so the returned divergence is the most
    debuggable observation).
    """
    for channel, seq_a, seq_b in (
        ("led", a.devices.led.writes, b.devices.led.writes),
        ("radio", a.devices.radio.sent, b.devices.radio.sent),
    ):
        for index, (va, vb) in enumerate(zip(seq_a, seq_b)):
            if va != vb:
                return Divergence(channel=channel, a=va, b=vb, index=index)
        if len(seq_a) != len(seq_b):
            index = min(len(seq_a), len(seq_b))
            longer = seq_a if len(seq_a) > len(seq_b) else seq_b
            return Divergence(
                channel=channel,
                a=longer[index] if longer is seq_a else "<absent>",
                b=longer[index] if longer is seq_b else "<absent>",
                index=index,
            )
    for channel, va, vb in (
        ("timer", a.devices.timer.fires, b.devices.timer.fires),
        ("adc", a.devices.adc.reads, b.devices.adc.reads),
        ("halted", a.halted, b.halted),
        ("main_returned", a.main_returned, b.main_returned),
    ):
        if va != vb:
            return Divergence(channel=channel, a=va, b=vb)
    return None


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    cycles: int
    instructions: int
    halted: bool
    main_returned: bool
    devices: DeviceBoard
    #: (function name, IR index) -> executed machine instructions
    profile: dict = field(default_factory=dict)

    def ir_frequencies(self, function: str) -> dict[int, int]:
        """Executed-count per IR index for one function."""
        freqs: dict[int, int] = {}
        for (fn, ir_index), count in self.profile.items():
            if fn == function and ir_index >= 0:
                freqs[ir_index] = freqs.get(ir_index, 0) + count
        return freqs


class Simulator:
    """Executes one binary image."""

    def __init__(
        self,
        image: BinaryImage,
        devices: DeviceBoard | None = None,
        collect_profile: bool = False,
    ):
        self.image = image
        self.devices = devices or DeviceBoard()
        self.collect_profile = collect_profile
        # Lists, not bytearrays: CPython indexes lists faster, and every
        # handler stores a value already masked to a byte.
        self.regs = [0] * 32
        self.sram = [0] * (memmap.DATA_START + memmap.SRAM_SIZE)
        base = image.data_base or memmap.DATA_START
        if base + len(image.data) > len(self.sram):
            raise SimulationError(
                f"data segment [{base:#06x}, {base + len(image.data):#06x}) "
                f"does not fit in SRAM, which ends at {len(self.sram):#06x}"
            )
        self.sram[base : base + len(image.data)] = image.data
        self.flag_z = False
        self.flag_c = False
        self.pc = image.entry
        self.stack: list[tuple[str, int]] = []  # ("byte", v) / ("ret", addr)
        self.cycles = 0
        self.executed = 0
        self.halted = False
        self.main_returned = False
        self.profile: dict[tuple[str, int], int] = {}
        self._table = _decode(image, len(self.sram))

    # -- register/memory helpers ----------------------------------------------

    def reg(self, index: int) -> int:
        return self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        self.regs[index] = value & 0xFF

    def pair(self, base: int) -> int:
        return self.regs[base] | (self.regs[base + 1] << 8)

    def load(self, address: int) -> int:
        self._check_addr(address)
        return self.sram[address]

    def store(self, address: int, value: int) -> None:
        self._check_addr(address)
        self.sram[address] = value & 0xFF

    def _check_addr(self, address: int) -> None:
        if not memmap.DATA_START <= address < len(self.sram):
            raise SimulationError(f"data access outside SRAM: {address:#06x}")

    # -- execution -----------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction (every instruction costs at least one
        cycle, so a budget one cycle ahead stops after exactly one)."""
        self._drive(self.cycles + 1)

    def _drive(self, max_cycles: int) -> None:
        """Execute until HALT, main-return, or ``cycles >= max_cycles``."""
        if self.halted:
            return
        table = self._table
        profile = self.profile if self.collect_profile else None
        pc, cycles, executed = self.pc, self.cycles, self.executed
        try:
            while cycles < max_cycles:
                try:
                    handler, a, b, next_pc, cost, conditional, key = table[pc]
                except KeyError:
                    raise SimulationError(f"invalid PC {pc:#06x}") from None
                taken = handler(self, a, b, cycles)
                executed += 1
                if profile is not None:
                    profile[key] = profile.get(key, 0) + 1
                if taken is None:
                    pc = next_pc
                    cycles += cost
                else:
                    pc = taken
                    cycles += cost + conditional  # taken-branch penalty
                    if self.halted:
                        break
        finally:
            self.pc, self.cycles, self.executed = pc, cycles, executed

    def run(self, max_cycles: int = 5_000_000) -> RunResult:
        """Run until HALT, main-return, or the cycle budget.

        Metrics are published once per run (never per instruction), so
        the simulation loop itself stays uninstrumented.
        """
        with trace.span("sim.run", max_cycles=max_cycles) as span:
            self._drive(max_cycles)
            span.set(cycles=self.cycles, instructions=self.executed)
        metrics.counter("sim.runs").inc()
        metrics.counter("sim.cycles").inc(self.cycles)
        metrics.counter("sim.instructions").inc(self.executed)
        if not self.halted:
            metrics.counter("sim.cycle_budget_hits").inc()
        return RunResult(
            cycles=self.cycles,
            instructions=self.executed,
            halted=self.halted,
            main_returned=self.main_returned,
            devices=self.devices,
            profile=dict(self.profile),
        )


# -- handlers ---------------------------------------------------------------------
#
# ``handler(sim, a, b, now)`` executes one instruction and returns the
# taken PC, or ``None`` to fall through.  ``a``/``b`` are the operands
# :func:`_decode` prepared (usually rd and rr/imm/address); ``now`` is
# the cycle count before the instruction, which ``in`` hands the timer.


def _nop(sim, a, b, now):
    return None


def _halt(sim, a, b, now):
    sim.halted = True
    return a  # a = own address: the PC stays on the HALT


def _mov(sim, a, b, now):
    R = sim.regs
    R[a] = R[b]


def _movw(sim, a, b, now):
    R = sim.regs
    R[a], R[a + 1] = R[b], R[b + 1]


def _ldi(sim, a, b, now):
    sim.regs[a] = b


def _clr(sim, a, b, now):
    sim.regs[a] = 0
    sim.flag_z = True


def _add(sim, a, b, now):
    R = sim.regs
    total = R[a] + R[b]
    sim.flag_c = total > 0xFF
    R[a] = value = total & 0xFF
    sim.flag_z = value == 0


def _adc(sim, a, b, now):
    R = sim.regs
    total = R[a] + R[b] + sim.flag_c
    sim.flag_c = total > 0xFF
    R[a] = value = total & 0xFF
    sim.flag_z = value == 0


def _sub(sim, a, b, now):
    R = sim.regs
    total = R[a] - R[b]
    sim.flag_c = total < 0
    R[a] = value = total & 0xFF
    sim.flag_z = value == 0


def _sbc(sim, a, b, now):
    R = sim.regs
    total = R[a] - R[b] - sim.flag_c
    sim.flag_c = total < 0
    R[a] = value = total & 0xFF
    sim.flag_z = sim.flag_z and value == 0


def _subi(sim, a, b, now):
    R = sim.regs
    total = R[a] - b
    sim.flag_c = total < 0
    R[a] = value = total & 0xFF
    sim.flag_z = value == 0


def _sbci(sim, a, b, now):
    R = sim.regs
    total = R[a] - b - sim.flag_c
    sim.flag_c = total < 0
    R[a] = value = total & 0xFF
    sim.flag_z = sim.flag_z and value == 0


def _and(sim, a, b, now):
    R = sim.regs
    R[a] = value = R[a] & R[b]
    sim.flag_z = value == 0


def _andi(sim, a, b, now):
    R = sim.regs
    R[a] = value = R[a] & b
    sim.flag_z = value == 0


def _or(sim, a, b, now):
    R = sim.regs
    R[a] = value = R[a] | R[b]
    sim.flag_z = value == 0


def _ori(sim, a, b, now):
    R = sim.regs
    R[a] = value = R[a] | b
    sim.flag_z = value == 0


def _eor(sim, a, b, now):
    R = sim.regs
    R[a] = value = R[a] ^ R[b]
    sim.flag_z = value == 0


def _eori(sim, a, b, now):
    R = sim.regs
    R[a] = value = R[a] ^ b
    sim.flag_z = value == 0


def _cp(sim, a, b, now):
    R = sim.regs
    total = R[a] - R[b]
    sim.flag_c = total < 0
    sim.flag_z = (total & 0xFF) == 0


def _cpc(sim, a, b, now):
    R = sim.regs
    total = R[a] - R[b] - sim.flag_c
    sim.flag_c = total < 0
    sim.flag_z = sim.flag_z and (total & 0xFF) == 0


def _cpi(sim, a, b, now):
    total = sim.regs[a] - b
    sim.flag_c = total < 0
    sim.flag_z = (total & 0xFF) == 0


def _mul(sim, a, b, now):
    R = sim.regs
    R[a] = (R[a] * R[b]) & 0xFF


def _div(sim, a, b, now):
    R = sim.regs
    R[a] = R[a] // R[b] if R[b] else 0xFF


def _mod(sim, a, b, now):
    R = sim.regs
    if R[b]:
        R[a] = R[a] % R[b]


def _mul16(sim, a, b, now):
    R = sim.regs
    value = (R[a] | R[a + 1] << 8) * (R[b] | R[b + 1] << 8)
    R[a], R[a + 1] = value & 0xFF, (value >> 8) & 0xFF


def _div16(sim, a, b, now):
    R = sim.regs
    divisor = R[b] | R[b + 1] << 8
    value = (R[a] | R[a + 1] << 8) // divisor if divisor else 0xFFFF
    R[a], R[a + 1] = value & 0xFF, value >> 8


def _mod16(sim, a, b, now):
    R = sim.regs
    divisor = R[b] | R[b + 1] << 8
    if divisor:
        value = (R[a] | R[a + 1] << 8) % divisor
        R[a], R[a + 1] = value & 0xFF, value >> 8


def _neg(sim, a, b, now):
    R = sim.regs
    R[a] = value = -R[a] & 0xFF
    sim.flag_z = value == 0
    sim.flag_c = value != 0


def _com(sim, a, b, now):
    R = sim.regs
    R[a] = value = R[a] ^ 0xFF
    sim.flag_z = value == 0


def _inc(sim, a, b, now):
    R = sim.regs
    R[a] = value = (R[a] + 1) & 0xFF
    sim.flag_z = value == 0


def _dec(sim, a, b, now):
    R = sim.regs
    R[a] = value = (R[a] - 1) & 0xFF
    sim.flag_z = value == 0


def _lsl(sim, a, b, now):
    R = sim.regs
    old = R[a]
    sim.flag_c = old > 0x7F
    R[a] = value = (old << 1) & 0xFF
    sim.flag_z = value == 0


def _lsr(sim, a, b, now):
    R = sim.regs
    old = R[a]
    sim.flag_c = bool(old & 1)
    R[a] = value = old >> 1
    sim.flag_z = value == 0


def _rol(sim, a, b, now):
    R = sim.regs
    old = R[a]
    R[a] = value = ((old << 1) | sim.flag_c) & 0xFF
    sim.flag_c = old > 0x7F
    sim.flag_z = value == 0


def _ror(sim, a, b, now):
    R = sim.regs
    old = R[a]
    R[a] = value = (old >> 1) | (sim.flag_c << 7)
    sim.flag_c = bool(old & 1)
    sim.flag_z = value == 0


def _push(sim, a, b, now):
    sim.stack.append(("byte", sim.regs[a]))


def _pop(sim, a, b, now):
    stack = sim.stack
    if not stack or stack[-1][0] != "byte":
        raise SimulationError("pop without matching push")
    sim.regs[a] = stack.pop()[1]


def _in(sim, a, b, now):
    sim.regs[a] = sim.devices.io_read(b, now) & 0xFF


def _out(sim, a, b, now):
    sim.devices.io_write(b, sim.regs[a])


def _lds(sim, a, b, now):
    sim.regs[a] = sim.sram[b]  # b was range-checked by _decode


def _sts(sim, a, b, now):
    sim.sram[b] = sim.regs[a]


def _bad_address(sim, a, b, now):
    raise SimulationError(f"data access outside SRAM: {b:#06x}")


def _ld_z(sim, a, b, now):
    R = sim.regs
    R[a] = sim.load(R[30] | R[31] << 8)


def _ld_zp(sim, a, b, now):
    R = sim.regs
    address = R[30] | R[31] << 8
    R[a] = sim.load(address)
    address = (address + 1) & 0xFFFF
    R[30], R[31] = address & 0xFF, address >> 8


def _st_z(sim, a, b, now):
    R = sim.regs
    sim.store(R[30] | R[31] << 8, R[a])


def _st_zp(sim, a, b, now):
    R = sim.regs
    address = R[30] | R[31] << 8
    sim.store(address, R[a])
    address = (address + 1) & 0xFFFF
    R[30], R[31] = address & 0xFF, address >> 8


def _jump(sim, a, b, now):
    return b  # rjmp and jmp: b is the absolute target


def _breq(sim, a, b, now):
    return b if sim.flag_z else None


def _brne(sim, a, b, now):
    return None if sim.flag_z else b


def _brlo(sim, a, b, now):
    return b if sim.flag_c else None


def _brsh(sim, a, b, now):
    return None if sim.flag_c else b


def _call(sim, a, b, now):
    sim.stack.append(("ret", a))  # a = the return address
    return b


def _ret(sim, a, b, now):
    stack = sim.stack
    if not stack:
        # main returned: the program is done.
        sim.halted = True
        sim.main_returned = True
        return a  # a = own address
    kind, value = stack.pop()
    if kind != "ret":
        raise SimulationError("ret with unbalanced stack")
    return value


#: mnemonic -> handler; every mnemonic of the opcode table has one.
_HANDLERS = {
    "nop": _nop, "halt": _halt, "ret": _ret,
    "add": _add, "adc": _adc, "sub": _sub, "sbc": _sbc,
    "and": _and, "or": _or, "eor": _eor, "mov": _mov, "movw": _movw,
    "cp": _cp, "cpc": _cpc, "mul": _mul, "div": _div, "mod": _mod,
    "mul16": _mul16, "div16": _div16, "mod16": _mod16,
    "neg": _neg, "com": _com, "inc": _inc, "dec": _dec,
    "lsl": _lsl, "lsr": _lsr, "rol": _rol, "ror": _ror, "clr": _clr,
    "push": _push, "pop": _pop, "in": _in, "out": _out,
    "ld_z": _ld_z, "ld_zp": _ld_zp, "st_z": _st_z, "st_zp": _st_zp,
    "ldi": _ldi, "subi": _subi, "sbci": _sbci, "andi": _andi,
    "ori": _ori, "eori": _eori, "cpi": _cpi,
    "lds": _lds, "sts": _sts, "call": _call, "jmp": _jump,
    "rjmp": _jump, "breq": _breq, "brne": _brne, "brlo": _brlo, "brsh": _brsh,
}

def _decode(image: BinaryImage, sram_size: int) -> dict[int, tuple]:
    """The dispatch table of ``image``: start address -> (handler, a, b,
    next PC, base cycles, conditional-branch flag, profile key)."""
    table = {}
    for enc in image.code:
        ins = enc.instr
        op = ins.mnemonic
        spec = OPCODES[op]
        here = enc.address
        next_pc = here + len(enc.words)
        handler = _HANDLERS[op]
        a, b = ins.rd, ins.rr
        if spec.fmt == F_IMM:
            b = ins.imm & 0xFF
        elif spec.fmt == F_ADDR:
            b = ins.addr
            if op == "call":
                a = next_pc
            elif op != "jmp" and not memmap.DATA_START <= b < sram_size:
                handler = _bad_address  # lds/sts outside SRAM fail when run
        elif spec.fmt == F_BR:
            b = next_pc + ins.addr
        elif spec.fmt == F_NONE:
            a = here
        table[here] = (
            handler, a, b, next_pc, spec.cycles,
            spec.fmt == F_BR and op != "rjmp",  # rjmp's 2 cycles are in the table
            (ins.comment, ins.ir_index),
        )
    return table


def run_image(
    image: BinaryImage,
    devices: DeviceBoard | None = None,
    max_cycles: int = 5_000_000,
    collect_profile: bool = False,
) -> RunResult:
    """Convenience: simulate ``image`` to completion."""
    sim = Simulator(image, devices=devices, collect_profile=collect_profile)
    return sim.run(max_cycles=max_cycles)
