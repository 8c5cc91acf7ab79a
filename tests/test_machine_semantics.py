"""Direct machine-level semantics tests (flags, carry chains).

These bypass the compiler: hand-assembled instruction sequences check
the simulator's AVR-style flag behaviour — the foundation the compiled
carry chains (ADD/ADC, SUB/SBC, CP/CPC, shifts through carry) rest on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import MachineInstr, assemble, label
from repro.sim import SimulationError, Simulator


def run_instrs(*instrs, setup_regs=None):
    program = [label("main"), *instrs, MachineInstr("halt")]
    image = assemble(program)
    sim = Simulator(image)
    for reg, value in (setup_regs or {}).items():
        sim.set_reg(reg, value)
    sim.run()
    return sim


class TestCarryChains:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_16bit_add_chain(self, a, b):
        sim = run_instrs(
            MachineInstr("add", rd=2, rr=4),
            MachineInstr("adc", rd=3, rr=5),
            setup_regs={2: a & 0xFF, 3: a >> 8, 4: b & 0xFF, 5: b >> 8},
        )
        assert sim.pair(2) == (a + b) & 0xFFFF

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_16bit_sub_chain(self, a, b):
        sim = run_instrs(
            MachineInstr("sub", rd=2, rr=4),
            MachineInstr("sbc", rd=3, rr=5),
            setup_regs={2: a & 0xFF, 3: a >> 8, 4: b & 0xFF, 5: b >> 8},
        )
        assert sim.pair(2) == (a - b) & 0xFFFF

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0xFFFF), st.integers(0, 255))
    def test_16bit_immediate_subtract(self, a, imm):
        sim = run_instrs(
            MachineInstr("subi", rd=2, imm=imm),
            MachineInstr("sbci", rd=3, imm=0),
            setup_regs={2: a & 0xFF, 3: a >> 8},
        )
        assert sim.pair(2) == (a - imm) & 0xFFFF

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0xFFFF))
    def test_16bit_left_shift_through_carry(self, a):
        sim = run_instrs(
            MachineInstr("lsl", rd=2),
            MachineInstr("rol", rd=3),
            setup_regs={2: a & 0xFF, 3: a >> 8},
        )
        assert sim.pair(2) == (a << 1) & 0xFFFF

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0xFFFF))
    def test_16bit_right_shift_through_carry(self, a):
        sim = run_instrs(
            MachineInstr("lsr", rd=3),
            MachineInstr("ror", rd=2),
            setup_regs={2: a & 0xFF, 3: a >> 8},
        )
        assert sim.pair(2) == a >> 1


class TestCompareFlags:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_16bit_compare_brlo(self, a, b):
        """CP/CPC then BRLO implements unsigned 16-bit less-than."""
        sim = run_instrs(
            MachineInstr("cp", rd=2, rr=4),
            MachineInstr("cpc", rd=3, rr=5),
            MachineInstr("brlo", target="main.less"),
            MachineInstr("ldi", rd=20, imm=0),
            MachineInstr("rjmp", target="main.end"),
            label("main.less"),
            MachineInstr("ldi", rd=20, imm=1),
            label("main.end"),
            setup_regs={2: a & 0xFF, 3: a >> 8, 4: b & 0xFF, 5: b >> 8},
        )
        assert sim.reg(20) == int(a < b)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_16bit_compare_breq(self, a, b):
        """CPC keeps Z only if every byte compared equal."""
        sim = run_instrs(
            MachineInstr("cp", rd=2, rr=4),
            MachineInstr("cpc", rd=3, rr=5),
            MachineInstr("breq", target="main.eq"),
            MachineInstr("ldi", rd=20, imm=0),
            MachineInstr("rjmp", target="main.end"),
            label("main.eq"),
            MachineInstr("ldi", rd=20, imm=1),
            label("main.end"),
            setup_regs={2: a & 0xFF, 3: a >> 8, 4: b & 0xFF, 5: b >> 8},
        )
        assert sim.reg(20) == int(a == b)

    def test_cpc_does_not_set_z_on_zero_high_byte_alone(self):
        # a = 0x0100, b = 0x0200: low bytes equal (Z set by CP), high
        # bytes differ -> CPC must clear Z.
        sim = run_instrs(
            MachineInstr("cp", rd=2, rr=4),
            MachineInstr("cpc", rd=3, rr=5),
            MachineInstr("breq", target="main.eq"),
            MachineInstr("ldi", rd=20, imm=0),
            MachineInstr("rjmp", target="main.end"),
            label("main.eq"),
            MachineInstr("ldi", rd=20, imm=1),
            label("main.end"),
            setup_regs={2: 0x00, 3: 0x01, 4: 0x00, 5: 0x02},
        )
        assert sim.reg(20) == 0


class TestMemoryAndPointer:
    def test_post_increment_load(self):
        program = [
            label("main"),
            MachineInstr("ldi", rd=30, imm=0x00),
            MachineInstr("ldi", rd=31, imm=0x01),  # Z = 0x0100
            MachineInstr("ld_zp", rd=4),
            MachineInstr("ld_z", rd=5),
            MachineInstr("halt"),
        ]
        image = assemble(program)
        sim = Simulator(image)
        sim.store(0x0100, 0x34)
        sim.store(0x0101, 0x12)
        sim.run()
        assert sim.reg(4) == 0x34
        assert sim.reg(5) == 0x12
        assert sim.pair(30) == 0x0101  # post-incremented once

    def test_push_pop_lifo(self):
        sim = run_instrs(
            MachineInstr("ldi", rd=2, imm=7),
            MachineInstr("ldi", rd=3, imm=9),
            MachineInstr("push", rd=2),
            MachineInstr("push", rd=3),
            MachineInstr("pop", rd=4),
            MachineInstr("pop", rd=5),
        )
        assert sim.reg(4) == 9
        assert sim.reg(5) == 7

    def test_call_ret_roundtrip(self):
        program = [
            label("helper"),
            MachineInstr("ldi", rd=24, imm=42),
            MachineInstr("ret"),
            label("main"),
            MachineInstr("call", target="helper"),
            MachineInstr("mov", rd=2, rr=24),
            MachineInstr("halt"),
        ]
        image = assemble(program)
        sim = Simulator(image)
        sim.run()
        assert sim.reg(2) == 42


class TestCycleCosts:
    def test_taken_branch_costs_one_more(self):
        taken = run_instrs(
            MachineInstr("clr", rd=2),  # sets Z
            MachineInstr("breq", target="main.t"),
            label("main.t"),
        )
        not_taken = run_instrs(
            MachineInstr("ldi", rd=2, imm=1),
            MachineInstr("cp", rd=2, rr=1),  # r1 = 0 -> Z clear
            MachineInstr("breq", target="main.t"),
            label("main.t"),
        )
        # taken: clr(1) + breq(1+1) + halt(1) = 4
        # not taken: ldi(1) + cp(1) + breq(1) + halt(1) = 4
        assert taken.cycles == 4
        assert not_taken.cycles == 4

    def test_rjmp_pays_no_taken_branch_penalty(self):
        sim = run_instrs(
            MachineInstr("rjmp", target="main.t"),
            MachineInstr("nop"),
            label("main.t"),
        )
        # rjmp(2) + halt(1): the table's two cycles already cover it
        assert sim.cycles == 3
        assert sim.executed == 2


class TestDispatchTable:
    """Execution semantics the per-image dispatch table must keep."""

    def test_every_mnemonic_has_a_handler(self):
        from repro.isa.instructions import OPCODES
        from repro.sim import executor

        assert set(executor._HANDLERS) == set(OPCODES)

    def test_in_sees_the_cycle_count_before_the_instruction(self):
        from repro.isa.devices import PORT_TIMER
        from repro.sim import DeviceBoard, Timer

        def timer_bit(nops):
            program = [label("main")]
            program += [MachineInstr("nop")] * nops
            program += [MachineInstr("in", rd=2, rr=PORT_TIMER), MachineInstr("halt")]
            sim = Simulator(
                assemble(program), devices=DeviceBoard(timer=Timer(period_cycles=3))
            )
            sim.run()
            return sim.reg(2)

        assert timer_bit(2) == 0  # in runs at cycle 2, before the period ends
        assert timer_bit(3) == 1  # in runs at cycle 3: the timer has fired

    def test_movw_reads_the_source_pair_before_writing(self):
        # overlapping pairs: r4:r3 <- r3:r2 must see the old r3
        sim = run_instrs(MachineInstr("movw", rd=3, rr=2), setup_regs={2: 0x11, 3: 0x22})
        assert (sim.reg(3), sim.reg(4)) == (0x11, 0x22)

    def test_jump_into_a_two_word_instruction_is_an_invalid_pc(self):
        image = assemble([
            label("main"),
            MachineInstr("ldi", rd=2, imm=1),  # words 0-1
            MachineInstr("jmp", addr=1),  # the ldi's immediate word
        ])
        sim = Simulator(image)
        with pytest.raises(SimulationError, match="invalid PC 0x0001"):
            sim.run()
        assert (sim.pc, sim.executed) == (1, 2)

    def test_ret_onto_a_pushed_byte_is_refused(self):
        image = assemble([
            label("main"),
            MachineInstr("push", rd=2),
            MachineInstr("ret"),
        ])
        with pytest.raises(SimulationError, match="unbalanced"):
            Simulator(image).run()

    def test_store_outside_sram_fails_only_when_executed(self):
        image = assemble([
            label("main"),
            MachineInstr("rjmp", target="main.end"),
            MachineInstr("sts", rd=2, addr=0x0010),
            label("main.end"),
            MachineInstr("halt"),
        ])
        assert Simulator(image).run().halted
        image = assemble([label("main"), MachineInstr("sts", rd=2, addr=0x0010)])
        with pytest.raises(SimulationError, match="outside SRAM"):
            Simulator(image).run()

    def test_step_runs_exactly_one_instruction(self):
        image = assemble([
            label("main"),
            MachineInstr("ldi", rd=2, imm=7),
            MachineInstr("call", target="f"),
            MachineInstr("halt"),
            label("f"),
            MachineInstr("ret"),
        ])
        sim = Simulator(image)
        trail = []
        while not sim.halted:
            sim.step()
            trail.append((sim.pc, sim.cycles, sim.executed))
        # ldi(1) at 0, call(4) at 2, ret(4) at 5, halt(1) at 4
        assert trail == [(2, 1, 1), (5, 5, 2), (4, 9, 3), (4, 10, 4)]
        assert sim.reg(2) == 7
        sim.step()  # a halted simulator does nothing
        assert (sim.pc, sim.cycles, sim.executed) == (4, 10, 4)
