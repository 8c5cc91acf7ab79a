"""Code-placement tests (the paper's future-work dimension, see
repro.codegen.placement)."""


from repro.codegen.placement import (
    PlacementPlan,
    apply_placement,
    baseline_placement,
    code_size_words,
    ucc_placement,
)
from repro.core import Compiler, compile_source, plan_update
from repro.isa.instructions import MachineInstr
from repro.sim import run_image
from repro.config import CompileConfig, UpdateConfig


class TestPlans:
    def test_baseline_packs_densely(self):
        plan = baseline_placement({"a": 10, "b": 20}, ["a", "b"])
        assert plan.slot("a").start == 0
        assert plan.slot("b").start == 10
        assert plan.total_words == 30
        assert plan.total_padding == 0

    def test_headroom_adds_slack(self):
        plan = baseline_placement({"a": 10, "b": 20}, ["a", "b"], headroom=4)
        assert plan.slot("b").start == 14
        assert plan.total_padding == 8

    def test_ucc_keeps_addresses_when_fits(self):
        old = baseline_placement({"a": 10, "b": 20, "c": 5}, ["a", "b", "c"])
        new = ucc_placement({"a": 8, "b": 20, "c": 5}, ["a", "b", "c"], old)
        # a shrank: b and c keep their addresses; a's slot padded.
        assert new.slot("b").start == old.slot("b").start
        assert new.slot("c").start == old.slot("c").start
        assert new.slot("a").padding_words == 2

    def test_ucc_grower_shifts_only_successors(self):
        old = baseline_placement({"a": 10, "b": 20, "c": 5}, ["a", "b", "c"])
        new = ucc_placement({"a": 10, "b": 25, "c": 5}, ["a", "b", "c"], old)
        assert new.slot("a").start == old.slot("a").start
        assert new.slot("b").start == old.slot("b").start  # grows in place
        assert new.slot("c").start > old.slot("c").start  # pushed

    def test_ucc_newcomer_appends(self):
        old = baseline_placement({"a": 10}, ["a"])
        new = ucc_placement({"a": 10, "z": 7}, ["z", "a"], old)
        assert new.slot("a").start == 0
        assert new.slot("z").start == 10

    def test_ucc_deleted_function_shifts_successors_down(self):
        old = baseline_placement({"a": 10, "b": 20, "c": 5}, ["a", "b", "c"])
        new = ucc_placement({"a": 10, "c": 5}, ["a", "c"], old)
        # b deleted: c may move down (its old address is unreachable
        # anyway once b's call sites are gone) but never overlaps a.
        assert new.slot("c").start >= 10

    def test_headroom_absorbs_growth(self):
        old = baseline_placement({"a": 10, "b": 20}, ["a", "b"], headroom=4)
        new = ucc_placement({"a": 13, "b": 20}, ["a", "b"], old, headroom=4)
        assert new.slot("a").start == old.slot("a").start
        assert new.slot("b").start == old.slot("b").start  # absorbed!
        assert new.stable_functions(old) == ["a", "b"]

    def test_apply_placement_emits_gap_and_tail_nops(self):
        code = {
            "a": [MachineInstr("nop"), MachineInstr("ret")],
            "b": [MachineInstr("halt")],
        }
        plan = PlacementPlan(algorithm="test")
        from repro.codegen.placement import FunctionSlot

        plan.slots = [
            FunctionSlot("a", 0, 2, 4),
            FunctionSlot("b", 6, 1, 1),  # gap of 2 before b
        ]
        out = apply_placement(code, plan)
        assert code_size_words(out) == 7
        pads = [i for i in out if i.comment == "<pad>"]
        assert len(pads) == 4  # 2 slot-tail + 2 gap


class TestEndToEnd:
    SRC = """
    u8 g;
    void first() { g = g + 1; }
    void second() { g = g + 2; }
    void third() { g = g + 3; }
    void main() { first(); second(); third(); halt(); }
    """

    def test_growth_keeps_predecessors_stable(self):
        """Growing `third` under UCC placement leaves first/second at
        their addresses; under baseline packing they stay too (they
        precede the grower), so the interesting check is that UCC is
        never worse and predecessors never move."""
        old = compile_source(self.SRC)
        new_src = self.SRC.replace("g = g + 3;", "g = g + 3; g = g ^ 9; led_set(g);")
        ucc = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc", cp="ucc"))
        baseline = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc", cp="gcc"))
        assert ucc.diff_inst <= baseline.diff_inst
        stable = ucc.new.placement.stable_functions(old.placement)
        assert {"first", "second", "third"} <= set(stable)

    def test_shrink_padding_vs_shift_trade(self):
        """Shrinking `first`: UCC placement pads the slot (addresses
        stable, pad NOPs transmitted), baseline packing shifts
        successors (call sites re-encode).  Which costs less depends on
        the call graph — the auto mode must pick the cheaper one."""
        old = compile_source(self.SRC)
        new_src = self.SRC.replace("void first() { g = g + 1; }", "void first() { }")
        padded = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc", cp="ucc"))
        shifted = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc", cp="gcc"))
        auto = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc"))  # cp=auto
        stable = set(padded.new.placement.stable_functions(old.placement))
        assert {"first", "second", "third", "main"} <= stable
        assert padded.new.placement.total_padding > 0
        assert auto.code_script_bytes <= min(
            padded.code_script_bytes, shifted.code_script_bytes
        )

    def test_relocate_growers_tombstones(self):
        """The optional tombstone policy: a grower moves to the end and
        its old bytes stay, so successors keep their addresses."""
        old = baseline_placement({"a": 10, "b": 20, "c": 5}, ["a", "b", "c"])
        raw = {"a": tuple(range(10))}
        new = ucc_placement(
            {"a": 14, "b": 20, "c": 5},
            ["a", "b", "c"],
            old,
            old_slot_words=raw,
            relocate_growers=True,
        )
        assert new.slot("b").start == old.slot("b").start
        assert new.slot("c").start == old.slot("c").start
        assert new.tombstones and new.tombstones[0].words == raw["a"]
        assert new.slot("a").start >= old.slot("c").start + 5

    def test_padded_binary_still_correct(self):
        prog = Compiler(CompileConfig(placement_headroom=6)).compile(self.SRC)
        sim_result = run_image(prog.image)
        assert sim_result.halted
        # g = 1 + 2 + 3
        from repro.sim import Simulator

        sim = Simulator(prog.image)
        sim.run()
        assert sim.load(prog.layout.addresses["g"]) == 6

    def test_headroom_roundtrip_through_update(self):
        old = Compiler(CompileConfig(placement_headroom=8)).compile(self.SRC)
        new_src = self.SRC.replace("g = g + 2;", "g = g + 2; g = g | 1;")
        result = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc"))
        # growth absorbed by headroom: every function keeps its address
        stable = result.new.placement.stable_functions(old.placement)
        assert set(stable) == {"first", "second", "third", "main"}

    def test_plan_matches_assembled_symbols(self):
        prog = compile_source(self.SRC)
        for slot in prog.placement.slots:
            assert prog.image.symbols[slot.name] == slot.start
