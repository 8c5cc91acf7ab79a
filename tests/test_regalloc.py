"""Register-allocation tests: baselines, chunks, preferences, UCC-RA."""

import pytest

from repro.core import Compiler, compile_source
from repro.ir import analyze, build_ir
from repro.isa import registers as regs
from repro.lang import frontend
from repro.config import UpdateConfig
from repro.regalloc import (
    AllocationError,
    Placement,
    allocate_graph_coloring,
    allocate_linear_scan,
    allocate_ucc_greedy,
    build_chunks,
    build_preferences,
    changed_indices,
    match_ir,
    verify_allocation,
)


def lower_fn(source, name="f"):
    return build_ir(frontend(source)).functions[name]


def front_middle(source):
    return Compiler().front_and_middle(source)


class TestPlacement:
    def test_single_piece_lookup(self):
        p = Placement(vreg="x", size=1)
        p.add_piece(0, 10, 4)
        assert p.reg_at(5) == 4
        assert p.reg_at(11) is None

    def test_multi_piece_lookup(self):
        p = Placement(vreg="x", size=1)
        p.add_piece(0, 4, 2)
        p.add_piece(5, 9, 6)
        assert p.reg_at(4) == 2
        assert p.reg_at(5) == 6

    def test_overlapping_pieces_rejected(self):
        p = Placement(vreg="x", size=1)
        p.add_piece(0, 5, 2)
        with pytest.raises(AllocationError):
            p.add_piece(5, 8, 3)

    def test_pair_physical_regs(self):
        p = Placement(vreg="x", size=2)
        p.add_piece(0, 3, 4)
        assert p.physical_regs_at(1) == (4, 5)


class TestBaselines:
    @pytest.mark.parametrize("alloc", [allocate_graph_coloring, allocate_linear_scan])
    def test_allocation_verifies(self, alloc):
        fn = lower_fn(
            "u8 g; void f(u8 a, u8 b) { u8 c = a + b; u8 d = c + g; led_set(d); }"
        )
        record = alloc(fn)
        verify_allocation(record, analyze(fn))

    @pytest.mark.parametrize("alloc", [allocate_graph_coloring, allocate_linear_scan])
    def test_deterministic(self, alloc):
        src = "void f(u8 a, u8 b, u8 c) { u8 d = a + b; u8 e = d + c; led_set(e); }"
        first = alloc(lower_fn(src))
        second = alloc(lower_fn(src))
        for name in first.placements:
            assert first.placements[name].pieces == second.placements[name].pieces

    def test_u16_gets_even_pair(self):
        fn = lower_fn("void f(u16 a) { u16 b = a + 1; radio_send(b); }")
        record = allocate_graph_coloring(fn)
        for placement in record.placements.values():
            if placement.size == 2 and placement.pieces:
                assert placement.pieces[0].base % 2 == 0

    def test_call_crossing_vreg_in_callee_saved(self):
        src = "u8 g(u8 v) { return v; } void f(u8 a) { u8 x = g(1); led_set(a + x); }"
        module = build_ir(frontend(src))
        record = allocate_graph_coloring(module.functions["f"])
        placement = record.placements["f.a"]
        assert not placement.spilled
        assert placement.pieces[0].base in regs.CALLEE_SAVED

    def test_reserved_registers_never_assigned(self):
        fn = lower_fn(
            "void f(u8 a, u8 b) { u8 c = a + b; u8 d = c ^ a; u8 e = d | b; led_set(e); }"
        )
        for alloc in (allocate_graph_coloring, allocate_linear_scan):
            record = alloc(fn)
            for placement in record.placements.values():
                for piece in placement.pieces:
                    for unit in regs.registers_of(piece.base, placement.size):
                        assert unit not in regs.RESERVED

    def test_high_pressure_spills(self):
        # 30 simultaneously-live u8 values exceed the 24 allocatable regs.
        decls = "".join(f"u8 v{i} = {i};" for i in range(30))
        uses = " + ".join(f"v{i}" for i in range(30))
        fn = lower_fn(f"void f() {{ {decls} led_set({uses}); }}")
        record = allocate_graph_coloring(fn)
        assert record.spilled_vregs()
        verify_allocation(record, analyze(fn))

    def test_allocations_are_update_oblivious(self):
        """The baseline depends only on the new IR: inserting a variable
        early can shift downstream assignments (the paper's premise)."""
        base = "void f(u8 a) { u8 x = a + 1; u8 y = x + 2; led_set(y); }"
        edited = "void f(u8 a) { u8 n = a ^ 3; u8 x = a + 1; u8 y = x + n; led_set(y); }"
        rec1 = allocate_linear_scan(lower_fn(base))
        rec2 = allocate_linear_scan(lower_fn(edited))
        moved = [
            name
            for name in rec1.placements
            if name in rec2.placements
            and rec1.placements[name].pieces
            and rec2.placements[name].pieces
            and rec1.placements[name].pieces[0].base
            != rec2.placements[name].pieces[0].base
        ]
        assert moved  # at least one surviving variable changed register


class TestChunks:
    def _match(self, old_src, new_src, name="f"):
        old_fn = front_middle(old_src).functions[name]
        new_fn = front_middle(new_src).functions[name]
        return old_fn, new_fn, match_ir(old_fn, new_fn)

    def test_identical_ir_fully_matched(self):
        src = "void f(u8 a) { u8 x = a + 1; led_set(x); }"
        old_fn, new_fn, match = self._match(src, src)
        assert len(match.new_to_old) == len(new_fn.instrs)

    def test_identical_ir_single_unchanged_chunk(self):
        src = "void f(u8 a) { u8 x = a + 1; led_set(x); }"
        _, new_fn, match = self._match(src, src)
        chunks = build_chunks(new_fn, match)
        assert len(chunks) == 1 and not chunks[0].changed

    def test_inserted_statement_marked_changed(self):
        old = "void f(u8 a) { u8 x = a + 1; led_set(x); }"
        new = "void f(u8 a) { u8 x = a + 1; u8 y = x ^ 9; led_set(x); radio_send(y); }"
        _, new_fn, match = self._match(old, new)
        changed = changed_indices(new_fn, match)
        assert changed

    def test_small_unchanged_runs_merged(self):
        old = "void f(u8 a) { u8 x = a + 1; u8 y = a + 2; u8 z = a + 3; led_set(x + y + z); }"
        new = "void f(u8 a) { u8 x = a ^ 1; u8 y = a + 2; u8 z = a ^ 3; led_set(x + y + z); }"
        _, new_fn, match = self._match(old, new)
        chunks = build_chunks(new_fn, match, k=4)
        # the single unchanged instruction between the two changes merges
        changed_spans = [c for c in chunks if c.changed]
        assert len(changed_spans) == 1

    def test_k_zero_keeps_small_runs(self):
        old = "void f(u8 a) { u8 x = a + 1; u8 y = a + 2; u8 z = a + 3; led_set(x + y + z); }"
        new = "void f(u8 a) { u8 x = a ^ 1; u8 y = a + 2; u8 z = a ^ 3; led_set(x + y + z); }"
        _, new_fn, match = self._match(old, new)
        small_k = build_chunks(new_fn, match, k=0)
        big_k = build_chunks(new_fn, match, k=10)
        assert len(small_k) >= len(big_k)

    def test_chunks_partition_whole_function(self):
        old = "void f(u8 a) { u8 x = a + 1; led_set(x); }"
        new = "void f(u8 a) { u8 x = a + 2; led_set(x); radio_send(x); }"
        _, new_fn, match = self._match(old, new)
        chunks = build_chunks(new_fn, match)
        assert chunks[0].start == 0
        assert chunks[-1].end == len(new_fn.instrs)
        for first, second in zip(chunks, chunks[1:]):
            assert first.end == second.start


class TestPreferences:
    def test_tags_come_from_old_placement(self):
        src = "void f(u8 a) { u8 x = a + 1; led_set(x); }"
        module = front_middle(src)
        fn = module.functions["f"]
        old_record = allocate_graph_coloring(fn)
        match = match_ir(fn, fn)
        prefs = build_preferences(fn, fn, old_record, match)
        for (name, _), reg in prefs.tags.items():
            assert old_record.placements[name].sole_register == reg

    def test_spilled_variable_flagged(self):
        decls = "".join(f"u8 v{i} = {i};" for i in range(30))
        uses = " + ".join(f"v{i}" for i in range(30))
        src = f"void f() {{ {decls} led_set({uses}); }}"
        fn = front_middle(src).functions["f"]
        old_record = allocate_graph_coloring(fn)
        prefs = build_preferences(fn, fn, old_record, match_ir(fn, fn))
        assert any(prefs.was_spilled.values())

    def test_dominant_preference_majority(self):
        src = "void f(u8 a) { u8 x = a + 1; led_set(x); led_set(x ^ 1); }"
        fn = front_middle(src).functions["f"]
        old_record = allocate_graph_coloring(fn)
        prefs = build_preferences(fn, fn, old_record, match_ir(fn, fn))
        assert prefs.variable_preference("f.x") == old_record.placements["f.x"].sole_register


class TestUCCGreedy:
    def test_self_update_reproduces_allocation_exactly(self, simple_source):
        old = compile_source(simple_source)
        module = front_middle(simple_source)
        for name, fn in module.functions.items():
            record, report = allocate_ucc_greedy(
                fn, old.module.functions[name], old.records[name]
            )
            assert report.tags_broken == 0
            verify_allocation(record, analyze(fn))
            for vreg, placement in record.placements.items():
                old_placement = old.records[name].placements[vreg]
                if old_placement.spilled:
                    assert placement.spilled
                else:
                    assert placement.sole_register == old_placement.sole_register

    def test_unchanged_code_keeps_old_registers_after_edit(self):
        old_src = "u8 g; void f(u8 a) { u8 x = a + 1; g = x; led_set(x); } void main() { f(1); halt(); }"
        new_src = "u8 g; void f(u8 a) { u8 n = a ^ 5; u8 x = a + 1; g = x ^ n; led_set(x); } void main() { f(1); halt(); }"
        old = compile_source(old_src)
        new_fn = front_middle(new_src).functions["f"]
        record, report = allocate_ucc_greedy(
            new_fn, old.module.functions["f"], old.records["f"]
        )
        verify_allocation(record, analyze(new_fn))
        old_x = old.records["f"].placements["f.x"].sole_register
        assert record.placements["f.x"].reg_at(record.placements["f.x"].pieces[0].start) == old_x

    # The paper's Figure 4 scenario: a and b had disjoint live ranges
    # sharing one register; the update extends a's range across b's
    # definition, so b's preferred register is busy at its def but frees
    # before a long unchanged tail of b-uses.
    FIG4_TAIL = "\n".join("    g = g ^ b;" for _ in range(8))
    FIG4_OLD = (
        f"u8 g;\nvoid f(u8 a) {{\n    g = g + a;\n    u8 b = g & 3;\n{FIG4_TAIL}\n}}\n"
        "void main() { f(1); halt(); }"
    )
    FIG4_NEW = (
        "u8 g;\nvoid f(u8 a) {\n    g = g + a;\n    u8 b = g & 3;\n"
        "    g = g + a;\n" + FIG4_TAIL + "\n}\nvoid main() { f(1); halt(); }"
    )

    def test_move_insertion_in_figure4_scenario(self):
        """Figure 4(c): UCC-RA splits b's live range with a mov at the
        unchanged-chunk boundary and keeps the tail byte-identical."""
        old = compile_source(self.FIG4_OLD)
        new_fn = front_middle(self.FIG4_NEW).functions["f"]
        record, report = allocate_ucc_greedy(
            new_fn, old.module.functions["f"], old.records["f"], expected_runs=1.0
        )
        verify_allocation(record, analyze(new_fn))
        assert report.moves_inserted == 1
        move = record.moves[0]
        assert move.src != move.dst
        # b ends up in its old register for the tail piece.
        placement = record.placements["f.b"]
        assert len(placement.pieces) == 2
        old_reg = old.records["f"].placements["f.b"].sole_register
        assert placement.pieces[-1].base == old_reg

    def test_figure4_move_reduces_diff(self):
        """End to end: the inserted mov keeps the tail byte-identical,
        so the script shrinks versus the no-mov compilation."""
        from repro.core import plan_update

        old = compile_source(self.FIG4_OLD)
        with_mov = plan_update(old, self.FIG4_NEW, config=UpdateConfig(ra="ucc", expected_runs=1.0))
        without = plan_update(old, self.FIG4_NEW, config=UpdateConfig(ra="ucc", expected_runs=1e9))
        assert with_mov.moves_inserted() == 1
        assert without.moves_inserted() == 0
        assert with_mov.diff_inst < without.diff_inst

    # A shrunk fuzz pair (seed 2026): one statement inserted at the top
    # of fn0.  In the new IR, i0 is dead from IR 8 through IR 11 and is
    # redefined at IR 13, inside the unchanged chunk that starts at
    # IR 12, so returning it to its old register there needs no move.
    DEAD_SWITCH_OLD = """
u16 g0 = 46388;
u8 g1 = 151;
u8 arr0[3];

u16 fn0(u16 p0, u8 p1) {
    u16 t0 = 58;
    u16 t1 = 195;
    u16 i0 = 0;
    t0 = ((g1 * i0) | t1);
    arr0[1] = ((t0 >= g1) ^ g1);
    for (i0 = 0; i0 < 6; i0++) {
    }
}

void main() {
    halt();
}
"""
    DEAD_SWITCH_NEW = DEAD_SWITCH_OLD.replace(
        "u8 p1) {\n", "u8 p1) {\n    led_set((g0 | g1));\n"
    )

    def test_switch_across_live_range_hole_inserts_no_move(self):
        from repro.analysis import verify_update
        from repro.core import plan_update

        assert self.DEAD_SWITCH_NEW != self.DEAD_SWITCH_OLD
        old = compile_source(self.DEAD_SWITCH_OLD)
        result = plan_update(old, self.DEAD_SWITCH_NEW, config=UpdateConfig(ra="ucc"))
        assert verify_update(result).ok
        moved = [m.vreg for m in result.new.records["fn0"].moves]
        assert "fn0.i0" not in moved
        assert result.moves_inserted() == len(moved)

    def test_huge_cnt_disables_move_insertion(self):
        """Paper §5.5: with a very large execution count the energy
        model rejects mov insertion (UCC falls back to GCC quality)."""
        old = compile_source(self.FIG4_OLD)
        new_fn = front_middle(self.FIG4_NEW).functions["f"]
        _, report_small = allocate_ucc_greedy(
            new_fn, old.module.functions["f"], old.records["f"], expected_runs=1.0
        )
        _, report_huge = allocate_ucc_greedy(
            new_fn, old.module.functions["f"], old.records["f"], expected_runs=1e9
        )
        assert report_small.moves_inserted == 1
        assert report_huge.moves_inserted == 0
        assert report_huge.moves_rejected >= 1
