"""Unit tests for smaller helpers across the codebase."""

import pytest

from repro.ir import build_ir, render_expr, render_stmt_header
from repro.isa import registers as regs
from repro.lang import frontend, parse


def lower(source):
    return build_ir(frontend(source))


class TestRegisters:
    def test_allocatable_excludes_reserved(self):
        assert not set(regs.ALLOCATABLE) & set(regs.RESERVED)

    def test_callee_caller_partition(self):
        assert set(regs.CALLEE_SAVED) | set(regs.CALLER_SAVED) == set(
            regs.ALLOCATABLE
        )
        assert not set(regs.CALLEE_SAVED) & set(regs.CALLER_SAVED)

    def test_caller_saved_preferred_first(self):
        order = regs.candidates(1)
        first_callee = order.index(regs.CALLEE_SAVED[0])
        assert all(order.index(r) < first_callee for r in regs.CALLER_SAVED)

    def test_pair_bases_even_and_complete(self):
        for base in regs.PAIR_BASES:
            assert base % 2 == 0
            assert base + 1 in regs.ALLOCATABLE

    def test_crossing_candidates_all_callee_saved(self):
        for size in (1, 2):
            for base in regs.candidates(size, callee_saved_only=True):
                for unit in regs.registers_of(base, size):
                    assert unit in regs.CALLEE_SAVED

    def test_registers_of_sizes(self):
        assert regs.registers_of(4, 1) == (4,)
        assert regs.registers_of(4, 2) == (4, 5)
        with pytest.raises(ValueError):
            regs.registers_of(4, 3)

    def test_reg_name(self):
        assert regs.reg_name(0) == "r0"
        with pytest.raises(ValueError):
            regs.reg_name(32)

    def test_return_registers_are_caller_saved(self):
        assert regs.RET_LO in regs.CALLER_SAVED
        assert regs.RET_HI in regs.CALLER_SAVED


class TestUnparse:
    def expr(self, text):
        prog = parse(f"void f(u8 a, u8 b) {{ u8 x = {text}; }}")
        return prog.functions[0].body.statements[0].init

    def test_expression_rendering_parenthesised(self):
        assert render_expr(self.expr("a + b * 3")) == "(a + (b * 3))"

    def test_rendering_is_parse_stable(self):
        """Text -> AST -> text -> AST gives the same render."""
        first = render_expr(self.expr("a & 7 ^ b << 2"))
        prog2 = parse(f"void f(u8 a, u8 b) {{ u8 x = {first}; }}")
        second = render_expr(prog2.functions[0].body.statements[0].init)
        assert first == second

    def test_statement_headers(self):
        prog = parse(
            "void f(u8 a) { if (a) { } while (a) { } for (u8 i = 0; i < 3; i++) { } return; }"
        )
        stmts = prog.functions[0].body.statements
        assert render_stmt_header(stmts[0]) == "if (a)"
        assert render_stmt_header(stmts[1]) == "while (a)"
        assert render_stmt_header(stmts[2]).startswith("for (")
        assert render_stmt_header(stmts[3]) == "return;"

    def test_whitespace_insensitivity(self):
        a = parse("void f() { u8 x   =  1+2 ; }")
        b = parse("void f() { u8 x = 1 + 2; }")
        assert render_stmt_header(a.functions[0].body.statements[0]) == (
            render_stmt_header(b.functions[0].body.statements[0])
        )


class TestIRContainers:
    def test_function_render_lists_instructions(self):
        module = lower("void f() { u8 x = 1; led_set(x); }")
        text = module.functions["f"].render()
        assert "func f(" in text and "iowrite" in text

    def test_module_memory_symbols_order(self):
        module = lower(
            "u8 g1; u8 g2; void f() { u8 t[2]; t[0] = 1; led_set(t[0]); }"
        )
        uids = [s.uid for s in module.memory_symbols()]
        assert uids[:2] == ["g1", "g2"]
        assert "f.t" in uids

    def test_instruction_count_excludes_labels(self):
        module = lower("void f(u8 a) { if (a) { led_set(1); } }")
        fn = module.functions["f"]
        from repro.ir import IROp

        labels = sum(1 for i in fn.instrs if i.op is IROp.LABEL)
        assert fn.instruction_count() == len(fn.instrs) - labels

    def test_vregs_first_appearance_order(self):
        module = lower("void f(u8 a, u8 b) { u8 c = a + b; led_set(c); }")
        names = [r.name for r in module.functions["f"].vregs()]
        assert names.index("f.a") < names.index("f.c")


class TestEditScriptRender:
    def test_render_mentions_all_primitives(self):
        from repro.diff import EditScript

        script = EditScript()
        script.copy(3)
        script.insert([(0x0400,)])
        script.remove(2)
        text = script.render()
        assert "copy 3" in text and "insert 1" in text and "remove 2" in text

    def test_primitive_counts(self):
        from repro.diff import EditScript

        script = EditScript()
        script.copy(3)
        script.copy(3)
        script.remove(1)
        counts = script.primitive_counts()
        assert counts["copy"] == 2 and counts["remove"] == 1


class TestImageHelpers:
    def test_size_accounting(self, simple_program):
        image = simple_program.image
        assert image.size_bytes == 2 * image.size_words
        assert image.size_words == len(image.words())


class TestLPRender:
    def test_chunkspec_model_renders_lp(self):
        from repro.ilp import IntegerProgram

        prog = IntegerProgram(name="render-check")
        prog.add_objective("x", 2.0)
        prog.add_constraint([(1.0, "x"), (1.0, "y")], "<=", 1.0)
        text = prog.render_lp()
        assert "min:" in text and "bin x, y;" in text
