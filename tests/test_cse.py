"""Common-subexpression-elimination tests."""

from repro.ir import IROp, build_ir
from repro.lang import frontend
from repro.opt import eliminate_common_subexpressions, optimize_function


def lower_fn(source, name="f"):
    return build_ir(frontend(source)).functions[name]


def count_op(fn, op):
    return sum(1 for ins in fn.instrs if ins.op is op)


class TestCSE:
    def test_repeated_global_load_eliminated(self):
        fn = lower_fn("u8 g; void f() { u8 x = g + 1; u8 y = g + 2; led_set(x ^ y); }")
        assert count_op(fn, IROp.LOADG) == 2
        eliminate_common_subexpressions(fn)
        assert count_op(fn, IROp.LOADG) == 1

    def test_repeated_pure_expression_eliminated(self):
        fn = lower_fn("void f(u8 a, u8 b) { u8 x = a + b; u8 y = a + b; led_set(x ^ y); }")
        eliminate_common_subexpressions(fn)
        assert count_op(fn, IROp.ADD) == 1

    def test_store_invalidates_load(self):
        fn = lower_fn("u8 g; void f() { u8 x = g; g = 5; u8 y = g; led_set(x ^ y); }")
        eliminate_common_subexpressions(fn)
        assert count_op(fn, IROp.LOADG) == 2  # both loads must stay

    def test_call_invalidates_memory(self):
        src = """
        u8 g;
        void h() { g = 9; }
        void f() { u8 x = g; h(); u8 y = g; led_set(x ^ y); }
        """
        fn = lower_fn(src)
        eliminate_common_subexpressions(fn)
        assert count_op(fn, IROp.LOADG) == 2

    def test_array_store_invalidates_indexed_loads(self):
        src = """
        u8 t[4];
        void f(u8 i, u8 j) {
            u8 x = t[i];
            t[j] = 9;
            u8 y = t[i];
            led_set(x ^ y);
        }
        """
        fn = lower_fn(src)
        eliminate_common_subexpressions(fn)
        assert count_op(fn, IROp.LOADIDX) == 2

    def test_operand_redefinition_invalidates(self):
        fn = lower_fn(
            "void f(u8 a, u8 b) { u8 x = a + b; a = 9; u8 y = a + b; led_set(x ^ y); }"
        )
        eliminate_common_subexpressions(fn)
        assert count_op(fn, IROp.ADD) == 2

    def test_ioread_never_cse(self):
        fn = lower_fn("void f() { u8 a = timer_fired(); u8 b = timer_fired(); led_set(a ^ b); }")
        eliminate_common_subexpressions(fn)
        assert count_op(fn, IROp.IOREAD) == 2

    def test_no_cse_across_blocks(self):
        src = """
        u8 g;
        void f(u8 a) {
            u8 x = g;
            if (a) { g = 1; }
            u8 y = g;
            led_set(x ^ y);
        }
        """
        fn = lower_fn(src)
        eliminate_common_subexpressions(fn)
        assert count_op(fn, IROp.LOADG) == 2

    def test_semantics_preserved_end_to_end(self):
        from repro.core import compile_source
        from repro.sim import Simulator

        src = """
        u8 g = 10;
        u8 r;
        void main() {
            u8 x = g + 5;
            u8 y = g + 5;
            g = 1;
            u8 z = g + 5;
            r = x + y + z;
            halt();
        }
        """
        prog = compile_source(src)
        sim = Simulator(prog.image)
        sim.run()
        assert sim.load(prog.layout.addresses["r"]) == (15 + 15 + 6) & 0xFF

    def test_cse_reduces_code_size(self):
        from repro.config import CompileConfig
        from repro.core import compile_source

        src = """
        u16 g;
        u16 r;
        void main() {
            r = (g * 3) + (g * 3) + (g * 3);
            halt();
        }
        """
        small = compile_source(src, CompileConfig(optimize=True))
        big = compile_source(src, CompileConfig(optimize=False))
        assert small.size_words < big.size_words

    def test_cse_is_deterministic(self):
        src = "u8 g; void f() { u8 a = g & 1; u8 b = g & 1; led_set(a | b); }"
        fn1 = lower_fn(src)
        fn2 = lower_fn(src)
        optimize_function(fn1)
        optimize_function(fn2)
        assert [str(i) for i in fn1.instrs] == [str(i) for i in fn2.instrs]
