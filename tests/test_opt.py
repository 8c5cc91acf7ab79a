"""Optimizer pass tests."""

from repro.ir import IROp, Imm, build_ir
from repro.lang import frontend
from repro.opt import (
    eliminate_dead_code,
    fold_constants,
    optimize_function,
    optimize_module,
    propagate_copies,
    remove_unreachable,
)


def lower_fn(source, name="f"):
    return build_ir(frontend(source)).functions[name]


class TestConstantFolding:
    def test_fold_add(self):
        fn = lower_fn("void f() { u8 x = 2 + 3; }")
        # Sema constant-folds nothing for locals; the IR has the add.
        fold_constants(fn)
        movs = [i for i in fn.instrs if i.op is IROp.MOV and i.dst.name == "f.x"]
        assert movs and isinstance(movs[0].args[0], Imm)
        assert movs[0].args[0].value == 5

    def test_fold_wraps_to_width(self):
        fn = lower_fn("void f() { u8 x = 200 + 100; }")
        fold_constants(fn)
        movs = [i for i in fn.instrs if i.op is IROp.MOV and i.dst and i.dst.name == "f.x"]
        assert movs[0].args[0].value == (200 + 100) & 0xFF

    def test_fold_comparison(self):
        fn = lower_fn("void f() { u8 x = 3 < 4; }")
        fold_constants(fn)
        movs = [i for i in fn.instrs if i.op is IROp.MOV and i.dst.name == "f.x"]
        assert movs[0].args[0].value == 1

    def test_division_by_zero_not_folded(self):
        fn = lower_fn("void f(u8 a) { u8 x = a; x = 1 / (x - x); }")
        # the expression isn't constant at the IR level here; just make
        # sure folding never crashes on div ops
        fold_constants(fn)

    def test_identity_add_zero(self):
        fn = lower_fn("void f(u8 a) { u8 x = a + 0; }")
        changed = fold_constants(fn)
        assert changed
        assert not any(i.op is IROp.ADD for i in fn.instrs)

    def test_multiply_by_zero(self):
        fn = lower_fn("void f(u8 a) { u8 x = a * 0; }")
        fold_constants(fn)
        movs = [i for i in fn.instrs if i.op is IROp.MOV and i.dst.name == "f.x"]
        assert isinstance(movs[0].args[0], Imm) and movs[0].args[0].value == 0

    def test_fold_unary_not(self):
        fn = lower_fn("void f() { u8 x = ~5; }")
        fold_constants(fn)
        movs = [i for i in fn.instrs if i.op is IROp.MOV and i.dst.name == "f.x"]
        assert movs[0].args[0].value == (~5) & 0xFF


class TestCopyPropagation:
    def test_temp_copy_forwarded(self):
        fn = lower_fn("u8 g; void f() { u8 x = g; led_set(x); }")
        # x = loadg g; iowrite x — no temp copy chain here; construct one:
        propagate_copies(fn)  # must not crash / change semantics

    def test_propagation_enables_dce(self):
        fn = lower_fn("void f(u8 a) { u8 x = a; u8 y = x + 1; led_set(y); }")
        rounds = optimize_function(fn)
        assert rounds >= 1
        # y's computation must still feed the iowrite
        assert any(i.op is IROp.IOWRITE for i in fn.instrs)

    def test_no_propagation_across_redefinition(self):
        src = "void f(u8 a) { u8 x = a; a = 9; led_set(x); }"
        fn = lower_fn(src)
        optimize_function(fn)
        # semantics preserved: check via interpreter-level test elsewhere;
        # here, x's use must not have been replaced by the re-defined a.
        write = next(i for i in fn.instrs if i.op is IROp.IOWRITE)
        assert not (hasattr(write.args[1], "name") and write.args[1].name == "f.a")


class TestDCE:
    def test_dead_def_removed(self):
        fn = lower_fn("void f() { u8 unused = 3; halt(); }")
        changed = eliminate_dead_code(fn)
        assert changed
        assert not any(
            i.dst is not None and i.dst.name == "f.unused" for i in fn.instrs
        )

    def test_side_effecting_ops_kept(self):
        fn = lower_fn("u8 g; void f() { g = 1; halt(); }")
        eliminate_dead_code(fn)
        assert any(i.op is IROp.STOREG for i in fn.instrs)

    def test_ioread_never_deleted(self):
        # reading the timer clears its flag: a side effect
        fn = lower_fn("void f() { u8 t = timer_fired(); halt(); }")
        eliminate_dead_code(fn)
        assert any(i.op is IROp.IOREAD for i in fn.instrs)

    def test_duplicate_zero_init_removed(self):
        fn = lower_fn("void f() { u8 i; for (i = 0; i < 3; i++) { led_set(i); } }")
        optimize_function(fn)
        zero_movs = [
            i
            for i in fn.instrs
            if i.op is IROp.MOV
            and i.dst
            and i.dst.name == "f.i"
            and isinstance(i.args[0], Imm)
            and i.args[0].value == 0
        ]
        assert len(zero_movs) == 1


class TestUnreachable:
    def test_code_after_halt_removed(self):
        fn = lower_fn("void f() { halt(); led_set(1); }")
        remove_unreachable(fn)
        assert not any(i.op is IROp.IOWRITE for i in fn.instrs)

    def test_reachable_code_kept(self):
        fn = lower_fn("void f(u8 a) { if (a) { led_set(1); } led_set(2); }")
        remove_unreachable(fn)
        writes = [i for i in fn.instrs if i.op is IROp.IOWRITE]
        assert len(writes) == 2


class TestDeterminismAndSemantics:
    def test_optimization_is_deterministic(self):
        src = "u8 g; void f(u8 a) { u8 x = g + a; u8 y = x * 2; led_set(y); }"
        fn1 = lower_fn(src)
        fn2 = lower_fn(src)
        optimize_function(fn1)
        optimize_function(fn2)
        assert [str(i) for i in fn1.instrs] == [str(i) for i in fn2.instrs]

    def test_optimized_program_still_correct(self):
        """Optimization must not change observable behaviour."""
        from repro.config import CompileConfig
        from repro.core import compile_source
        from repro.sim import run_image

        src = """
        u16 acc = 0;
        void main() {
            u8 i;
            for (i = 0; i < 10; i++) { acc = acc + i * 2 + 1; }
            radio_send(acc);
            halt();
        }
        """
        opt = compile_source(src, CompileConfig(optimize=True))
        unopt = compile_source(src, CompileConfig(optimize=False))
        sent_opt = run_image(opt.image).devices.radio.sent
        sent_unopt = run_image(unopt.image).devices.radio.sent
        expected = sum(i * 2 + 1 for i in range(10))
        assert sent_opt == sent_unopt == [expected]

    def test_optimize_module_covers_all_functions(self):
        module = build_ir(frontend("void f() { u8 x = 1 + 1; } void g() { u8 y = 2 + 2; }"))
        optimize_module(module)
        for fn in module.functions.values():
            assert not any(i.op is IROp.ADD for i in fn.instrs)
