"""CFG construction and liveness analysis tests."""

import random

from hypothesis import given, settings, strategies as st

from repro.fuzz import generate_program
from repro.ir import IROp, analyze, build_cfg, build_ir, loop_depths, static_frequencies
from repro.ir.liveness import interference_pairs
from repro.lang import frontend
from repro.opt.passes import optimize_module


def lower_fn(source, name="f"):
    return build_ir(frontend(source)).functions[name]


class TestCFG:
    def test_straight_line_single_block(self):
        fn = lower_fn("void f() { u8 x = 1; u8 y = 2; }")
        cfg = build_cfg(fn)
        assert len(cfg.blocks) == 1

    def test_if_creates_diamond(self):
        fn = lower_fn("void f(u8 a) { u8 x = 0; if (a) { x = 1; } x = 2; }")
        cfg = build_cfg(fn)
        entry = cfg.blocks[0]
        assert len(entry.successors) == 2

    def test_loop_has_back_edge(self):
        fn = lower_fn("void f(u8 a) { while (a) { a = a - 1; } }")
        cfg = build_cfg(fn)
        back_edges = [
            (b.index, s)
            for b in cfg.blocks
            for s in b.successors
            if s <= b.index
        ]
        assert back_edges

    def test_ret_block_has_no_successors(self):
        fn = lower_fn("u8 f() { return 1; }")
        cfg = build_cfg(fn)
        last = cfg.blocks[cfg.block_of[len(fn.instrs) - 1]]
        assert last.successors == []

    def test_block_of_covers_every_instruction(self):
        fn = lower_fn("void f(u8 a) { if (a) { a = 1; } else { a = 2; } }")
        cfg = build_cfg(fn)
        assert set(cfg.block_of) == set(range(len(fn.instrs)))

    def test_loop_depths_nesting(self):
        fn = lower_fn(
            "void f(u8 a) { while (a) { u8 b = a; while (b) { b = b - 1; } a = a - 1; } }"
        )
        cfg = build_cfg(fn)
        depths = loop_depths(cfg)
        assert max(depths.values()) >= 2

    def test_static_frequencies_weight_loops(self):
        fn = lower_fn("void f(u8 a) { u8 x = 0; while (a) { x = x + 1; } }")
        freqs = static_frequencies(fn)
        body_idx = next(
            i
            for i, ins in enumerate(fn.instrs)
            if "x + 1" in ins.stmt_text or (ins.dst and ins.dst.name == "f.x" and i > 0)
        )
        assert freqs[body_idx] > freqs[0]


class TestLiveness:
    def test_param_live_from_entry(self):
        fn = lower_fn("void f(u8 a) { u8 x = a; }")
        info = analyze(fn)
        assert info.intervals["f.a"].start == 0

    def test_dead_after_last_use(self):
        fn = lower_fn("void f(u8 a) { u8 x = a; u8 y = 1; }")
        info = analyze(fn)
        interval = info.intervals["f.a"]
        assert interval.end == 0  # last use at the first instruction

    def test_loop_variable_live_across_backedge(self):
        fn = lower_fn("void f(u8 a) { while (a) { a = a - 1; } }")
        info = analyze(fn)
        interval = info.intervals["f.a"]
        assert interval.end >= len(fn.instrs) - 3

    def test_last_use_detection(self):
        fn = lower_fn("void f(u8 a) { u8 x = a + 1; }")
        info = analyze(fn)
        use_index = next(
            i for i, ins in enumerate(fn.instrs) if any(r.name == "f.a" for r in ins.uses())
        )
        assert info.is_last_use(use_index, "f.a")

    def test_crosses_call_flag(self):
        src = "u8 g(u8 v) { return v; } void f(u8 a) { u8 x = g(1); u8 y = a + x; }"
        fn = lower_fn(src)
        info = analyze(fn)
        assert info.intervals["f.a"].crosses_call

    def test_call_argument_does_not_cross(self):
        src = "u8 g(u8 v) { return v; } void f() { u8 t = 1; u8 x = g(t); }"
        fn = lower_fn(src)
        info = analyze(fn)
        assert not info.intervals["f.t"].crosses_call

    def test_interference_pairs_symmetric_and_sound(self):
        fn = lower_fn("void f(u8 a, u8 b) { u8 c = a + b; u8 d = c + a; }")
        pairs = interference_pairs(analyze(fn))
        # a is used after c is defined, so a and c interfere
        assert ("f.a", "f.c") in pairs

    def test_params_interfere_with_each_other(self):
        fn = lower_fn("void f(u8 a, u8 b) { }")
        pairs = interference_pairs(analyze(fn))
        assert ("f.a", "f.b") in pairs

    def test_disjoint_lifetimes_do_not_interfere(self):
        fn = lower_fn("void f() { u8 a = 1; led_set(a); u8 b = 2; led_set(b); }")
        pairs = interference_pairs(analyze(fn))
        assert ("f.a", "f.b") not in pairs

    def test_live_sets_converge_with_branches(self):
        src = """
        void f(u8 a, u8 b) {
            u8 x;
            if (a) { x = b; } else { x = 1; }
            led_set(x);
        }
        """
        fn = lower_fn(src)
        info = analyze(fn)
        assert "f.x" in info.intervals


class TestLivenessEdgeCases:
    def test_loop_carried_range_spans_whole_loop(self):
        # s is defined before the loop, updated inside it, and read
        # after: its range must cover every loop instruction, including
        # the ones between its in-loop use and the back edge.
        src = """
        u8 f(u8 n) {
            u8 s = 0;
            u8 i;
            for (i = 0; i < n; i++) { s = s + i; led_set(i); }
            return s;
        }
        """
        fn = lower_fn(src)
        info = analyze(fn)
        interval = info.intervals["f.s"]
        loop_indices = [
            i
            for i, ins in enumerate(fn.instrs)
            if any(r.name == "f.i" for r in ins.vregs())
        ]
        assert interval.start <= min(loop_indices)
        assert interval.end >= max(loop_indices)

    def test_loop_carried_variable_live_at_backedge_source(self):
        src = "void f(u8 a) { u8 i = a; while (i) { i = i - 1; } }"
        fn = lower_fn(src)
        info = analyze(fn)
        # i must be live-out at the bottom of the loop body (the value
        # flows around the back edge into the header test)
        last_def = max(
            i
            for i, ins in enumerate(fn.instrs)
            if any(r.name == "f.i" for r in ins.defs())
        )
        assert "f.i" in info.live_out[last_def]

    def test_crosses_call_false_when_result_immediately_dead(self):
        # x never outlives the call that produces it, and nothing else
        # is live across the call, so no interval may claim crosses_call
        # (which would force a callee-saved register for no reason).
        src = "u8 g(u8 v) { return v; } void f() { u8 x = g(1); }"
        fn = lower_fn(src)
        info = analyze(fn)
        assert not info.intervals["f.x"].crosses_call

    def test_crosses_call_true_only_for_values_spanning_the_call(self):
        src = """
        u8 g(u8 v) { return v; }
        void f(u8 a) { u8 t = 1; u8 x = g(t); led_set(a + x); }
        """
        fn = lower_fn(src)
        info = analyze(fn)
        assert info.intervals["f.a"].crosses_call  # live across g()
        assert not info.intervals["f.t"].crosses_call  # dies at the call
        assert not info.intervals["f.x"].crosses_call  # born at the call

    def test_param_param_interference_with_single_use(self):
        # b is read later, so a and b coexist at entry even though a is
        # consumed first — interference_pairs must include the pair.
        fn = lower_fn("u8 f(u8 a, u8 b) { u8 x = a + 1; return x + b; }")
        pairs = interference_pairs(analyze(fn))
        assert ("f.a", "f.b") in pairs
        # pairs are canonicalised (sorted), so the mirror is implied
        assert all(left < right for left, right in pairs)


# -- property oracle: liveness by per-name reachability ---------------------


def instruction_successors(fn) -> list:
    """Instructions that may run after each instruction, read off the IR
    itself (no CFG): a branch goes to its labels, RET/HALT nowhere,
    anything else to the next instruction."""
    labels = {
        ins.args[0].name: idx
        for idx, ins in enumerate(fn.instrs)
        if ins.op is IROp.LABEL
    }
    succs = []
    for idx, ins in enumerate(fn.instrs):
        if ins.op is IROp.JUMP:
            succs.append([labels[ins.args[0].name]])
        elif ins.op is IROp.CBR:
            succs.append([labels[arg.name] for arg in ins.args[1:]])
        elif ins.op in (IROp.RET, IROp.HALT) or idx + 1 == len(fn.instrs):
            succs.append([])
        else:
            succs.append([idx + 1])
    return succs


def reference_liveness(fn):
    """``(live_in, live_out)`` per instruction, one name at a time.

    A name is live into ``i`` iff some path from ``i`` reaches a use of
    it before any def; it is live out of ``i`` iff it is live into some
    successor.  Walking backwards from each use, stopping at defs,
    finds exactly the instructions it is live into.
    """
    instrs = fn.instrs
    succs = instruction_successors(fn)
    preds = [[] for _ in instrs]
    for idx, targets in enumerate(succs):
        for target in targets:
            preds[target].append(idx)
    uses = [{r.name for r in ins.uses()} for ins in instrs]
    defs = [{r.name for r in ins.defs()} for ins in instrs]
    live_in = [set() for _ in instrs]
    for name in set().union(*uses):
        reached = {idx for idx, used in enumerate(uses) if name in used}
        stack = list(reached)
        while stack:
            for pred in preds[stack.pop()]:
                if pred not in reached and name not in defs[pred]:
                    reached.add(pred)
                    stack.append(pred)
        for idx in reached:
            live_in[idx].add(name)
    live_out = [set().union(*(live_in[t] for t in targets)) for targets in succs]
    return live_in, live_out


def assert_liveness_matches_reference(fn) -> None:
    info = analyze(fn)
    live_in, live_out = reference_liveness(fn)
    assert info.live_in == live_in
    assert info.live_out == live_out

    # Intervals: [first, last] over the indices where the name is
    # defined, used, live-in or live-out; parameters start at 0.
    seen: dict = {reg.name: [0] for reg in fn.param_vregs}
    for idx, ins in enumerate(fn.instrs):
        names = {r.name for r in ins.vregs()} | live_in[idx] | live_out[idx]
        for name in names:
            seen.setdefault(name, []).append(idx)
    assert set(info.intervals) == set(seen)
    for name, indices in seen.items():
        interval = info.intervals[name]
        assert (interval.start, interval.end) == (min(indices), max(indices)), name
        assert interval.vreg.name == name
        # crosses_call: live across a CALL, i.e. into and out of it,
        # and not the call's own result.
        crosses = any(
            ins.op is IROp.CALL
            and name in live_in[idx]
            and name in live_out[idx]
            and name not in {r.name for r in ins.defs()}
            for idx, ins in enumerate(fn.instrs)
        )
        assert interval.crosses_call == crosses, name
    starts = [(iv.start, name) for name, iv in info.intervals.items()]
    assert starts == sorted(starts)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_liveness_matches_per_name_reachability(seed):
    """analyze() agrees with per-name backward reachability over the
    instruction successors, on the unoptimised and the optimised IR of
    a generated program."""
    program = generate_program(random.Random(seed)).render()
    module = build_ir(frontend(program))
    for fn in module.functions.values():
        assert_liveness_matches_reference(fn)
    optimize_module(module)
    for fn in module.functions.values():
        assert_liveness_matches_reference(fn)
