"""Differential testing: compiled programs vs a Python oracle.

Hypothesis generates random expression trees and loop programs; each is
compiled through the full pipeline (front end → opt → RA → layout →
selection → assembly), executed on the instruction-level simulator, and
checked against direct Python evaluation with AVR wrap-around
semantics.  This is the broadest correctness net over the whole
substrate.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import CompileConfig
from repro.core import compile_source
from repro.sim import Simulator

# -- expression generator -----------------------------------------------------

_BIN_OPS = ["+", "-", "*", "&", "|", "^"]
_CMP_OPS = ["==", "!=", "<", "<=", ">", ">="]
_VARS = ["a", "b", "c"]


def _expr_strategy(depth: int):
    leaf = st.one_of(
        st.integers(0, 255).map(str),
        st.sampled_from(_VARS),
    )
    if depth == 0:
        return leaf
    sub = _expr_strategy(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from(_BIN_OPS), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, st.sampled_from(_CMP_OPS), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        sub.map(lambda e: f"(~{e})"),
        sub.map(lambda e: f"(-{e})"),
        st.tuples(sub, st.integers(0, 7)).map(lambda t: f"({t[0]} << {t[1]})"),
        st.tuples(sub, st.integers(0, 7)).map(lambda t: f"({t[0]} >> {t[1]})"),
    )


def _eval_u8(expr: str, env: dict) -> int:
    """Python oracle with u8 wrap-around at every step.

    Every integer literal is wrapped in the u8 type so that unary
    operators on literals (e.g. ``~0``) follow target semantics too.
    """
    import re

    wrapped = re.sub(r"\b\d+\b", r"_U8(\g<0>)", expr)
    value = eval(  # noqa: S307 - controlled expression language
        wrapped,
        {"__builtins__": {}, "_U8": _U8},
        {k: _U8(v) for k, v in env.items()},
    )
    return int(value) & 0xFF


class _U8(int):
    """u8 with wrap-around arithmetic, mirroring the target semantics."""

    def _wrap(self, value):
        return _U8(int(value) & 0xFF)

    def __add__(self, other):
        return self._wrap(int(self) + int(other))

    def __radd__(self, other):
        return self._wrap(int(other) + int(self))

    def __sub__(self, other):
        return self._wrap(int(self) - int(other))

    def __rsub__(self, other):
        return self._wrap(int(other) - int(self))

    def __mul__(self, other):
        return self._wrap(int(self) * int(other))

    def __rmul__(self, other):
        return self._wrap(int(other) * int(self))

    def __and__(self, other):
        return self._wrap(int(self) & int(other))

    def __rand__(self, other):
        return self._wrap(int(other) & int(self))

    def __or__(self, other):
        return self._wrap(int(self) | int(other))

    def __ror__(self, other):
        return self._wrap(int(other) | int(self))

    def __xor__(self, other):
        return self._wrap(int(self) ^ int(other))

    def __rxor__(self, other):
        return self._wrap(int(other) ^ int(self))

    def __lshift__(self, other):
        return self._wrap(int(self) << (int(other) & 15))

    def __rlshift__(self, other):
        return self._wrap(int(other) << (int(self) & 15))

    def __rshift__(self, other):
        return self._wrap(int(self) >> (int(other) & 15))

    def __rrshift__(self, other):
        return self._wrap(int(other) >> (int(self) & 15))

    def __invert__(self):
        return self._wrap(~int(self))

    def __neg__(self):
        return self._wrap(-int(self))

    def __eq__(self, other):
        return _U8(1 if int(self) == int(other) else 0)

    def __ne__(self, other):
        return _U8(1 if int(self) != int(other) else 0)

    def __lt__(self, other):
        return _U8(1 if int(self) < int(other) else 0)

    def __le__(self, other):
        return _U8(1 if int(self) <= int(other) else 0)

    def __gt__(self, other):
        return _U8(1 if int(self) > int(other) else 0)

    def __ge__(self, other):
        return _U8(1 if int(self) >= int(other) else 0)

    def __hash__(self):
        return int.__hash__(self)


def _run_expr(expr: str, a: int, b: int, c: int) -> int:
    src = f"""
    u8 result;
    void main() {{
        u8 a = {a}; u8 b = {b}; u8 c = {c};
        result = {expr};
        halt();
    }}
    """
    prog = compile_source(src)
    sim = Simulator(prog.image)
    sim.run(max_cycles=200_000)
    assert sim.halted
    return sim.load(prog.layout.addresses["result"])


class TestExpressionDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        _expr_strategy(3),
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 255),
    )
    def test_u8_expressions_match_oracle(self, expr, a, b, c):
        expected = _eval_u8(expr, {"a": a, "b": b, "c": c})
        got = _run_expr(expr, a, b, c)
        assert got == expected, f"{expr} with a={a} b={b} c={c}"

    @settings(max_examples=40, deadline=None)
    @given(
        _expr_strategy(2),
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 255),
    )
    def test_unoptimized_matches_optimized(self, expr, a, b, c):
        """Optimization must not change results."""
        src = f"""
        u8 result;
        void main() {{
            u8 a = {a}; u8 b = {b}; u8 c = {c};
            result = {expr};
            halt();
        }}
        """
        progs = [compile_source(src, CompileConfig(optimize=flag)) for flag in (True, False)]
        values = []
        for prog in progs:
            sim = Simulator(prog.image)
            sim.run(max_cycles=200_000)
            values.append(sim.load(prog.layout.addresses["result"]))
        assert values[0] == values[1]

    @settings(max_examples=40, deadline=None)
    @given(
        _expr_strategy(2),
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 255),
    )
    def test_linear_scan_matches_graph_coloring(self, expr, a, b, c):
        """Allocator choice must not change results."""
        src = f"""
        u8 result;
        void main() {{
            u8 a = {a}; u8 b = {b}; u8 c = {c};
            result = {expr};
            halt();
        }}
        """
        values = []
        for ra in ("gcc", "linear"):
            prog = compile_source(src, CompileConfig(ra=ra))
            sim = Simulator(prog.image)
            sim.run(max_cycles=200_000)
            values.append(sim.load(prog.layout.addresses["result"]))
        assert values[0] == values[1]


class TestLoopDifferential:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(0, 255),
        st.sampled_from(["+", "^", "|", "&"]),
    )
    def test_accumulation_loops(self, trip, seed, op):
        src = f"""
        u8 acc = {seed};
        void main() {{
            u8 i;
            for (i = 0; i < {trip}; i++) {{ acc = acc {op} i; }}
            halt();
        }}
        """
        prog = compile_source(src)
        sim = Simulator(prog.image)
        sim.run(max_cycles=500_000)
        acc = seed
        for i in range(trip):
            if op == "+":
                acc = (acc + i) & 0xFF
            elif op == "^":
                acc ^= i
            elif op == "|":
                acc |= i
            else:
                acc &= i
        assert sim.load(prog.layout.addresses["acc"]) == acc

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=12))
    def test_array_reversal(self, values):
        n = len(values)
        inits = ", ".join(map(str, values))
        src = f"""
        u8 t[{n}] = {{{inits}}};
        void main() {{
            u8 i = 0;
            u8 j = {n - 1};
            while (i < j) {{
                u8 tmp = t[i];
                t[i] = t[j];
                t[j] = tmp;
                i++;
                j = j - 1;
            }}
            halt();
        }}
        """
        prog = compile_source(src)
        sim = Simulator(prog.image)
        sim.run(max_cycles=500_000)
        base = prog.layout.addresses["t"]
        got = [sim.load(base + k) for k in range(n)]
        assert got == list(reversed(values))
