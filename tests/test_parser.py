"""Parser unit tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import compile_source
from repro.ir import build_ir
from repro.isa.devices import SRAM_SIZE
from repro.lang import CompileError, ParseError, frontend, parse
from repro.lang import ast_nodes as ast
from repro.lang.parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH
from repro.workloads import CASES, PROGRAMS


def parse_fn(body: str) -> ast.FunctionDef:
    return parse(f"void f() {{ {body} }}").functions[0]


def first_stmt(body: str) -> ast.Stmt:
    return parse_fn(body).body.statements[0]


class TestTopLevel:
    def test_global_scalar(self):
        prog = parse("u8 x;")
        assert prog.globals[0].name == "x"
        assert str(prog.globals[0].var_type) == "u8"

    def test_global_with_init(self):
        prog = parse("u16 x = 400;")
        assert isinstance(prog.globals[0].init, ast.IntLiteral)

    def test_global_array(self):
        prog = parse("u8 buf[16];")
        assert prog.globals[0].var_type.array_length == 16

    def test_global_array_init_list(self):
        prog = parse("u8 t[3] = {1, 2, 3};")
        assert len(prog.globals[0].init_list) == 3

    def test_const_global(self):
        prog = parse("const u8 k = 5;")
        assert prog.globals[0].is_const

    def test_function_no_params(self):
        prog = parse("void f() { }")
        assert prog.functions[0].name == "f"
        assert prog.functions[0].params == []

    def test_function_params(self):
        prog = parse("u16 add(u16 a, u8 b) { return a + b; }")
        fn = prog.functions[0]
        assert [p.name for p in fn.params] == ["a", "b"]
        assert str(fn.params[1].param_type) == "u8"

    def test_decl_order_preserved(self):
        prog = parse("u8 a; void f() {} u8 b;")
        kinds = [type(item).__name__ for item in prog.decl_order]
        assert kinds == ["GlobalDecl", "FunctionDef", "GlobalDecl"]

    def test_void_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("void x;")

    def test_array_return_rejected(self):
        with pytest.raises(ParseError):
            parse("u8 f[3]() { }")

    def test_zero_length_array_rejected(self):
        with pytest.raises(ParseError):
            parse("u8 x[0];")


class TestStatements:
    def test_local_decl(self):
        stmt = first_stmt("u8 x = 1;")
        assert isinstance(stmt, ast.DeclStmt)

    def test_plain_assignment(self):
        second = parse_fn("u8 x; x = 2;").body.statements[1]
        assert isinstance(second, ast.AssignStmt)
        assert second.op == ""

    def test_compound_assignment(self):
        stmt = parse_fn("u8 x; x += 2;").body.statements[1]
        assert stmt.op == "+"

    def test_increment_sugar(self):
        stmt = parse_fn("u8 x; x++;").body.statements[1]
        assert isinstance(stmt, ast.AssignStmt)
        assert stmt.op == "+"
        assert stmt.value.value == 1

    def test_prefix_decrement(self):
        stmt = parse_fn("u8 x; --x;").body.statements[1]
        assert stmt.op == "-"

    def test_if_else(self):
        stmt = first_stmt("if (1) { } else { }")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.else_body is not None

    def test_if_without_braces(self):
        stmt = first_stmt("if (1) return;")
        assert isinstance(stmt.then_body.statements[0], ast.ReturnStmt)

    def test_else_if_chain(self):
        stmt = first_stmt("if (1) { } else if (2) { } else { }")
        nested = stmt.else_body.statements[0]
        assert isinstance(nested, ast.IfStmt)
        assert nested.else_body is not None

    def test_while(self):
        stmt = first_stmt("while (1) { break; }")
        assert isinstance(stmt, ast.WhileStmt)

    def test_for_full(self):
        stmt = first_stmt("for (u8 i = 0; i < 4; i++) { }")
        assert isinstance(stmt, ast.ForStmt)
        assert stmt.init is not None and stmt.cond is not None and stmt.step is not None

    def test_for_empty_clauses(self):
        stmt = first_stmt("for (;;) { break; }")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_break_continue(self):
        fn = parse_fn("while (1) { break; continue; }")
        body = fn.body.statements[0].body.statements
        assert isinstance(body[0], ast.BreakStmt)
        assert isinstance(body[1], ast.ContinueStmt)

    def test_return_value(self):
        stmt = first_stmt("return 3;")
        assert stmt.value.value == 3

    def test_nested_block(self):
        stmt = first_stmt("{ u8 x; }")
        assert isinstance(stmt, ast.Block)

    def test_expression_statement_call(self):
        stmt = first_stmt("halt();")
        assert isinstance(stmt, ast.ExprStmt)
        assert isinstance(stmt.expr, ast.CallExpr)


class TestExpressions:
    def expr(self, text):
        return first_stmt(f"u8 x = {text};").init

    def test_precedence_mul_over_add(self):
        expr = self.expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_shift_vs_compare(self):
        expr = self.expr("1 << 2 < 3")
        assert expr.op == "<"
        assert expr.left.op == "<<"

    def test_logical_or_loosest(self):
        expr = self.expr("1 && 2 || 3")
        assert expr.op == "||"

    def test_parentheses_override(self):
        expr = self.expr("(1 + 2) * 3")
        assert expr.op == "*"

    def test_unary_chain(self):
        expr = self.expr("-~!0")
        assert expr.op == "-"
        assert expr.operand.op == "~"

    def test_unary_plus_noop(self):
        expr = self.expr("+5")
        assert isinstance(expr, ast.IntLiteral)

    def test_left_associativity(self):
        expr = self.expr("10 - 4 - 3")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_index_expression(self):
        second = parse_fn("u8 t[4]; t[2] = 1;").body.statements[1]
        assert isinstance(second.target, ast.IndexExpr)

    def test_call_with_args(self):
        expr = self.expr("f(1, 2)")
        assert len(expr.args) == 2

    def test_assignment_to_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_fn("3 = x;")


class TestParseErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("u8 x")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_fn("u8 x = (1 + 2;")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse("void f() { u8 x;")

    def test_garbage_at_top_level(self):
        with pytest.raises(ParseError):
            parse("42;")

    def test_error_has_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse("void f() {\n  u8 = 3;\n}")
        assert excinfo.value.location.line == 2


class TestArraySize:
    """An array larger than the mote's SRAM is a ParseError at its
    length, for globals and locals alike."""

    @pytest.mark.parametrize(
        "source",
        [
            f"u8 a[{SRAM_SIZE + 1}];",
            f"u16 a[{SRAM_SIZE // 2 + 1}];",
            "u8 a[70000];",
            "u8 a[0x7fffffff];",
            "u8 a[99999999999999999999];",
            "void f() { u8 t[5000]; }",
        ],
    )
    def test_oversized_array_rejected(self, source):
        with pytest.raises(ParseError, match="larger than the 4096-byte SRAM") as excinfo:
            parse(source)
        assert excinfo.value.location.column == source.index("[") + 2

    @pytest.mark.parametrize("source", [f"u8 a[{SRAM_SIZE}];", f"u16 a[{SRAM_SIZE // 2}];"])
    def test_array_filling_sram_accepted(self, source):
        assert parse(source).globals[0].var_type.size_bytes == SRAM_SIZE

    def test_oversized_array_never_reaches_the_back_end(self):
        with pytest.raises(ParseError):
            compile_source("u8 a[70000]; void main() { a[0] = 1; halt(); }")


# -- nesting limits (C99 5.2.4.1) ------------------------------------------

#: One nesting form per expression kind the limit counts: the text
#: nested ``depth`` levels around the literal 1.
EXPR_FORMS = {
    "paren": lambda depth: "(" * depth + "1" + ")" * depth,
    "unary": lambda depth: "~!" * (depth // 2) + "~" * (depth % 2) + "1",
    "index": lambda depth: "t[" * depth + "1" + "]" * depth,
    "call": lambda depth: "g(" * depth + "1" + ")" * depth,
}

#: Ways to open one more block level inside a function body.
BLOCK_FORMS = {
    "brace": "{",
    "if": "if (x) {",
    "while": "while (x) {",
    "for": "for (x = 0; x < 1; x++) {",
}


def nested_program(blocks: int, expr: str, block_form: str = "brace") -> str:
    """``main`` whose body (block 1) holds ``blocks - 1`` more nested
    blocks around ``x = expr;``."""
    opener = BLOCK_FORMS[block_form]
    inner = opener * (blocks - 1) + f"x = {expr};" + "}" * (blocks - 1)
    return (
        "u8 x; u8 t[2];\n"
        "u8 g(u8 v) { return v; }\n"
        f"void main() {{ {inner} halt(); }}\n"
    )


class TestNestingLimits:
    @pytest.mark.parametrize("form", sorted(EXPR_FORMS))
    def test_program_at_both_limits_compiles(self, form):
        expr = EXPR_FORMS[form](MAX_EXPR_DEPTH)
        compiled = compile_source(nested_program(MAX_BLOCK_DEPTH, expr))
        assert compiled.image

    @pytest.mark.parametrize("block_form", sorted(BLOCK_FORMS))
    def test_each_block_form_lowers_at_the_limit(self, block_form):
        # Lowered only: 126 nested branches overflow an rjmp's reach in
        # the assembler, a back-end limit and not a front-end one.
        source = nested_program(MAX_BLOCK_DEPTH, "1", block_form)
        module = build_ir(frontend(source))
        assert "main" in module.functions

    @pytest.mark.parametrize("block_form", sorted(BLOCK_FORMS))
    def test_one_block_too_deep_rejected(self, block_form):
        source = nested_program(MAX_BLOCK_DEPTH + 1, "1", block_form)
        with pytest.raises(ParseError, match="blocks nested more than 127 deep"):
            parse(source)

    def test_block_error_points_at_the_crossing_brace(self):
        source = nested_program(MAX_BLOCK_DEPTH + 1, "1")
        with pytest.raises(ParseError) as excinfo:
            parse(source)
        line = source.splitlines()[2]
        # The crossing "{" is the last of the run of openers.
        assert excinfo.value.location.line == 3
        assert excinfo.value.location.column == line.index("x = ")

    def test_else_if_arms_count(self):
        # Arm k of a chain nests inside the else of arm k - 1, so its
        # body sits k + 1 blocks deep.
        def chain(arms):
            tail = " else ".join(["if (x) { x = 1; }"] * arms)
            return f"u8 x; void main() {{ {tail} halt(); }}"

        parse(chain(MAX_BLOCK_DEPTH - 1))
        with pytest.raises(ParseError, match="blocks nested"):
            parse(chain(MAX_BLOCK_DEPTH))

    def test_unbraced_bodies_count(self):
        source = (
            "u8 x; void main() { "
            + "if (x) " * MAX_BLOCK_DEPTH
            + "x = 1; halt(); }"
        )
        with pytest.raises(ParseError, match="blocks nested"):
            parse(source)
        ok = "u8 x; void main() { " + "while (x) " * (MAX_BLOCK_DEPTH - 1) + "x = 1; halt(); }"
        parse(ok)

    @pytest.mark.parametrize("form", sorted(EXPR_FORMS))
    def test_one_expression_level_too_deep_rejected(self, form):
        expr = EXPR_FORMS[form](MAX_EXPR_DEPTH + 1)
        source = nested_program(1, expr)
        with pytest.raises(ParseError, match="expression nested more than 63 deep") as excinfo:
            parse(source)
        # The error sits at the 64th opener of the nest.
        line = source.splitlines()[2]
        opener_width = {"paren": 1, "unary": 1, "index": 2, "call": 2}[form]
        start = line.index("x = ") + 4
        crossing = start + MAX_EXPR_DEPTH * opener_width
        if form in ("index", "call"):
            crossing += 1  # the "[" or "(" after the name
        assert excinfo.value.location.column == crossing + 1

    def test_deep_left_assoc_chain_is_not_nesting(self):
        # Binary operators fold iteratively: a long flat chain is fine.
        expr = " + ".join(["x"] * 200)
        program = parse(nested_program(1, expr))
        assert program.functions[-1].name == "main"


# -- front-end totality -------------------------------------------------------

CORPUS = sorted(
    set(PROGRAMS.values())
    | {case.old_source for case in CASES.values()}
    | {case.new_source for case in CASES.values()}
)

#: Fragments a mutation may insert: punctuators, keywords, literals,
#: openers that nest, and arbitrary text.
FRAGMENTS = st.one_of(
    st.sampled_from(
        ["(", ")", "{", "}", "[", "]", ";", ",", "=", "+", "-", "~", "!", "<<=",
         "if (x)", "else", "while", "for", "u8", "u16", "void", "const",
         "return", "0x", "'", "'\\", "/*", "//", "*/", "99999999999", "\n"]
    ),
    st.text(max_size=8),
)


@st.composite
def mutated_sources(draw):
    """A corpus source with a few deletions, insertions, duplications
    and truncations at drawn positions."""
    source = draw(st.sampled_from(CORPUS))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pos = draw(st.integers(min_value=0, max_value=len(source)))
        op = draw(st.sampled_from(["delete", "insert", "duplicate", "truncate"]))
        if op == "delete":
            source = source[:pos] + source[pos + draw(st.integers(1, 40)):]
        elif op == "insert":
            source = source[:pos] + draw(FRAGMENTS) + source[pos:]
        elif op == "duplicate":
            span = source[pos : pos + draw(st.integers(1, 60))]
            source = source[:pos] + span * draw(st.integers(2, 5)) + source[pos:]
        else:
            source = source[:pos]
    return source


@settings(deadline=None)
@given(source=mutated_sources())
def test_frontend_on_mutated_corpus_returns_or_raises_compile_error(source):
    """No mutation of a corpus program crashes the front end: it either
    accepts the text or raises a CompileError."""
    try:
        frontend(source)
    except CompileError:
        pass
