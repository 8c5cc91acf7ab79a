"""Parser for ucc-C: recursive descent for statements, precedence
climbing for binary expressions.

Grammar (EBNF; the lexer drops whitespace and comments)::

    program      = { global_decl | function_def } ;
    global_decl  = ["const"] type IDENT [ "[" INT "]" ] [ "=" init ] ";" ;
    function_def = type IDENT "(" [ params ] ")" block ;
    params       = type IDENT { "," type IDENT } ;
    type         = "u8" | "u16" | "void" ;
    block        = "{" { statement } "}" ;
    statement    = decl | if | while | for | return | break ";"
                 | continue ";" | block | expr_or_assign ";" ;
    decl         = ["const"] type IDENT [ "[" INT "]" ] [ "=" init ] ";" ;
    if           = "if" "(" expr ")" body [ "else" ( if | body ) ] ;
    while        = "while" "(" expr ")" body ;
    for          = "for" "(" ( decl | [ expr_or_assign ] ";" )
                   [ expr ] ";" [ expr_or_assign ] ")" body ;
    return       = "return" [ expr ] ";" ;
    body         = block | statement ;
    expr_or_assign = ( "++" | "--" ) target
                 | expr [ "++" | "--" | assign_op expr ] ;
    target       = primary { "[" expr "]" } ;
    init         = expr | "{" expr { "," expr } [ "," ] "}" ;
    expr         = unary { binop unary } ;
    unary        = ( "-" | "~" | "!" | "+" ) unary | primary { "[" expr "]" } ;
    primary      = INT | IDENT [ "(" [ expr { "," expr } ] ")" ] | "(" expr ")" ;

``binop`` is any operator of :data:`_PRECEDENCE`, which gives C's
binding strengths; every level is left-associative.  ``assign_op`` is
``=`` or a compound assignment.  ``++``/``--`` are statement-level
sugar for ``x += 1`` / ``x -= 1`` (prefix or postfix, value unused).

The lexer's ASCII rule (see :mod:`repro.lang.lexer`) holds for every
token the parser sees.  An array may not be larger than the mote's
SRAM (:data:`repro.isa.devices.SRAM_SIZE` bytes).  Nesting is bounded by
C99's minimum translation limits (§5.2.4.1): :data:`MAX_BLOCK_DEPTH`
nested blocks, the function body and every ``if``/``else``/``while``/
``for`` body included, and :data:`MAX_EXPR_DEPTH` nested expression
levels, counting parentheses, unary operators, index brackets and call
argument lists.  The token that crosses a limit raises
:class:`~repro.lang.errors.ParseError`, so no input can exhaust the
Python stack.
"""

from __future__ import annotations

from ..isa.devices import SRAM_SIZE
from . import ast_nodes as ast
from .errors import ParseError
from .lexer import Token, TokenKind, tokenize
from .types import Type, scalar

# Binary operator precedence, loosest binding first.
_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

#: Binary operator -> its level in :data:`_PRECEDENCE`.  Only punctuator
#: tokens are spelled like an operator, so a token's value alone tells
#: whether it is one.
_BINARY_LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

_COMPOUND_OPS = {
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
    "&=": "&",
    "|=": "|",
    "^=": "^",
    "<<=": "<<",
    ">>=": ">>",
}

_TYPE_KEYWORDS = ("u8", "u16", "void")

_UNARY_OPS = ("-", "~", "!", "+")

#: Deepest block nesting accepted (C99 §5.2.4.1: 127 nesting levels of
#: blocks); the function body is level 1.
MAX_BLOCK_DEPTH = 127

#: Deepest expression nesting accepted (C99 §5.2.4.1: 63 nesting levels
#: of parenthesized expressions), counting parentheses, unary
#: operators, index brackets and call argument lists.
MAX_EXPR_DEPTH = 63


class Parser:
    """Parses a token stream into a :class:`~repro.lang.ast_nodes.Program`.

    ``tokens`` ends in the EOF token, which :meth:`_next` never passes,
    so ``self.tokens[self.index]`` is always the current token.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.block_depth = 0
        self.expr_depth = 0

    # -- token stream helpers ------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind is not TokenKind.EOF:
            self.index += 1
        return tok

    def _at(self, value: str) -> bool:
        """Is the current token the punctuator or keyword ``value``?

        Identifiers never spell a keyword and no other token spells a
        punctuator, so the value alone decides.
        """
        return self.tokens[self.index].value == value

    def _expect(self, kind: TokenKind, value: object = None) -> Token:
        tok = self.tokens[self.index]
        if tok.kind is not kind or (value is not None and tok.value != value):
            want = value if value is not None else kind.value
            raise ParseError(
                f"expected {want!r}, found {tok.text!r}", tok.location
            )
        return self._next()

    def _expect_punct(self, value: str) -> Token:
        return self._expect(TokenKind.PUNCT, value)

    def _enter_block(self, tok: Token) -> None:
        self.block_depth += 1
        if self.block_depth > MAX_BLOCK_DEPTH:
            raise ParseError(
                f"blocks nested more than {MAX_BLOCK_DEPTH} deep", tok.location
            )

    def _enter_expr(self, tok: Token) -> None:
        self.expr_depth += 1
        if self.expr_depth > MAX_EXPR_DEPTH:
            raise ParseError(
                f"expression nested more than {MAX_EXPR_DEPTH} deep", tok.location
            )

    # -- top level -------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self.tokens[self.index].kind is not TokenKind.EOF:
            item = self._parse_top_level()
            program.decl_order.append(item)
            if isinstance(item, ast.FunctionDef):
                program.functions.append(item)
            else:
                program.globals.append(item)
        return program

    def _parse_top_level(self):
        is_const = False
        if self._at("const"):
            self._next()
            is_const = True
        type_tok = self._peek()
        base_type = self._parse_type_name()
        name_tok = self._expect(TokenKind.IDENT)
        if self._at("(") and not is_const:
            return self._parse_function_rest(base_type, name_tok)
        return self._parse_global_rest(type_tok, base_type, name_tok, is_const)

    def _parse_type_name(self) -> Type:
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD and tok.value in _TYPE_KEYWORDS:
            self._next()
            return scalar(tok.value)
        raise ParseError(f"expected a type, found {tok.text!r}", tok.location)

    def _parse_array_suffix(self, base_type: Type) -> Type:
        if not self._at("["):
            return base_type
        self._next()
        size_tok = self._expect(TokenKind.INT)
        self._expect_punct("]")
        if size_tok.value <= 0:
            raise ParseError("array length must be positive", size_tok.location)
        if size_tok.value * base_type.element_size > SRAM_SIZE:
            raise ParseError(
                f"array of {size_tok.value} {base_type.name} is larger than "
                f"the {SRAM_SIZE}-byte SRAM",
                size_tok.location,
            )
        return Type(base_type.name, size_tok.value)

    def _parse_global_rest(self, type_tok, base_type, name_tok, is_const):
        var_type = self._parse_array_suffix(base_type)
        if var_type.is_void:
            raise ParseError("variables cannot have type void", type_tok.location)
        init = None
        init_list = None
        if self._at("="):
            self._next()
            if self._at("{"):
                init_list = self._parse_init_list()
            else:
                init = self.parse_expression()
        self._expect_punct(";")
        return ast.GlobalDecl(
            location=name_tok.location,
            var_type=var_type,
            name=name_tok.value,
            init=init,
            init_list=init_list,
            is_const=is_const,
        )

    def _parse_init_list(self) -> list[ast.Expr]:
        self._expect_punct("{")
        items = [self.parse_expression()]
        while self._at(","):
            self._next()
            if self._at("}"):  # trailing comma
                break
            items.append(self.parse_expression())
        self._expect_punct("}")
        return items

    def _parse_function_rest(self, return_type, name_tok):
        self._expect_punct("(")
        params: list[ast.Param] = []
        if not self._at(")"):
            while True:
                ptype_tok = self._peek()
                ptype = self._parse_type_name()
                if ptype.is_void:
                    raise ParseError(
                        "parameters cannot have type void", ptype_tok.location
                    )
                pname = self._expect(TokenKind.IDENT)
                params.append(
                    ast.Param(
                        location=pname.location,
                        param_type=ptype,
                        name=pname.value,
                    )
                )
                if not self._at(","):
                    break
                self._next()
        self._expect_punct(")")
        body = self.parse_block()
        return ast.FunctionDef(
            location=name_tok.location,
            return_type=return_type,
            name=name_tok.value,
            params=params,
            body=body,
        )

    # -- statements -------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_tok = self._expect_punct("{")
        self._enter_block(open_tok)
        statements = []
        while not self._at("}"):
            if self.tokens[self.index].kind is TokenKind.EOF:
                raise ParseError("unterminated block", open_tok.location)
            statements.append(self.parse_statement())
        self._next()
        self.block_depth -= 1
        return ast.Block(location=open_tok.location, statements=statements)

    def parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD:
            if tok.value in _TYPE_KEYWORDS or tok.value == "const":
                return self._parse_decl_stmt()
            if tok.value == "if":
                return self._parse_if()
            if tok.value == "while":
                return self._parse_while()
            if tok.value == "for":
                return self._parse_for()
            if tok.value == "return":
                return self._parse_return()
            if tok.value == "break":
                self._next()
                self._expect_punct(";")
                return ast.BreakStmt(location=tok.location)
            if tok.value == "continue":
                self._next()
                self._expect_punct(";")
                return ast.ContinueStmt(location=tok.location)
        if self._at("{"):
            return self.parse_block()
        stmt = self._parse_expr_or_assign()
        self._expect_punct(";")
        return stmt

    def _parse_decl_stmt(self) -> ast.DeclStmt:
        is_const = False
        if self._at("const"):
            self._next()
            is_const = True
        type_tok = self._peek()
        base_type = self._parse_type_name()
        name_tok = self._expect(TokenKind.IDENT)
        var_type = self._parse_array_suffix(base_type)
        if var_type.is_void:
            raise ParseError("variables cannot have type void", type_tok.location)
        init = None
        init_list = None
        if self._at("="):
            self._next()
            if self._at("{"):
                init_list = self._parse_init_list()
            else:
                init = self.parse_expression()
        self._expect_punct(";")
        return ast.DeclStmt(
            location=name_tok.location,
            var_type=var_type,
            name=name_tok.value,
            init=init,
            init_list=init_list,
            is_const=is_const,
        )

    def _parse_if(self) -> ast.IfStmt:
        tok = self._next()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        then_body = self._parse_body_as_block()
        else_body = None
        if self._at("else"):
            self._next()
            if self._at("if"):
                self._enter_block(self._peek())
                nested = self._parse_if()
                self.block_depth -= 1
                else_body = ast.Block(location=nested.location, statements=[nested])
            else:
                else_body = self._parse_body_as_block()
        return ast.IfStmt(
            location=tok.location, cond=cond, then_body=then_body, else_body=else_body
        )

    def _parse_body_as_block(self) -> ast.Block:
        if self._at("{"):
            return self.parse_block()
        self._enter_block(self._peek())
        stmt = self.parse_statement()
        self.block_depth -= 1
        return ast.Block(location=stmt.location, statements=[stmt])

    def _parse_while(self) -> ast.WhileStmt:
        tok = self._next()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        body = self._parse_body_as_block()
        return ast.WhileStmt(location=tok.location, cond=cond, body=body)

    def _parse_for(self) -> ast.ForStmt:
        tok = self._next()
        self._expect_punct("(")
        init = None
        if not self._at(";"):
            if self._peek().kind is TokenKind.KEYWORD and self._peek().value in (
                _TYPE_KEYWORDS + ("const",)
            ):
                init = self._parse_decl_stmt()  # consumes the ';'
            else:
                init = self._parse_expr_or_assign()
                self._expect_punct(";")
        else:
            self._next()
        cond = None
        if not self._at(";"):
            cond = self.parse_expression()
        self._expect_punct(";")
        step = None
        if not self._at(")"):
            step = self._parse_expr_or_assign()
        self._expect_punct(")")
        body = self._parse_body_as_block()
        return ast.ForStmt(
            location=tok.location, init=init, cond=cond, step=step, body=body
        )

    def _parse_return(self) -> ast.ReturnStmt:
        tok = self._next()
        value = None
        if not self._at(";"):
            value = self.parse_expression()
        self._expect_punct(";")
        return ast.ReturnStmt(location=tok.location, value=value)

    def _parse_expr_or_assign(self) -> ast.Stmt:
        """Parse an expression statement, assignment, or ++/-- sugar."""
        tok = self._peek()
        # Prefix ++x / --x.
        if self._at("++") or self._at("--"):
            op = self._next().value
            target = self._parse_postfix(self._parse_primary())
            return self._incdec(tok, target, op)
        expr = self.parse_expression()
        if self._at("++") or self._at("--"):
            op = self._next().value
            return self._incdec(tok, expr, op)
        if self._at("="):
            self._next()
            value = self.parse_expression()
            self._check_assignable(expr)
            return ast.AssignStmt(location=tok.location, target=expr, op="", value=value)
        base_op = _COMPOUND_OPS.get(self._peek().value)
        if base_op is not None:
            self._next()
            value = self.parse_expression()
            self._check_assignable(expr)
            return ast.AssignStmt(
                location=tok.location, target=expr, op=base_op, value=value
            )
        return ast.ExprStmt(location=tok.location, expr=expr)

    def _incdec(self, tok: Token, target: ast.Expr, op: str) -> ast.AssignStmt:
        self._check_assignable(target)
        one = ast.IntLiteral(location=tok.location, value=1)
        base_op = "+" if op == "++" else "-"
        return ast.AssignStmt(location=tok.location, target=target, op=base_op, value=one)

    @staticmethod
    def _check_assignable(expr: ast.Expr) -> None:
        if not isinstance(expr, (ast.NameRef, ast.IndexExpr)):
            raise ParseError("invalid assignment target", expr.location)

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: fold operators binding at ``min_level`` or
        tighter, left to right; each right operand takes only tighter
        operators."""
        left = self._parse_unary()
        tokens = self.tokens
        while True:
            op_tok = tokens[self.index]
            level = _BINARY_LEVEL.get(op_tok.value)
            if level is None or level < min_level:
                return left
            self.index += 1
            right = self._parse_binary(level + 1)
            left = ast.BinaryExpr(
                location=op_tok.location, op=op_tok.value, left=left, right=right
            )

    def _parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.index]
        value = tok.value
        if value in _UNARY_OPS:
            self._enter_expr(tok)
            self.index += 1
            operand = self._parse_unary()
            self.expr_depth -= 1
            if value == "+":  # unary plus is a no-op
                return operand
            return ast.UnaryExpr(location=tok.location, op=value, operand=operand)
        return self._parse_postfix(self._parse_primary())

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        while self._at("["):
            self._enter_expr(self._next())
            index = self.parse_expression()
            self._expect_punct("]")
            self.expr_depth -= 1
            expr = ast.IndexExpr(location=expr.location, base=expr, index=index)
        return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.index]
        if tok.kind is TokenKind.INT:
            self.index += 1
            return ast.IntLiteral(location=tok.location, value=tok.value)
        if tok.kind is TokenKind.IDENT:
            self.index += 1
            if not self._at("("):
                return ast.NameRef(location=tok.location, name=tok.value)
            self._enter_expr(self._next())
            args = []
            if not self._at(")"):
                args.append(self.parse_expression())
                while self._at(","):
                    self._next()
                    args.append(self.parse_expression())
            self._expect_punct(")")
            self.expr_depth -= 1
            return ast.CallExpr(location=tok.location, callee=tok.value, args=args)
        if self._at("("):
            self._enter_expr(self._next())
            expr = self.parse_expression()
            self._expect_punct(")")
            self.expr_depth -= 1
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.location)


def parse(source: str, filename: str = "<source>") -> ast.Program:
    """Parse ucc-C source text into an AST program."""
    return Parser(tokenize(source, filename)).parse_program()
