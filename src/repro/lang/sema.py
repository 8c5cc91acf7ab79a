"""Semantic analysis for ucc-C.

The checker

* builds symbol tables (globals, per-function scopes),
* type-checks every expression and annotates it with ``ctype``,
* inserts :class:`~repro.lang.ast_nodes.CastExpr` nodes where a u8/u16
  width conversion happens implicitly,
* validates calls against function signatures and the device builtins,
* enforces structural rules (break/continue inside loops, return types,
  arrays only indexed, const not assigned).

The result is a :class:`CheckedProgram` that the IR builder consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import ast_nodes as ast
from .errors import SemanticError
from .types import Type, U8, U16, VOID, common_type


class SymbolKind(enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"
    PARAM = "param"


@dataclass
class Symbol:
    """A named variable after semantic analysis."""

    name: str
    ctype: Type
    kind: SymbolKind
    is_const: bool = False
    function: str | None = None  # owning function; None for globals
    # A stable unique id (function-qualified for locals) used by the IR
    # and the data-layout algorithms.
    uid: str = ""

    def __post_init__(self):
        if not self.uid:
            prefix = self.function + "." if self.function else ""
            self.uid = prefix + self.name


@dataclass
class FunctionSignature:
    name: str
    return_type: Type
    param_types: list[Type]
    is_builtin: bool = False


#: Device builtins available without declaration.  They lower to
#: memory-mapped I/O in the IR builder; addresses live in repro.isa.
BUILTINS: dict[str, FunctionSignature] = {
    "led_set": FunctionSignature("led_set", VOID, [U8], is_builtin=True),
    "led_get": FunctionSignature("led_get", U8, [], is_builtin=True),
    "radio_send": FunctionSignature("radio_send", U16, [U16], is_builtin=True),
    "adc_read": FunctionSignature("adc_read", U16, [], is_builtin=True),
    "timer_fired": FunctionSignature("timer_fired", U8, [], is_builtin=True),
    "halt": FunctionSignature("halt", VOID, [], is_builtin=True),
}


@dataclass
class CheckedFunction:
    """Per-function results: the definition plus its local symbols."""

    definition: ast.FunctionDef
    signature: FunctionSignature
    params: list[Symbol] = field(default_factory=list)
    locals: list[Symbol] = field(default_factory=list)


@dataclass
class CheckedProgram:
    """A fully type-checked translation unit."""

    program: ast.Program
    globals: list[Symbol] = field(default_factory=list)
    global_inits: dict[str, object] = field(default_factory=dict)
    functions: dict[str, CheckedFunction] = field(default_factory=dict)

    def global_symbol(self, name: str) -> Symbol:
        for sym in self.globals:
            if sym.name == name:
                return sym
        raise KeyError(name)


class _Scope:
    """A lexical scope mapping names to symbols, chained to a parent."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.symbols: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol, location) -> None:
        if symbol.name in self.symbols:
            raise SemanticError(
                f"redeclaration of {symbol.name!r} in the same scope", location
            )
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SemanticChecker:
    """Runs all semantic checks over a parsed program."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.checked = CheckedProgram(program=program)
        self.signatures: dict[str, FunctionSignature] = dict(BUILTINS)
        self._global_scope = _Scope()
        self._current: CheckedFunction | None = None
        self._loop_depth = 0
        self._local_counter = 0

    # -- driver --------------------------------------------------------

    def check(self) -> CheckedProgram:
        self._collect_globals()
        self._collect_signatures()
        for fn in self.program.functions:
            self._check_function(fn)
        return self.checked

    # -- top-level collection -------------------------------------------

    def _collect_globals(self) -> None:
        for decl in self.program.globals:
            if decl.name in self.signatures:
                raise SemanticError(
                    f"{decl.name!r} conflicts with a builtin", decl.location
                )
            symbol = Symbol(
                name=decl.name,
                ctype=decl.var_type,
                kind=SymbolKind.GLOBAL,
                is_const=decl.is_const,
            )
            self._global_scope.declare(symbol, decl.location)
            self.checked.globals.append(symbol)
            self.checked.global_inits[decl.name] = self._fold_global_init(decl)

    def _fold_global_init(self, decl: ast.GlobalDecl):
        """Globals are initialised with compile-time constants only."""
        if decl.init_list is not None:
            if not decl.var_type.is_array:
                raise SemanticError(
                    "initialiser list on a scalar", decl.location
                )
            if len(decl.init_list) > decl.var_type.array_length:
                raise SemanticError(
                    "too many initialisers for array", decl.location
                )
            values = [self._const_value(e) for e in decl.init_list]
            values += [0] * (decl.var_type.array_length - len(values))
            return values
        if decl.init is not None:
            if decl.var_type.is_array:
                raise SemanticError(
                    "array initialiser must be a brace list", decl.location
                )
            return self._const_value(decl.init)
        if decl.var_type.is_array:
            return [0] * decl.var_type.array_length
        return 0

    def _const_value(self, expr: ast.Expr) -> int:
        """Evaluate a constant expression (literals and arithmetic only)."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.UnaryExpr):
            value = self._const_value(expr.operand)
            if expr.op == "-":
                return (-value) & 0xFFFF
            if expr.op == "~":
                return (~value) & 0xFFFF
            if expr.op == "!":
                return 0 if value else 1
        if isinstance(expr, ast.BinaryExpr):
            left = self._const_value(expr.left)
            right = self._const_value(expr.right)
            try:
                return _eval_binop(expr.op, left, right, 0xFFFF)
            except ZeroDivisionError as error:
                raise SemanticError(
                    "division by zero in constant", expr.location
                ) from error
        raise SemanticError(
            "global initialisers must be compile-time constants", expr.location
        )

    def _collect_signatures(self) -> None:
        for fn in self.program.functions:
            if fn.name in self.signatures:
                raise SemanticError(
                    f"redefinition of function {fn.name!r}", fn.location
                )
            self.signatures[fn.name] = FunctionSignature(
                name=fn.name,
                return_type=fn.return_type,
                param_types=[p.param_type for p in fn.params],
            )

    # -- functions -------------------------------------------------------

    def _check_function(self, fn: ast.FunctionDef) -> None:
        checked_fn = CheckedFunction(
            definition=fn, signature=self.signatures[fn.name]
        )
        self._current = checked_fn
        self._local_counter = 0
        scope = _Scope(self._global_scope)
        for param in fn.params:
            if param.param_type.is_array:
                raise SemanticError(
                    "array parameters are not supported", param.location
                )
            symbol = Symbol(
                name=param.name,
                ctype=param.param_type,
                kind=SymbolKind.PARAM,
                function=fn.name,
            )
            scope.declare(symbol, param.location)
            checked_fn.params.append(symbol)
        self._check_block(fn.body, scope)
        self.checked.functions[fn.name] = checked_fn
        self._current = None

    # -- statements --------------------------------------------------------

    def _check_block(self, block: ast.Block, parent: _Scope) -> None:
        scope = _Scope(parent)
        for stmt in block.statements:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.DeclStmt):
            self._check_decl(stmt, scope)
        elif isinstance(stmt, ast.AssignStmt):
            self._check_assign(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._check_condition(stmt.cond, scope)
            self._check_block(stmt.then_body, scope)
            if stmt.else_body is not None:
                self._check_block(stmt.else_body, scope)
        elif isinstance(stmt, ast.WhileStmt):
            self._check_condition(stmt.cond, scope)
            self._loop_depth += 1
            self._check_block(stmt.body, scope)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.ForStmt):
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_condition(stmt.cond, inner)
            self._loop_depth += 1
            self._check_block(stmt.body, inner)
            if stmt.step is not None:
                self._check_stmt(stmt.step, inner)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.ReturnStmt):
            self._check_return(stmt, scope)
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if self._loop_depth == 0:
                kind = "break" if isinstance(stmt, ast.BreakStmt) else "continue"
                raise SemanticError(f"{kind} outside a loop", stmt.location)
        elif isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        else:  # pragma: no cover - parser produces no other nodes
            raise SemanticError(f"unknown statement {type(stmt).__name__}", stmt.location)

    def _check_decl(self, stmt: ast.DeclStmt, scope: _Scope) -> None:
        assert self._current is not None
        symbol = Symbol(
            name=stmt.name,
            ctype=stmt.var_type,
            kind=SymbolKind.LOCAL,
            is_const=stmt.is_const,
            function=self._current.definition.name,
        )
        # Distinct shadowed locals need distinct uids for layout/IR.
        self._local_counter += 1
        if any(s.name == stmt.name for s in self._current.locals):
            symbol.uid = f"{symbol.function}.{stmt.name}#{self._local_counter}"
        scope.declare(symbol, stmt.location)
        self._current.locals.append(symbol)
        if stmt.init_list is not None:
            if not stmt.var_type.is_array:
                raise SemanticError("initialiser list on a scalar", stmt.location)
            if len(stmt.init_list) > stmt.var_type.array_length:
                raise SemanticError("too many initialisers for array", stmt.location)
            for expr in stmt.init_list:
                etype = self._check_expr(expr, scope)
                self._require_scalar(etype, expr)
        elif stmt.init is not None:
            if stmt.var_type.is_array:
                raise SemanticError(
                    "array initialiser must be a brace list", stmt.location
                )
            etype = self._check_expr(stmt.init, scope)
            self._require_scalar(etype, stmt.init)
            stmt.init = self._coerce(stmt.init, stmt.var_type)
        elif stmt.is_const:
            raise SemanticError("const variable needs an initialiser", stmt.location)

    def _check_assign(self, stmt: ast.AssignStmt, scope: _Scope) -> None:
        target_type = self._check_expr(stmt.target, scope)
        if isinstance(stmt.target, ast.NameRef):
            symbol = scope.lookup(stmt.target.name)
            if symbol is not None and symbol.is_const:
                raise SemanticError(
                    f"assignment to const {symbol.name!r}", stmt.location
                )
            if target_type.is_array:
                raise SemanticError("cannot assign to a whole array", stmt.location)
        value_type = self._check_expr(stmt.value, scope)
        self._require_scalar(value_type, stmt.value)
        stmt.value = self._coerce(stmt.value, target_type)

    def _check_return(self, stmt: ast.ReturnStmt, scope: _Scope) -> None:
        assert self._current is not None
        expected = self._current.signature.return_type
        if expected.is_void:
            if stmt.value is not None:
                raise SemanticError(
                    "void function returns a value", stmt.location
                )
            return
        if stmt.value is None:
            raise SemanticError("non-void function returns nothing", stmt.location)
        value_type = self._check_expr(stmt.value, scope)
        self._require_scalar(value_type, stmt.value)
        stmt.value = self._coerce(stmt.value, expected)

    def _check_condition(self, cond: ast.Expr, scope: _Scope) -> None:
        ctype = self._check_expr(cond, scope)
        self._require_scalar(ctype, cond)

    # -- expressions ---------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> Type:
        ctype = self._infer(expr, scope)
        expr.ctype = ctype
        return ctype

    def _infer(self, expr: ast.Expr, scope: _Scope) -> Type:
        if isinstance(expr, ast.IntLiteral):
            if expr.value < 0 or expr.value > 0xFFFF:
                raise SemanticError(
                    f"literal {expr.value} out of u16 range", expr.location
                )
            return U8 if expr.value <= 0xFF else U16
        if isinstance(expr, ast.NameRef):
            symbol = scope.lookup(expr.name)
            if symbol is None:
                raise SemanticError(f"undeclared name {expr.name!r}", expr.location)
            return symbol.ctype
        if isinstance(expr, ast.IndexExpr):
            base_type = self._check_expr(expr.base, scope)
            if not base_type.is_array:
                raise SemanticError("indexing a non-array", expr.location)
            index_type = self._check_expr(expr.index, scope)
            self._require_scalar(index_type, expr.index)
            return base_type.element_type()
        if isinstance(expr, ast.UnaryExpr):
            operand_type = self._check_expr(expr.operand, scope)
            self._require_scalar(operand_type, expr.operand)
            if expr.op == "!":
                return U8
            return operand_type
        if isinstance(expr, ast.BinaryExpr):
            left = self._check_expr(expr.left, scope)
            right = self._check_expr(expr.right, scope)
            self._require_scalar(left, expr.left)
            self._require_scalar(right, expr.right)
            if expr.op in ("&&", "||"):
                return U8
            if expr.op in ("==", "!=", "<", "<=", ">", ">="):
                operand = common_type(left, right)
                expr.left = self._coerce(expr.left, operand)
                expr.right = self._coerce(expr.right, operand)
                return U8
            if expr.op in ("<<", ">>"):
                return left
            result = common_type(left, right)
            expr.left = self._coerce(expr.left, result)
            expr.right = self._coerce(expr.right, result)
            return result
        if isinstance(expr, ast.CallExpr):
            return self._check_call(expr, scope)
        if isinstance(expr, ast.CastExpr):  # pragma: no cover - sema-inserted
            return expr.target
        raise SemanticError(
            f"unknown expression {type(expr).__name__}", expr.location
        )  # pragma: no cover

    def _check_call(self, expr: ast.CallExpr, scope: _Scope) -> Type:
        signature = self.signatures.get(expr.callee)
        if signature is None:
            raise SemanticError(
                f"call to undefined function {expr.callee!r}", expr.location
            )
        if len(expr.args) != len(signature.param_types):
            raise SemanticError(
                f"{expr.callee} expects {len(signature.param_types)} argument(s), "
                f"got {len(expr.args)}",
                expr.location,
            )
        new_args = []
        for arg, expected in zip(expr.args, signature.param_types):
            arg_type = self._check_expr(arg, scope)
            self._require_scalar(arg_type, arg)
            new_args.append(self._coerce(arg, expected))
        expr.args = new_args
        return signature.return_type

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _require_scalar(ctype: Type, expr: ast.Expr) -> None:
        if ctype.is_array or ctype.is_void:
            raise SemanticError(
                f"expected a scalar value, got {ctype}", expr.location
            )

    @staticmethod
    def _coerce(expr: ast.Expr, target: Type) -> ast.Expr:
        """Insert a CastExpr when widths differ (u8<->u16)."""
        if expr.ctype == target:
            return expr
        cast = ast.CastExpr(location=expr.location, target=target, operand=expr)
        cast.ctype = target
        return cast


def _eval_binop(op: str, left: int, right: int, mask: int) -> int:
    """Evaluate a binary operator on unsigned values, wrapping to ``mask``."""
    if op == "+":
        return (left + right) & mask
    if op == "-":
        return (left - right) & mask
    if op == "*":
        return (left * right) & mask
    if op == "/":
        return left // right
    if op == "%":
        return left % right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return (left << (right & 15)) & mask
    if op == ">>":
        return left >> (right & 15)
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "&&":
        return int(bool(left) and bool(right))
    if op == "||":
        return int(bool(left) or bool(right))
    raise ValueError(f"unknown operator {op!r}")


def check(program: ast.Program) -> CheckedProgram:
    """Type-check a parsed program and return the checked form."""
    return SemanticChecker(program).check()
