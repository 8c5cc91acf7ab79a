"""Abstract syntax tree for ucc-C.

Nodes are small frozen-ish dataclasses.  Expression nodes gain a
``ctype`` attribute during semantic analysis (:mod:`repro.lang.sema`);
until then it is ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SourceLocation
from .types import Type

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions.  ``ctype`` is filled in by sema."""

    location: SourceLocation
    ctype: Type | None = field(default=None, init=False, compare=False)


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class NameRef(Expr):
    """Reference to a variable (scalar or whole array)."""

    name: str = ""


@dataclass
class IndexExpr(Expr):
    """``base[index]`` where base names an array variable."""

    base: Expr = None
    index: Expr = None


@dataclass
class UnaryExpr(Expr):
    """Unary ``-``, ``~`` or ``!``."""

    op: str = ""
    operand: Expr = None


@dataclass
class BinaryExpr(Expr):
    """All binary operators including comparisons and ``&&``/``||``."""

    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class CallExpr(Expr):
    """Function call; ``callee`` is a plain identifier."""

    callee: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class CastExpr(Expr):
    """Implicit width conversion inserted by sema (no source syntax)."""

    target: Type = None
    operand: Expr = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    location: SourceLocation


@dataclass
class DeclStmt(Stmt):
    """Local variable declaration with optional initialiser."""

    var_type: Type = None
    name: str = ""
    init: Expr | None = None
    init_list: list[Expr] | None = None  # array initialiser
    is_const: bool = False


@dataclass
class AssignStmt(Stmt):
    """``target = value`` or compound ``target op= value``.

    ``target`` is a :class:`NameRef` or :class:`IndexExpr`.  Compound
    assignments store the underlying binary operator in ``op``
    (e.g. ``"+"`` for ``+=``); plain assignment uses ``op == ""``.
    """

    target: Expr = None
    op: str = ""
    value: Expr = None


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for side effects (calls, ++/--)."""

    expr: Expr = None


@dataclass
class IfStmt(Stmt):
    cond: Expr = None
    then_body: "Block" = None
    else_body: "Block | None" = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None
    body: "Block" = None


@dataclass
class ForStmt(Stmt):
    """C-style for; each clause may be ``None``."""

    init: Stmt | None = None
    cond: Expr | None = None
    step: Stmt | None = None
    body: "Block" = None


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param:
    location: SourceLocation
    param_type: Type = None
    name: str = ""


@dataclass
class FunctionDef:
    location: SourceLocation
    return_type: Type = None
    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: Block = None


@dataclass
class GlobalDecl:
    location: SourceLocation
    var_type: Type = None
    name: str = ""
    init: Expr | None = None
    init_list: list[Expr] | None = None
    is_const: bool = False


@dataclass
class Program:
    """A whole translation unit in declaration order."""

    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
    # Original top-level order (mix of GlobalDecl and FunctionDef); some
    # passes (e.g. the data-layout baselines) care about declaration order.
    decl_order: list[object] = field(default_factory=list)
