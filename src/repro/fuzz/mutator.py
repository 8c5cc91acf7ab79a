"""Semantic edit mutator: derive realistic update pairs from a program.

Edits mirror the paper's Figure 9 update taxonomy:

* small  — constant tweaks, operator swaps, loop-bound changes
  (cases 1-5);
* medium — statement insertion/deletion, new globals used in new
  statements, new parameters, new functions, removed globals/functions
  (cases 6-11);
* data   — global reorderings and renamings (cases D1/D2).

Every edit is a small dataclass addressing its target by *stable
identity* (function name, global name, statement id) rather than by
position, so the shrinker can delete unrelated parts of the base
program and re-apply the surviving edits: an edit whose anchor is gone
raises :class:`EditNotApplicable` and the reduction is rejected.

:func:`mutate` composes 1..N edits, validating the rendered program
through the real front end after each one — an edit that produces an
ill-typed program is discarded and another is drawn, so every emitted
update pair compiles by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .progen import (
    AssignStmt,
    Bin,
    CallE,
    CallStmt,
    CMP_OPS,
    Const,
    DeclStmt,
    ForStmt,
    FuncDef,
    GenProgram,
    GlobalVar,
    HaltStmt,
    IfStmt,
    Index,
    ReturnStmt,
    SAFE_BIN_OPS,
    Un,
    Var,
    clone,
    find_stmt,
    iter_bodies,
    iter_stmts,
    stmt_exprs,
)
from ..lang.errors import CompileError


class EditNotApplicable(Exception):
    """The edit's anchor no longer exists in the (shrunk) program."""


# ---------------------------------------------------------------------------
# Expression rewriting helpers
# ---------------------------------------------------------------------------


def _rewrite_expr(expr, fn):
    """Bottom-up rewrite of one expression tree via ``fn(node) -> node``."""
    if isinstance(expr, Bin):
        expr = Bin(expr.op, _rewrite_expr(expr.left, fn), _rewrite_expr(expr.right, fn))
    elif isinstance(expr, Un):
        expr = Un(expr.op, _rewrite_expr(expr.operand, fn))
    elif isinstance(expr, Index):
        expr = Index(expr.base, _rewrite_expr(expr.index, fn))
    elif isinstance(expr, CallE):
        expr = CallE(expr.name, tuple(_rewrite_expr(a, fn) for a in expr.args))
    return fn(expr)


def _rewrite_stmt_exprs(stmt, fn) -> None:
    """Rewrite the expression slots of ``stmt`` in place (no recursion
    into nested statement bodies)."""
    if isinstance(stmt, DeclStmt):
        stmt.init = _rewrite_expr(stmt.init, fn)
    elif isinstance(stmt, AssignStmt):
        stmt.target = _rewrite_expr(stmt.target, fn)
        stmt.value = _rewrite_expr(stmt.value, fn)
    elif isinstance(stmt, CallStmt):
        stmt.args = tuple(_rewrite_expr(a, fn) for a in stmt.args)
    elif isinstance(stmt, IfStmt):
        stmt.cond = _rewrite_expr(stmt.cond, fn)
    elif isinstance(stmt, ReturnStmt) and stmt.value is not None:
        stmt.value = _rewrite_expr(stmt.value, fn)


#: Operators whose right operand must not be tweaked: divisors (a 0
#: would fault constant folding) and shift amounts / modulus guards
#: (the generator relies on ``% length`` for array bounds).
_CONSTRAINED_RHS_OPS = ("%", "/", "<<", ">>")


def _stmt_consts(stmt) -> list[Const]:
    """The *freely tweakable* Const nodes of one statement, in order.

    Constants inside array-index subtrees, divisors, moduli, and shift
    amounts are excluded: changing those could break the generator's
    in-bounds / non-zero-divisor guarantees, and an out-of-bounds
    access behaves differently under different data layouts — exactly
    the false positive the differential oracle must never see.
    """
    out: list[Const] = []

    def walk(expr, constrained: bool):
        if isinstance(expr, Const):
            if not constrained:
                out.append(expr)
        elif isinstance(expr, Bin):
            walk(expr.left, constrained)
            walk(
                expr.right,
                constrained or expr.op in _CONSTRAINED_RHS_OPS,
            )
        elif isinstance(expr, Un):
            walk(expr.operand, constrained)
        elif isinstance(expr, Index):
            walk(expr.index, True)
        elif isinstance(expr, CallE):
            for arg in expr.args:
                walk(arg, constrained)

    for expr in stmt_exprs(stmt):
        walk(expr, False)
    return out


def _stmt_bins(stmt) -> list[Bin]:
    out: list[Bin] = []

    def walk(expr):
        if isinstance(expr, Bin):
            out.append(expr)
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, Un):
            walk(expr.operand)
        elif isinstance(expr, Index):
            walk(expr.index)
        elif isinstance(expr, CallE):
            for arg in expr.args:
                walk(arg)

    for expr in stmt_exprs(stmt):
        walk(expr)
    return out


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise EditNotApplicable(what)


def _find_stmt(program: GenProgram, sid: int):
    located = find_stmt(program, sid)
    _require(located is not None, f"statement {sid} is gone")
    return located


def _insert(body: list, after_sid: int | None, stmt) -> None:
    if after_sid is None:
        body.insert(0, stmt)
        return
    for index, existing in enumerate(body):
        if existing.sid == after_sid:
            body.insert(index + 1, stmt)
            return
    raise EditNotApplicable(f"anchor statement {after_sid} is gone")


# ---------------------------------------------------------------------------
# The edit taxonomy
# ---------------------------------------------------------------------------


@dataclass
class Edit:
    """Base class: one semantic edit, applied in place to a clone."""

    kind = "edit"

    def apply(self, program: GenProgram) -> None:  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.kind}"


@dataclass
class TweakGlobalInit(Edit):
    """Case 1/2-style constant change in a global initialiser."""

    name: str
    value: int
    element: int | None = None
    kind = "const_tweak"

    def apply(self, program: GenProgram) -> None:
        gvar = program.global_var(self.name)
        _require(gvar is not None, f"global {self.name} is gone")
        if self.element is None:
            _require(gvar.length is None, f"{self.name} became an array")
            gvar.init = self.value
        else:
            _require(
                gvar.length is not None and gvar.init is not None
                and self.element < len(gvar.init),
                f"{self.name}[{self.element}] is gone",
            )
            items = list(gvar.init)
            items[self.element] = self.value
            gvar.init = tuple(items)

    def describe(self) -> str:
        at = f"[{self.element}]" if self.element is not None else ""
        return f"const_tweak {self.name}{at} = {self.value}"


@dataclass
class TweakConst(Edit):
    """Case 3-style instruction change: a literal inside a statement."""

    sid: int
    occurrence: int
    value: int
    kind = "const_tweak"

    def apply(self, program: GenProgram) -> None:
        _, body, index = _find_stmt(program, self.sid)
        consts = _stmt_consts(body[index])
        _require(self.occurrence < len(consts), "constant slot is gone")
        consts[self.occurrence].value = self.value

    def describe(self) -> str:
        return f"const_tweak stmt#{self.sid}.{self.occurrence} = {self.value}"


@dataclass
class SwapBinOp(Edit):
    """Case 3/5-style instruction change: replace one operator."""

    sid: int
    occurrence: int
    new_op: str
    kind = "op_swap"

    def apply(self, program: GenProgram) -> None:
        _, body, index = _find_stmt(program, self.sid)
        bins = [
            b
            for b in _stmt_bins(body[index])
            if b.op in SAFE_BIN_OPS or b.op in CMP_OPS
        ]
        _require(self.occurrence < len(bins), "operator slot is gone")
        target = bins[self.occurrence]
        same_family = (
            target.op in SAFE_BIN_OPS and self.new_op in SAFE_BIN_OPS
        ) or (target.op in CMP_OPS and self.new_op in CMP_OPS)
        _require(same_family, "operator family changed")
        target.op = self.new_op

    def describe(self) -> str:
        return f"op_swap stmt#{self.sid}.{self.occurrence} -> {self.new_op}"


@dataclass
class TweakLoopBound(Edit):
    """Control-flow change: shrink a loop's constant trip count.

    Only decreases are generated — an increased bound could push a
    loop-variable array index out of range.
    """

    sid: int
    bound: int
    kind = "loop_bound"

    def apply(self, program: GenProgram) -> None:
        _, body, index = _find_stmt(program, self.sid)
        stmt = body[index]
        _require(isinstance(stmt, ForStmt), "loop is gone")
        _require(1 <= self.bound <= stmt.bound, "bound would grow")
        stmt.bound = self.bound

    def describe(self) -> str:
        return f"loop_bound stmt#{self.sid} -> {self.bound}"


@dataclass
class InsertStmt(Edit):
    """Case 6/10-style change: a new statement in an existing body."""

    func: str
    after_sid: int | None
    stmt: object
    kind = "insert_stmt"

    def apply(self, program: GenProgram) -> None:
        fn = program.func(self.func)
        _require(fn is not None, f"function {self.func} is gone")
        callee = _callee_of(self.stmt)
        if callee is not None and callee not in _BUILTIN_STMT_CALLS:
            names = [f.name for f in program.funcs]
            _require(
                callee in names and names.index(callee) < names.index(self.func),
                f"callee {callee} unavailable",
            )
        if self.after_sid is None:
            fn.body.insert(0, self.stmt)
            return
        for body in iter_bodies(fn.body):
            for index, existing in enumerate(body):
                if existing.sid == self.after_sid:
                    body.insert(index + 1, self.stmt)
                    return
        raise EditNotApplicable(f"anchor statement {self.after_sid} is gone")

    def describe(self) -> str:
        return f"insert_stmt in {self.func} after #{self.after_sid}"


@dataclass
class DeleteStmt(Edit):
    """Case 6-style deletion of one statement (and its nested body)."""

    sid: int
    kind = "delete_stmt"

    def apply(self, program: GenProgram) -> None:
        _, body, index = _find_stmt(program, self.sid)
        del body[index]

    def describe(self) -> str:
        return f"delete_stmt #{self.sid}"


@dataclass
class AddGlobal(Edit):
    """Case 6: insert a global variable and use it in a new statement."""

    gvar: GlobalVar
    func: str
    after_sid: int | None
    use_stmt: object
    kind = "add_global"

    def apply(self, program: GenProgram) -> None:
        _require(
            program.global_var(self.gvar.name) is None,
            f"global {self.gvar.name} already exists",
        )
        fn = program.func(self.func)
        _require(fn is not None, f"function {self.func} is gone")
        program.globals.append(self.gvar)
        _insert(fn.body, self.after_sid, self.use_stmt)

    def describe(self) -> str:
        return f"add_global {self.gvar.name} used in {self.func}"


@dataclass
class RemoveGlobal(Edit):
    """Remove a global: reads fold to its old value, writes vanish."""

    name: str
    kind = "remove_global"

    def apply(self, program: GenProgram) -> None:
        gvar = program.global_var(self.name)
        _require(gvar is not None, f"global {self.name} is gone")
        program.globals.remove(gvar)
        fold = Const(
            gvar.init if isinstance(gvar.init, int) and gvar.length is None else 0
        )

        def rewrite(expr):
            if isinstance(expr, Var) and expr.name == self.name:
                return Const(fold.value)
            if isinstance(expr, Index) and expr.base == self.name:
                return Const(0)
            return expr

        for func in program.funcs:
            for body in iter_bodies(func.body):
                body[:] = [
                    stmt for stmt in body if not self._writes_target(stmt)
                ]
            for stmt in iter_stmts(func.body):
                if isinstance(stmt, CallStmt) and stmt.assign_to == self.name:
                    stmt.assign_to = None
                _rewrite_stmt_exprs(stmt, rewrite)

    def _writes_target(self, stmt) -> bool:
        if not isinstance(stmt, AssignStmt):
            return False
        target = stmt.target
        if isinstance(target, Var):
            return target.name == self.name
        return isinstance(target, Index) and target.base == self.name

    def describe(self) -> str:
        return f"remove_global {self.name}"


@dataclass
class AddFunction(Edit):
    """Case 9: add a new function and a call to it."""

    func: FuncDef
    call_from: str
    after_sid: int | None
    call_stmt: CallStmt
    kind = "add_function"

    def apply(self, program: GenProgram) -> None:
        _require(
            program.func(self.func.name) is None,
            f"function {self.func.name} already exists",
        )
        caller = program.func(self.call_from)
        _require(caller is not None, f"caller {self.call_from} is gone")
        program.funcs.insert(program.funcs.index(caller), self.func)
        _insert(caller.body, self.after_sid, self.call_stmt)

    def describe(self) -> str:
        return f"add_function {self.func.name} called from {self.call_from}"


@dataclass
class RemoveFunction(Edit):
    """Large change: delete a function; calls fold to constants."""

    name: str
    kind = "remove_function"

    def apply(self, program: GenProgram) -> None:
        fn = program.func(self.name)
        _require(fn is not None and fn.name != "main", f"{self.name} is gone")
        program.funcs.remove(fn)
        for func in program.funcs:
            for body in iter_bodies(func.body):
                replacement: list = []
                for stmt in body:
                    if isinstance(stmt, CallStmt) and stmt.name == self.name:
                        if stmt.assign_to is not None:
                            replacement.append(
                                AssignStmt(
                                    stmt.sid, Var(stmt.assign_to), Const(0)
                                )
                            )
                        continue
                    replacement.append(stmt)
                body[:] = replacement

    def describe(self) -> str:
        return f"remove_function {self.name}"


@dataclass
class AddParam(Edit):
    """Case 8: a new parameter, threaded through every call site."""

    func: str
    pname: str
    ctype: str
    arg_value: int
    kind = "add_param"

    def apply(self, program: GenProgram) -> None:
        fn = program.func(self.func)
        _require(fn is not None and fn.name != "main", f"{self.func} is gone")
        _require(
            all(name != self.pname for name, _ in fn.params),
            f"parameter {self.pname} already exists",
        )
        fn.params.append((self.pname, self.ctype))
        for func in program.funcs:
            for stmt in iter_stmts(func.body):
                if isinstance(stmt, CallStmt) and stmt.name == self.func:
                    stmt.args = tuple(stmt.args) + (Const(self.arg_value),)

    def describe(self) -> str:
        return f"add_param {self.func}({self.ctype} {self.pname})"


@dataclass
class ReorderGlobals(Edit):
    """Case D2: shuffle the declaration order of the globals."""

    order: tuple[str, ...]
    kind = "reorder_globals"

    def apply(self, program: GenProgram) -> None:
        by_name = {g.name: g for g in program.globals}
        reordered = [by_name[n] for n in self.order if n in by_name]
        _require(len(reordered) >= 2, "too few surviving globals")
        rest = [g for g in program.globals if g.name not in self.order]
        program.globals = reordered + rest

    def describe(self) -> str:
        return f"reorder_globals {', '.join(self.order)}"


@dataclass
class RenameGlobal(Edit):
    """Case D2: rename a global everywhere it appears."""

    old: str
    new: str
    kind = "rename_global"

    def apply(self, program: GenProgram) -> None:
        gvar = program.global_var(self.old)
        _require(gvar is not None, f"global {self.old} is gone")
        _require(
            program.global_var(self.new) is None,
            f"global {self.new} already exists",
        )
        gvar.name = self.new

        def rewrite(expr):
            if isinstance(expr, Var) and expr.name == self.old:
                return Var(self.new)
            if isinstance(expr, Index) and expr.base == self.old:
                return Index(self.new, expr.index)
            return expr

        for func in program.funcs:
            for stmt in iter_stmts(func.body):
                if isinstance(stmt, CallStmt) and stmt.assign_to == self.old:
                    stmt.assign_to = self.new
                _rewrite_stmt_exprs(stmt, rewrite)

    def describe(self) -> str:
        return f"rename_global {self.old} -> {self.new}"


_BUILTIN_STMT_CALLS = ("led_set", "radio_send", "halt")


def _callee_of(stmt) -> str | None:
    if isinstance(stmt, CallStmt):
        return stmt.name
    return None


def apply_edits(program: GenProgram, edits: list) -> GenProgram:
    """Apply ``edits`` in order to a clone of ``program``.

    Raises :class:`EditNotApplicable` when an anchor is missing — the
    shrinker uses this to reject reductions that break an edit.
    """
    out = clone(program)
    for edit in edits:
        edit.apply(out)
    return out


# ---------------------------------------------------------------------------
# Edit proposal
# ---------------------------------------------------------------------------


@dataclass
class Mutator:
    """Draws random applicable edits for one base program."""

    rng: random.Random
    #: relative weight of each edit kind (name -> weight)
    weights: dict = field(default_factory=lambda: dict(_DEFAULT_WEIGHTS))

    # every proposer returns an Edit or None when not applicable

    def _editable_stmts(self, program: GenProgram, predicate):
        return [
            stmt
            for func in program.funcs
            for stmt in iter_stmts(func.body)
            if predicate(stmt)
        ]

    def _propose_tweak_global(self, program: GenProgram):
        scalars = [
            g
            for g in program.globals
            if g.length is None and isinstance(g.init, int)
        ]
        arrays = [
            g for g in program.globals if g.length is not None and g.init
        ]
        if arrays and (not scalars or self.rng.random() < 0.3):
            gvar = self.rng.choice(arrays)
            element = self.rng.randrange(len(gvar.init))
            return TweakGlobalInit(
                name=gvar.name, value=self.rng.randrange(256), element=element
            )
        if not scalars:
            return None
        gvar = self.rng.choice(scalars)
        return TweakGlobalInit(
            name=gvar.name, value=self.rng.randrange(gvar.max_value() + 1)
        )

    def _propose_tweak_const(self, program: GenProgram):
        candidates = []
        for stmt in self._editable_stmts(program, lambda s: True):
            consts = _stmt_consts(stmt)
            for occurrence, node in enumerate(consts):
                candidates.append((stmt.sid, occurrence))
        if not candidates:
            return None
        sid, occurrence = self.rng.choice(candidates)
        return TweakConst(
            sid=sid, occurrence=occurrence, value=self.rng.randrange(256)
        )

    def _propose_op_swap(self, program: GenProgram):
        candidates = []
        for stmt in self._editable_stmts(program, lambda s: True):
            bins = [
                b
                for b in _stmt_bins(stmt)
                if b.op in SAFE_BIN_OPS or b.op in CMP_OPS
            ]
            for occurrence, node in enumerate(bins):
                candidates.append((stmt.sid, occurrence, node.op))
        if not candidates:
            return None
        sid, occurrence, op = self.rng.choice(candidates)
        family = SAFE_BIN_OPS if op in SAFE_BIN_OPS else CMP_OPS
        alternatives = [o for o in family if o != op]
        return SwapBinOp(
            sid=sid, occurrence=occurrence, new_op=self.rng.choice(alternatives)
        )

    def _propose_loop_bound(self, program: GenProgram):
        loops = self._editable_stmts(
            program, lambda s: isinstance(s, ForStmt) and s.bound > 1
        )
        if not loops:
            return None
        loop = self.rng.choice(loops)
        return TweakLoopBound(
            sid=loop.sid, bound=self.rng.randrange(1, loop.bound)
        )

    def _anchor_in(self, fn: FuncDef) -> int | None:
        anchors = [stmt.sid for stmt in fn.body if not isinstance(stmt, HaltStmt)]
        if not anchors or self.rng.random() < 0.15:
            return None
        return self.rng.choice(anchors)

    def _new_use_stmt(self, program: GenProgram, fn: FuncDef, extra=None):
        """A fresh statement over globals/params only (always in scope)."""
        rng = self.rng
        scalars = [
            g.name
            for g in program.globals
            if g.length is None and not g.const
        ]
        readable = list(scalars) + [name for name, _ in fn.params]
        if extra is not None:
            readable.append(extra)
            scalars = scalars + [extra]

        def operand():
            if readable and rng.random() < 0.7:
                return Var(rng.choice(readable))
            return Const(rng.randrange(256))

        value = Bin(rng.choice(SAFE_BIN_OPS), operand(), operand())
        roll = rng.random()
        if scalars and roll < 0.5:
            return AssignStmt(program.fresh_sid(), Var(rng.choice(scalars)), value)
        if roll < 0.75:
            return CallStmt(program.fresh_sid(), "led_set", (value,))
        return CallStmt(program.fresh_sid(), "radio_send", (value,))

    def _propose_insert_stmt(self, program: GenProgram):
        fn = self.rng.choice(program.funcs)
        stmt = self._new_use_stmt(program, fn)
        if self.rng.random() < 0.3:
            stmt = IfStmt(
                program.fresh_sid(),
                CallE("timer_fired"),
                [self._new_use_stmt(program, fn)],
            )
        return InsertStmt(func=fn.name, after_sid=self._anchor_in(fn), stmt=stmt)

    def _propose_delete_stmt(self, program: GenProgram):
        def deletable(stmt):
            return not isinstance(stmt, (DeclStmt, HaltStmt, ReturnStmt))

        candidates = self._editable_stmts(program, deletable)
        if not candidates:
            return None
        return DeleteStmt(sid=self.rng.choice(candidates).sid)

    def _propose_add_global(self, program: GenProgram):
        index = 0
        while program.global_var(f"ng{index}") is not None:
            index += 1
        name = f"ng{index}"
        ctype = self.rng.choice(("u8", "u16"))
        gvar = GlobalVar(
            name=name,
            ctype=ctype,
            init=self.rng.randrange(256 if ctype == "u8" else 65536),
        )
        fn = self.rng.choice(program.funcs)
        use = self._new_use_stmt(program, fn, extra=name)
        return AddGlobal(
            gvar=gvar, func=fn.name, after_sid=self._anchor_in(fn), use_stmt=use
        )

    def _propose_remove_global(self, program: GenProgram):
        if len(program.globals) <= 1:
            return None
        return RemoveGlobal(name=self.rng.choice(program.globals).name)

    def _propose_add_function(self, program: GenProgram):
        index = 0
        while program.func(f"nf{index}") is not None:
            index += 1
        name = f"nf{index}"
        ret = self.rng.choice(("void", "u8"))
        new_fn = FuncDef(name=name, ret=ret)
        body_len = self.rng.randrange(1, 4)
        for _ in range(body_len):
            new_fn.body.append(self._new_use_stmt(program, new_fn))
        if ret != "void":
            new_fn.body.append(
                ReturnStmt(program.fresh_sid(), Const(self.rng.randrange(256)))
            )
        caller = self.rng.choice(program.funcs)
        call = CallStmt(program.fresh_sid(), name)
        return AddFunction(
            func=new_fn,
            call_from=caller.name,
            after_sid=self._anchor_in(caller),
            call_stmt=call,
        )

    def _propose_remove_function(self, program: GenProgram):
        removable = [f for f in program.funcs if f.name != "main"]
        if len(removable) <= 1:
            return None
        return RemoveFunction(name=self.rng.choice(removable).name)

    def _propose_add_param(self, program: GenProgram):
        candidates = [
            f
            for f in program.funcs
            if f.name != "main" and len(f.params) < 4
        ]
        if not candidates:
            return None
        fn = self.rng.choice(candidates)
        return AddParam(
            func=fn.name,
            pname=f"q{len(fn.params)}",
            ctype=self.rng.choice(("u8", "u16")),
            arg_value=self.rng.randrange(256),
        )

    def _propose_reorder_globals(self, program: GenProgram):
        if len(program.globals) < 2:
            return None
        names = [g.name for g in program.globals]
        shuffled = list(names)
        self.rng.shuffle(shuffled)
        if shuffled == names:
            shuffled.reverse()
        return ReorderGlobals(order=tuple(shuffled))

    def _propose_rename_global(self, program: GenProgram):
        if not program.globals:
            return None
        gvar = self.rng.choice(program.globals)
        index = 0
        while program.global_var(f"rn{index}") is not None:
            index += 1
        return RenameGlobal(old=gvar.name, new=f"rn{index}")

    def propose(self, program: GenProgram):
        """Draw one applicable edit (or None when nothing fits)."""
        kinds = sorted(self.weights)
        weights = [self.weights[k] for k in kinds]
        for _ in range(8):
            kind = self.rng.choices(kinds, weights=weights)[0]
            edit = getattr(self, f"_propose_{kind}")(program)
            if edit is not None:
                return edit
        return None


_DEFAULT_WEIGHTS = {
    "tweak_global": 3,
    "tweak_const": 4,
    "op_swap": 3,
    "loop_bound": 2,
    "insert_stmt": 4,
    "delete_stmt": 3,
    "add_global": 2,
    "remove_global": 1,
    "add_function": 2,
    "remove_function": 1,
    "add_param": 2,
    "reorder_globals": 1,
    "rename_global": 1,
}


def mutate(
    program: GenProgram,
    rng: random.Random,
    n_edits: int,
    max_attempts: int = 12,
):
    """Derive an update pair: returns ``(new_program, applied_edits)``.

    Each candidate edit is applied to a running clone and validated
    through the front end; invalid results are discarded (this guards
    against edits like statement deletion removing a declaration that a
    later statement still uses).
    """
    from ..lang import frontend

    mutator = Mutator(rng=rng)
    current = clone(program)
    applied: list[Edit] = []
    attempts = 0
    while len(applied) < n_edits and attempts < max_attempts:
        attempts += 1
        edit = mutator.propose(current)
        if edit is None:
            continue
        candidate = clone(current)
        try:
            edit.apply(candidate)
            frontend(candidate.render(), "<fuzz-edit>")
        except (EditNotApplicable, CompileError):
            continue
        current = candidate
        applied.append(edit)
    return current, applied


__all__ = [
    "AddFunction",
    "AddGlobal",
    "AddParam",
    "DeleteStmt",
    "Edit",
    "EditNotApplicable",
    "InsertStmt",
    "Mutator",
    "RemoveFunction",
    "RemoveGlobal",
    "RenameGlobal",
    "ReorderGlobals",
    "SwapBinOp",
    "TweakConst",
    "TweakGlobalInit",
    "TweakLoopBound",
    "apply_edits",
    "mutate",
]
