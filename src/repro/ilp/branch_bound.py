"""0/1 branch & bound over the LP relaxation.

The reproduction's MILP engine: best-first branch & bound where each
node's bound comes from :mod:`repro.ilp.simplex`.  The solver records
the statistics the paper plots — total simplex iterations (Figure 14),
wall time per iteration (Figure 15) — and accepts a warm-start
incumbent (the preferred-register greedy solution), which is how the
paper's observation that *"the preferred register tag is a hint to the
solver and can reduce the number of iterations"* manifests here: a good
incumbent prunes most of the tree.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from ..fastpath import fastpath_enabled
from .model import IntegerProgram
from .simplex import LPResult, SimplexStats, solve_lp

_TOL = 1e-6


@dataclass
class SolveStats:
    """Statistics of one MILP solve."""

    simplex_iterations: int = 0
    lp_solves: int = 0
    nodes: int = 0
    wall_time: float = 0.0
    num_variables: int = 0
    num_constraints: int = 0

    @property
    def time_per_iteration(self) -> float:
        if self.simplex_iterations == 0:
            return 0.0
        return self.wall_time / self.simplex_iterations


@dataclass
class SolveResult:
    """Outcome of a MILP solve."""

    status: str  # "optimal" | "infeasible" | "node_limit"
    values: dict[str, int] = field(default_factory=dict)
    objective: float = 0.0
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass
class _Matrices:
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    names: list[str]


def build_matrices(problem: IntegerProgram) -> _Matrices:
    """Lower the modelling layer to dense matrices (>= rows negated)."""
    if fastpath_enabled():
        return _build_matrices_fast(problem)
    return _build_matrices_reference(problem)


def _build_matrices_reference(problem: IntegerProgram) -> _Matrices:
    """Reference lowering: one dense row allocated per constraint."""
    names = list(problem.variables)
    index = {name: j for j, name in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for var, coeff in problem.objective.items():
        c[index[var]] = coeff

    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for con in problem.constraints:
        row = np.zeros(n)
        for term in con.terms:
            row[index[term.var]] += term.coeff
        if con.sense == "<=":
            ub_rows.append(row)
            ub_rhs.append(con.rhs)
        elif con.sense == ">=":
            ub_rows.append(-row)
            ub_rhs.append(-con.rhs)
        else:
            eq_rows.append(row)
            eq_rhs.append(con.rhs)
    for var, value in problem.fixed.items():
        row = np.zeros(n)
        row[index[var]] = 1.0
        eq_rows.append(row)
        eq_rhs.append(float(value))

    return _Matrices(
        c=c,
        a_ub=np.array(ub_rows) if ub_rows else np.zeros((0, n)),
        b_ub=np.array(ub_rhs) if ub_rhs else np.zeros(0),
        a_eq=np.array(eq_rows) if eq_rows else np.zeros((0, n)),
        b_eq=np.array(eq_rhs) if eq_rhs else np.zeros(0),
        names=names,
    )


def _build_matrices_fast(problem: IntegerProgram) -> _Matrices:
    """Fast lowering: one scatter-add over a COO view of all terms.

    ``np.add.at`` applies duplicate-index additions in entry order,
    which is exactly the per-row ``+=`` order of the reference
    lowering, and whole-row negation of ``>=`` constraints is exact in
    IEEE-754 — so both lowerings produce bit-equal matrices.
    """
    names = list(problem.variables)
    index = problem._var_index
    n = len(names)
    c = np.zeros(n)
    if problem.objective:
        c[[index[var] for var in problem.objective]] = list(problem.objective.values())

    rows, cols, coeffs, senses, rhs_list = problem.constraint_coo()
    n_cons = len(senses)
    dense = np.zeros((n_cons, n))
    if rows:
        np.add.at(dense, (rows, cols), coeffs)
    rhs = np.asarray(rhs_list, dtype=float) if n_cons else np.zeros(0)
    codes = np.fromiter(
        (0 if s == "<=" else 1 if s == ">=" else 2 for s in senses),
        dtype=np.int8,
        count=n_cons,
    )
    ge = codes == 1
    if ge.any():
        dense[ge] = -dense[ge]
        rhs[ge] = -rhs[ge]

    ub_mask = codes <= 1
    eq_mask = codes == 2
    a_eq = dense[eq_mask]
    b_eq = rhs[eq_mask]
    if problem.fixed:
        fixed_cols = np.asarray([index[var] for var in problem.fixed], dtype=np.intp)
        fixed_rows = np.zeros((fixed_cols.size, n))
        fixed_rows[np.arange(fixed_cols.size), fixed_cols] = 1.0
        a_eq = np.vstack([a_eq, fixed_rows]) if a_eq.shape[0] else fixed_rows
        fixed_rhs = np.asarray(list(problem.fixed.values()), dtype=float)
        b_eq = np.concatenate([b_eq, fixed_rhs])

    return _Matrices(
        c=c,
        a_ub=dense[ub_mask],
        b_ub=rhs[ub_mask],
        a_eq=a_eq,
        b_eq=b_eq,
        names=names,
    )


def solve_branch_bound(
    problem: IntegerProgram,
    incumbent: dict[str, int] | None = None,
    node_limit: int = 20_000,
) -> SolveResult:
    """Solve ``problem`` to optimality with best-first branch & bound."""
    start = time.perf_counter()
    mat = build_matrices(problem)
    n = len(mat.names)
    stats = SolveStats(
        num_variables=problem.num_variables,
        num_constraints=problem.num_constraints,
    )
    simplex_stats = SimplexStats()

    best_values: dict[str, int] | None = None
    best_objective = np.inf
    if incumbent is not None and problem.is_feasible(incumbent):
        best_values = {name: incumbent.get(name, 0) for name in mat.names}
        best_objective = problem.evaluate(best_values) - problem.objective_constant

    fast = fastpath_enabled()

    def solve_node(lo: np.ndarray, hi: np.ndarray) -> LPResult:
        # Variables fixed to 1 by branching become bound rows
        # (x_j >= 1  ->  -x_j <= -1), in ascending variable order on
        # both paths.
        a_ub = mat.a_ub
        b_ub = mat.b_ub
        if fast:
            ones = np.flatnonzero(lo > 0.5)
            if ones.size:
                extra = np.zeros((ones.size, n))
                extra[np.arange(ones.size), ones] = -1.0
                a_ub = np.vstack([a_ub, extra]) if len(a_ub) else extra
                b_ub = np.concatenate([b_ub, np.full(ones.size, -1.0)])
        else:
            extra_rows = []
            extra_rhs = []
            for j in range(n):
                if lo[j] > 0.5:
                    row = np.zeros(n)
                    row[j] = -1.0
                    extra_rows.append(row)
                    extra_rhs.append(-1.0)
            if extra_rows:
                a_ub = (
                    np.vstack([a_ub, np.array(extra_rows)]) if len(a_ub) else np.array(extra_rows)
                )
                b_ub = (
                    np.concatenate([b_ub, np.array(extra_rhs)])
                    if len(b_ub)
                    else np.array(extra_rhs)
                )
        return solve_lp(
            mat.c, a_ub, b_ub, mat.a_eq, mat.b_eq, ub=hi, stats=simplex_stats
        )

    counter = itertools.count()
    root_lo = np.zeros(n)
    root_hi = np.ones(n)
    root = solve_node(root_lo, root_hi)
    stats.lp_solves += 1
    if root.status == "infeasible":
        stats.simplex_iterations = simplex_stats.iterations
        stats.wall_time = time.perf_counter() - start
        return SolveResult(status="infeasible", stats=stats)

    heap = [(root.objective, next(counter), root_lo, root_hi, root)]
    status = "optimal"

    while heap:
        bound, _, lo, hi, relax = heapq.heappop(heap)
        if bound >= best_objective - _TOL:
            continue
        stats.nodes += 1
        if stats.nodes > node_limit:
            status = "node_limit"
            break

        frac_j = _most_fractional(relax.x)
        if frac_j is None:
            # Integral solution.
            values = {name: int(round(relax.x[j])) for j, name in enumerate(mat.names)}
            if relax.objective < best_objective - _TOL:
                best_objective = relax.objective
                best_values = values
            continue

        for branch_value in (_round_dir(relax.x[frac_j]), 1 - _round_dir(relax.x[frac_j])):
            child_lo = lo.copy()
            child_hi = hi.copy()
            if branch_value == 1:
                child_lo[frac_j] = 1.0
            else:
                child_hi[frac_j] = 0.0
            child = solve_node(child_lo, child_hi)
            stats.lp_solves += 1
            if child.status != "optimal":
                continue
            if child.objective >= best_objective - _TOL:
                continue
            frac = _most_fractional(child.x)
            if frac is None:
                values = {
                    name: int(round(child.x[j])) for j, name in enumerate(mat.names)
                }
                if child.objective < best_objective - _TOL:
                    best_objective = child.objective
                    best_values = values
            else:
                heapq.heappush(
                    heap, (child.objective, next(counter), child_lo, child_hi, child)
                )

    stats.simplex_iterations = simplex_stats.iterations
    stats.wall_time = time.perf_counter() - start
    if best_values is None:
        return SolveResult(status="infeasible", stats=stats)
    # Report the exact objective of the assignment, not the LP value
    # that found it: an adopted incumbent and an LP-found optimum with
    # the same values must report the same objective, bit for bit.
    return SolveResult(
        status=status,
        values=best_values,
        objective=problem.evaluate(best_values),
        stats=stats,
    )


def _most_fractional(x: np.ndarray) -> int | None:
    frac = np.abs(x - np.round(x))
    j = int(np.argmax(frac))
    if frac[j] < _TOL:
        return None
    return j


def _round_dir(value: float) -> int:
    return 1 if value >= 0.5 else 0
