"""Solver facade: pick a backend, solve, return values + statistics.

Every solve is traced (``ilp.solve`` span) and publishes its effort
into the :mod:`repro.obs` metrics registry — iterations, LP solves,
branch-and-bound nodes — which is what ``repro profile`` and the
Figure 14/15 benches read back out.

Solves are memoised by default in a process-wide content-addressed
cache (:mod:`repro.ilp.canonical`): identical models — up to variable
naming and build order — return the original result without re-running
the simplex.  The effort counters only advance on cache misses, so
telemetry keeps describing work actually performed; hits and misses
are counted separately (``ilp.cache.*``).

On the fast path (:mod:`repro.ilp.fastpath`) a cache *near miss* — same
model structure, different warm-start hint — re-uses the memoised
optimum as the branch-and-bound incumbent when it is feasible and
strictly better than the caller's own hint (``ilp.cache.warm_starts``
counts adoptions).  A warm incumbent can only tighten pruning, never
steer the relaxation, so the solve still terminates at an optimal
solution; ``tests/test_ilp_fastpath.py`` certifies on the pinned
workloads that the answers match the reference path bit for bit.
"""

from __future__ import annotations

from .fastpath import fastpath_enabled
from ..obs import metrics, trace
from .branch_bound import SolveResult, solve_branch_bound
from .canonical import SOLVE_CACHE, canonical_digests
from .model import IntegerProgram
from .scipy_backend import solve_scipy

BACKENDS = ("own", "scipy")

#: A memoised warm-start candidate must beat the caller's incumbent by
#: more than this margin to be adopted.
_WARM_MARGIN = 1e-6


def solve(
    problem: IntegerProgram,
    backend: str = "own",
    incumbent: dict[str, int] | None = None,
    node_limit: int = 20_000,
    cache: bool = True,
) -> SolveResult:
    """Solve a 0/1 integer program.

    ``backend="own"`` uses the instrumented pure-Python simplex +
    branch & bound (iteration counts available); ``backend="scipy"``
    uses HiGHS via :mod:`scipy.optimize` (fast, no pivot counts).
    ``incumbent`` warm-starts the own backend (e.g. with the
    preferred-register greedy allocation).  ``cache=False`` bypasses
    the canonical solve cache (and leaves it untouched).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    digest = None
    structure = None
    with trace.span(
        "ilp.solve",
        backend=backend,
        variables=problem.num_variables,
        constraints=problem.num_constraints,
    ) as span:
        if cache:
            digest, structure = canonical_digests(
                problem, backend=backend, incumbent=incumbent, node_limit=node_limit
            )
            cached = SOLVE_CACHE.get(digest, problem)
            if cached is not None:
                span.set(status=cached.status, cached=True)
                metrics.counter("ilp.cache.hits").inc()
                return cached
            metrics.counter("ilp.cache.misses").inc()
            if backend == "own" and fastpath_enabled():
                # Near miss: a structure-identical model was already
                # solved to optimality under a different hint.  Its
                # optimum is the best incumbent this model can have —
                # adopt it (fast path only) when it is feasible here
                # and strictly better than what the caller supplied.
                warm = SOLVE_CACHE.get_warm(structure, problem)
                if (
                    warm is not None
                    and problem.is_feasible(warm)
                    and (
                        incumbent is None
                        or not problem.is_feasible(incumbent)
                        or problem.evaluate(warm)
                        < problem.evaluate(incumbent) - _WARM_MARGIN
                    )
                ):
                    incumbent = warm
                    span.set(warm_start=True)
                    metrics.counter("ilp.cache.warm_starts").inc()
        if backend == "own":
            result = solve_branch_bound(
                problem, incumbent=incumbent, node_limit=node_limit
            )
        else:
            result = solve_scipy(problem)
        span.set(status=result.status)
    if digest is not None:
        SOLVE_CACHE.put(digest, problem, result, structure=structure)
    metrics.counter("ilp.solves").inc()
    metrics.counter("ilp.simplex_iterations").inc(result.stats.simplex_iterations)
    metrics.counter("ilp.lp_solves").inc(result.stats.lp_solves)
    metrics.counter("ilp.bb_nodes").inc(result.stats.nodes)
    if result.status == "node_limit":
        metrics.counter("ilp.node_limit_hits").inc()
    if result.status == "infeasible":
        metrics.counter("ilp.infeasible").inc()
    return result
