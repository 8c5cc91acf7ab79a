"""Figure 15: wall time per simplex iteration as a function of problem
complexity (#variables x #IR instructions) — near-linear in the paper,
because each pivot touches the whole (dense) tableau."""

import numpy as np

from repro.ilp import solve
from repro.regalloc.ilp_model import build_chunk_model

from repro.workloads.synthetic import ilp_spec

from conftest import emit_table

SIZES = [4, 8, 12, 16, 24]


def test_fig15_time_per_iteration(benchmark):
    rows = []
    points = []
    for n in SIZES:
        spec = ilp_spec(n)
        model = build_chunk_model(spec)
        result = solve(model, backend="own")
        assert result.status == "optimal"
        stats = result.stats
        complexity = (spec.hi - spec.lo) * len(spec.variables())
        per_iter = stats.time_per_iteration
        rows.append(
            [
                n,
                complexity,
                stats.simplex_iterations,
                f"{stats.wall_time * 1e3:.2f} ms",
                f"{per_iter * 1e6:.1f} us",
            ]
        )
        points.append((complexity, per_iter))
    emit_table(
        "fig15_solve_time",
        ["statements", "vars x instrs", "iterations", "total time", "time/iteration"],
        rows,
    )

    # Shape check: time per iteration grows with problem complexity
    # (monotone trend between the smallest and largest problems).
    small = np.mean([p[1] for p in points[:2]])
    large = np.mean([p[1] for p in points[-2:]])
    assert large > small

    spec = ilp_spec(8)
    model = build_chunk_model(spec)
    benchmark(solve, model, backend="own")
