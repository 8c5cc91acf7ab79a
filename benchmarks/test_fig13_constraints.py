"""Figure 13: ILP constraint count as a function of IR instruction
count — the paper observes near-linear growth."""

import numpy as np

from repro.regalloc.ilp_model import build_chunk_model
from repro.workloads.synthetic import ilp_spec

from conftest import emit_table

SIZES = [4, 8, 12, 16, 24, 32, 48, 64]


def test_fig13_constraints_vs_instructions(benchmark):
    rows = []
    points = []
    for n in SIZES:
        spec = ilp_spec(n)
        model = build_chunk_model(spec)
        instrs = spec.hi - spec.lo
        rows.append([n, instrs, model.num_variables, model.num_constraints])
        points.append((instrs, model.num_constraints))
    emit_table(
        "fig13_constraints",
        ["statements", "IR instructions", "ILP variables", "ILP constraints"],
        rows,
    )

    # Near-linear growth: a linear fit must explain the curve well.
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1 - ss_res / ss_tot
    assert r_squared > 0.98, f"constraint growth not linear (R^2={r_squared:.3f})"
    assert slope > 0

    spec = ilp_spec(16)
    benchmark(build_chunk_model, spec)
