"""Figure 14: solver iterations as a function of (#variables x #IR
instructions), plus §5.6's preferred-register-tag observation:

* correct tags (and the warm-start incumbent they enable) reduce the
  number of iterations the solver needs;
* misleading (random) tags inflate iterations by 2-3x.
"""

from repro.ilp import solve
from repro.regalloc.ilp_model import build_chunk_model
from repro.regalloc.ilp_model import greedy_incumbent

from repro.workloads.synthetic import ilp_spec

from conftest import emit_table

SIZES = [4, 8, 12, 16, 24]


def solve_with_tags(spec, mode: str):
    """Solve under a tag mode: 'preferred' | 'none' | 'misleading'."""
    import random

    if mode == "none":
        spec_prefer = {}
    elif mode == "misleading":
        rng = random.Random(11)
        spec_prefer = {
            key: rng.choice(spec.candidates[key[0]])
            for key in spec.prefer
        }
    else:
        spec_prefer = dict(spec.prefer)
    original = spec.prefer
    spec.prefer = spec_prefer
    try:
        model = build_chunk_model(spec)
        incumbent = None
        if mode == "preferred":
            # The tags define a known-good assignment: warm-start on it
            # (this is how the "hint to the solver" manifests).
            assignment = {}
            for a in spec.variables():
                tag = None
                for (name, _), reg in sorted(spec_prefer.items()):
                    if name == a:
                        tag = reg
                        break
                assignment[a] = tag if tag is not None else spec.candidates[a][0]
            incumbent = greedy_incumbent(spec, assignment)
            if not model.is_feasible(incumbent):
                incumbent = None
        result = solve(model, backend="own", incumbent=incumbent)
        return model, result
    finally:
        spec.prefer = original


def test_fig14_iterations(benchmark):
    rows = []
    totals = {"preferred": 0, "none": 0, "misleading": 0}
    for n in SIZES:
        spec = ilp_spec(n)
        row = [n, (spec.hi - spec.lo) * len(spec.variables())]
        for mode in ("preferred", "none", "misleading"):
            model, result = solve_with_tags(spec, mode)
            assert result.status == "optimal", (n, mode)
            row.append(result.stats.simplex_iterations)
            totals[mode] += result.stats.simplex_iterations
        rows.append(row)
    emit_table(
        "fig14_iterations",
        ["statements", "vars x instrs", "iters (preferred tags)", "iters (no tags)", "iters (misleading tags)"],
        rows,
    )
    # Paper's shape: preferred tags need the fewest iterations overall;
    # misleading tags cost more than correct tags.
    assert totals["preferred"] <= totals["none"]
    assert totals["misleading"] > totals["preferred"]

    spec = ilp_spec(12)
    benchmark(lambda: solve_with_tags(spec, "preferred"))
