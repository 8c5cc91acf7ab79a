#!/usr/bin/env python3
"""Inside the UCC-RA integer program (paper §3.3-3.4).

Builds the ILP for one changed chunk of a real update case, prints it
in LP format (the paper feeds the same shape of program to LP_solve),
solves it with both backends, and cross-checks the linear (theta=3/4)
approximation against the exact non-linear objective — the paper's
§5.6 experiment in miniature.

Run:  python examples/ilp_playground.py
"""

from repro.core import Compiler, compile_source
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.ilp import solve
from repro.ir import analyze, static_frequencies
from repro.regalloc import allocate_ucc_greedy
from repro.regalloc.chunks import changed_indices
from repro.regalloc.ilp_model import build_chunk_model, nonlinear_objective
from repro.regalloc.ilp_ra import build_spec_for_chunk
from repro.regalloc.minlp import solve_chunk_minlp
from repro.workloads import CASES


def main() -> None:
    case = CASES["6"]
    print(f"update case 6: {case.description}\n")

    old = compile_source(case.old_source)
    module = Compiler().front_and_middle(case.new_source)
    fn = module.functions["tosh_run_next_task"]
    record, report = allocate_ucc_greedy(
        fn, old.module.functions["tosh_run_next_task"],
        old.records["tosh_run_next_task"],
    )

    chunk = next(c for c in report.chunks if c.changed)
    print(f"changed chunk: IR instructions [{chunk.start}, {chunk.end}) of "
          f"{len(fn.instrs)} in tosh_run_next_task")

    info = analyze(fn)
    spec = build_spec_for_chunk(
        fn, info, record, report, chunk.start, chunk.end,
        changed_indices(fn, report.match), static_frequencies(fn),
        DEFAULT_ENERGY_MODEL, 1000.0, 3,
    )
    model = build_chunk_model(spec)
    print(f"model: {model.num_variables} binary variables, "
          f"{model.num_constraints} constraints\n")

    lp_text = model.render_lp()
    preview = "\n".join(lp_text.splitlines()[:18])
    print("LP-format preview:")
    print(preview)
    print("  ...\n")

    own = solve(model, backend="own")
    ref = solve(model, backend="scipy")
    print(f"own simplex+B&B : objective={own.objective:.0f}  "
          f"({own.stats.simplex_iterations} simplex iterations, "
          f"{own.stats.nodes} B&B nodes, {own.stats.wall_time * 1e3:.1f} ms)")
    print(f"scipy/HiGHS     : objective={ref.objective:.0f}  "
          f"({ref.stats.wall_time * 1e3:.1f} ms)")

    minlp = solve_chunk_minlp(spec)
    true_energy = nonlinear_objective(spec, own.values)
    print(f"\nexact MINLP (enumeration of {minlp.evaluated} assignments, "
          f"{minlp.wall_time * 1e3:.1f} ms): objective={minlp.objective:.0f}")
    print(f"true energy of the ILP solution: {true_energy:.0f}")
    verdict = "SAME decisions" if abs(true_energy - minlp.objective) < 1e-6 else "DIFFER"
    print(f"linear approximation vs MINLP: {verdict} "
          "(the paper observed the same on all its test cases)")


if __name__ == "__main__":
    main()
