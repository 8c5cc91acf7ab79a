"""§5.6: the linear (theta = 3/4) approximation vs the exact MINLP.

The paper: *"We observed the same allocation decisions for all the test
cases with or without the approximation.  The only difference is that
solving a non-linear problem is orders of magnitude slower."*

We verify decision equality on real changed chunks (via the true
non-linear energy of the ILP's solution) and record the speed gap
between one ILP solve and the exhaustive non-linear reference.
"""

import time

import pytest

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

from conftest import emit_table

CHUNK_SOURCES = [("6", "tosh_run_next_task"), ("11", "timer_handle_fire")]


def chunk_spec(case_id, fname, candidates=3):
    case = CASES[case_id]
    old = compile_source(case.old_source)
    module = Compiler().front_and_middle(case.new_source)
    fn = module.functions[fname]
    record, report = allocate_ucc_greedy(
        fn, old.module.functions[fname], old.records[fname]
    )
    info = analyze(fn)
    freqs = static_frequencies(fn)
    changed = changed_indices(fn, report.match)
    chunk = next((c for c in report.chunks if c.changed), report.chunks[0])
    return build_spec_for_chunk(
        fn, info, record, report, chunk.start, chunk.end, changed, freqs,
        DEFAULT_ENERGY_MODEL, 1000.0, candidates,
    )


def test_sec56_minlp_vs_ilp(benchmark):
    rows = []
    for case_id, fname in CHUNK_SOURCES:
        spec = chunk_spec(case_id, fname)
        model = build_chunk_model(spec)

        start = time.perf_counter()
        ilp = solve(model, backend="scipy")
        ilp_time = time.perf_counter() - start
        assert ilp.status == "optimal"

        minlp = solve_chunk_minlp(spec)
        ilp_energy = nonlinear_objective(spec, ilp.values)

        rows.append(
            [
                f"case {case_id}:{fname}",
                f"{ilp_energy:.0f}",
                f"{minlp.objective:.0f}",
                "same" if ilp_energy == pytest.approx(minlp.objective) else "DIFFER",
                f"{ilp_time * 1e3:.1f} ms",
                f"{minlp.wall_time * 1e3:.1f} ms ({minlp.evaluated} assignments)",
            ]
        )
        # The approximation must not change the decisions' true energy.
        assert ilp_energy == pytest.approx(minlp.objective, rel=1e-9)
    emit_table(
        "sec56_minlp_vs_ilp",
        ["chunk", "ILP energy (true obj)", "MINLP energy", "decisions", "ILP time", "MINLP time"],
        rows,
    )

    spec = chunk_spec(*CHUNK_SOURCES[0])
    benchmark(solve_chunk_minlp, spec)
