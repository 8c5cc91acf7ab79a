"""Scale: compile and update-planning cost versus program size.

Complements the paper's §5.6 compilation-time study (Figures 13-15
cover the ILP solver; this covers the end-to-end pipeline): the paper
argues UCC's extra compile cost is acceptable because "sensor
applications are small programs" and the work runs sink-side where
energy is abundant.  We quantify both compile and plan time across the
shipped workloads and synthetic programs of growing size.
"""

import time

from repro.core import compile_source, plan_update
from repro.workloads import PROGRAMS
from repro.workloads.extra import EXTRA_PROGRAMS
from repro.config import UpdateConfig
from repro.workloads.synthetic import synthetic_chunk_source

from conftest import emit_table


def test_scale_workloads(benchmark):
    rows = []
    for name, source in {**PROGRAMS, **EXTRA_PROGRAMS}.items():
        start = time.perf_counter()
        program = compile_source(source)
        compile_ms = (time.perf_counter() - start) * 1e3

        edited = source.replace("halt();", "led_set(1);\n    halt();", 1)
        start = time.perf_counter()
        result = plan_update(program, edited, config=UpdateConfig(ra="ucc", da="ucc"))
        plan_ms = (time.perf_counter() - start) * 1e3
        rows.append(
            [
                name,
                program.instruction_count,
                f"{compile_ms:.1f} ms",
                f"{plan_ms:.1f} ms",
                result.diff_inst,
            ]
        )
    emit_table(
        "scale_workloads",
        ["program", "instructions", "compile", "ucc plan", "Diff_inst"],
        rows,
    )
    benchmark(compile_source, PROGRAMS["CntToRfm"])


def test_scale_synthetic_growth():
    """Planning cost grows roughly linearly with program size (no
    super-linear blowups hiding in the matcher/chunker/differ)."""
    rows = []
    times = []
    for statements in (20, 40, 80, 160):
        source = synthetic_chunk_source(statements)
        program = compile_source(source)
        edited = source.replace("v0 = v1", "v0 = v2", 1)
        start = time.perf_counter()
        result = plan_update(program, edited, config=UpdateConfig(ra="ucc", da="ucc"))
        elapsed = time.perf_counter() - start
        times.append((program.instruction_count, elapsed))
        rows.append(
            [
                statements,
                program.instruction_count,
                f"{elapsed * 1e3:.1f} ms",
                result.diff_inst,
            ]
        )
    emit_table(
        "scale_synthetic",
        ["statements", "instructions", "ucc plan time", "Diff_inst"],
        rows,
    )
    (n1, t1), (n2, t2) = times[0], times[-1]
    # 8x the instructions must cost well under 8x^2 the time.
    assert t2 / t1 < (n2 / n1) ** 2


def test_scale_extended_cases():
    """The Figure-10 comparison repeated on the larger extra workloads
    (Surge / Oscilloscope, cases E1-E4)."""
    from repro.workloads.extra import EXTRA_CASES

    rows = []
    for case_id, (desc, old_src, new_src) in EXTRA_CASES.items():
        old = compile_source(old_src)
        baseline = plan_update(old, new_src, config=UpdateConfig(ra="gcc", da="gcc"))
        ucc = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc"))
        rows.append(
            [
                case_id,
                desc[:44],
                baseline.diff_inst,
                ucc.diff_inst,
                ucc.script_bytes,
            ]
        )
        assert ucc.diff_inst <= baseline.diff_inst
    emit_table(
        "scale_extended_cases",
        ["case", "update", "GCC diff", "UCC diff", "UCC script B"],
        rows,
    )
