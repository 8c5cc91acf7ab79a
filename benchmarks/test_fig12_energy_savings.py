"""Figure 12: energy savings per update as a function of execution
count ``Cnt`` (paper eqs. 18-19).

Reproduced shape:

* cases where UCC-RA and GCC-RA tie on code quality have savings
  independent of Cnt (pure transmission savings);
* cases where keeping the old decisions costs run-time cycles (extra
  saved registers, inserted movs) lose savings as Cnt grows;
* the planner's adaptive fallback (paper §5.5: *"UCC-RA falls back to
  GCC-RA when test case 12 is executed more than 10^7 times"*) keeps
  the savings non-negative at every Cnt.
"""

from repro.core import UpdatePlanner, measure_cycles, plan_update
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.workloads import CASES
from repro.config import UpdateConfig

from conftest import emit_table

CNT_SWEEP = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]
SHOWN_CASES = ["1", "4", "6", "8", "12"]


def test_fig12_energy_savings(benchmark, case_olds):
    model = DEFAULT_ENERGY_MODEL
    rows = []
    fallbacks = 0
    for cid in SHOWN_CASES:
        case = CASES[cid]
        old = case_olds[cid]
        planner = UpdatePlanner(old)
        row = [cid]
        for cnt in CNT_SWEEP:
            baseline = measure_cycles(
                planner.plan(case.new_source, config=UpdateConfig(ra="gcc", da="ucc"))
            )
            adaptive = planner.plan_adaptive(case.new_source, cnt=cnt)
            savings = baseline.diff_energy(cnt, model) - adaptive.diff_energy(
                cnt, model
            )
            fallbacks += adaptive.ra_strategy.endswith("(gcc)")
            row.append(f"{savings / 1000.0:.1f}k")
            assert savings >= -1e-6, (cid, cnt, savings)
        rows.append(row)
    emit_table(
        "fig12_energy_savings",
        ["case"] + [f"Cnt={c:g}" for c in CNT_SWEEP],
        rows,
    )

    case = CASES["4"]
    benchmark(
        plan_update,
        case_olds["4"],
        case.new_source,
        config=UpdateConfig(ra="ucc", da="ucc"),
    )


def test_fig12_cnt_gates_move_insertion():
    """The Cnt-dependence itself, isolated: a Figure 4(c) scenario where
    the preferred register is blocked at the definition but free over a
    long unchanged tail.  At small Cnt the planner inserts the mov (one
    extra executed instruction buys many untransmitted words); at huge
    Cnt the energy model rejects it — the §5.5 fallback in miniature."""
    from repro.core import compile_source

    # Paper Figure 4: a and b had disjoint live ranges sharing one
    # register; the update extends a's range across b's definition, so
    # b's preferred register is occupied at its def but frees before a
    # long unchanged tail of b-uses.
    tail = "\n".join("    g = g ^ b;" for _ in range(8))
    old_src = (
        f"u8 g;\nvoid f(u8 a) {{\n    g = g + a;\n    u8 b = g & 3;\n{tail}\n}}\n"
        "void main() { f(1); halt(); }"
    )
    new_src = (
        "u8 g;\nvoid f(u8 a) {\n    g = g + a;\n    u8 b = g & 3;\n"
        "    g = g + a;\n" + tail + "\n}\nvoid main() { f(1); halt(); }"
    )
    old = compile_source(old_src)
    small = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc", expected_runs=1.0))
    huge = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc", expected_runs=1e9))
    rows = [
        ["Cnt=1", small.moves_inserted(), small.diff_inst],
        ["Cnt=1e9", huge.moves_inserted(), huge.diff_inst],
    ]
    emit_table(
        "fig12_move_gating", ["Cnt", "movs inserted", "Diff_inst"], rows
    )
    assert huge.moves_inserted() <= small.moves_inserted()
