"""Figure 10: the code dissemination cost (Diff_inst), UCC-RA vs GCC-RA.

The paper compares UCC-RA against the *best possible* binary match for
GCC-RA (our differ produces the optimal alignment for both).  To
decouple register allocation from data layout, both strategies run with
the update-conscious data layout (the paper likewise reports only
directly-affected functions).

Also reproduces the §5.3 case-13 discussion: reused instructions under
each strategy for the application-replacement update.
"""

from repro.core import plan_update
from repro.workloads import CASES, RA_CASE_IDS
from repro.config import UpdateConfig

from conftest import emit_table


def test_fig10_dissemination_cost(benchmark, case_olds):
    rows = []
    wins = 0
    for cid in RA_CASE_IDS:
        case = CASES[cid]
        old = case_olds[cid]
        gcc = plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="ucc"))
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        rows.append(
            [
                cid,
                case.level,
                gcc.diff_inst,
                ucc.diff_inst,
                gcc.diff_inst - ucc.diff_inst,
                ucc.script_bytes,
                ucc.packets.packet_count,
            ]
        )
        wins += ucc.diff_inst <= gcc.diff_inst
    emit_table(
        "fig10_dissemination_cost",
        ["case", "level", "GCC-RA diff_inst", "UCC-RA diff_inst", "saved", "UCC script B", "packets"],
        rows,
    )
    assert wins == len(RA_CASE_IDS), "UCC-RA must never lose on Diff_inst"

    case = CASES["6"]
    benchmark(
        plan_update,
        case_olds["6"],
        case.new_source,
        config=UpdateConfig(ra="ucc", da="ucc"),
    )


def test_fig10_case13_reuse(case_olds):
    """§5.3: the large change reuses structurally-similar code; UCC-RA
    reuses more than GCC-RA (paper: 422 + 15% for the TinyOS images)."""
    case = CASES["13"]
    old = case_olds["13"]
    gcc = plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="ucc"))
    ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
    rows = [
        ["old instructions (CntToLeds)", gcc.diff.old_instructions],
        ["new instructions (CntToRfm)", gcc.diff.new_instructions],
        ["GCC-RA reused", gcc.reused_instructions],
        ["UCC-RA reused", ucc.reused_instructions],
        ["extra reuse (UCC-GCC)", ucc.reused_instructions - gcc.reused_instructions],
        ["GCC-RA transmitted", gcc.diff_inst],
        ["UCC-RA transmitted", ucc.diff_inst],
    ]
    emit_table("fig10_case13_reuse", ["quantity", "value"], rows)
    assert ucc.reused_instructions >= gcc.reused_instructions
