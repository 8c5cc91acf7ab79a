"""Figure 16 / §5.7: the update-conscious data allocation cases.

D1 — inserting globals: GCC-DA's name-hash layout cascades offsets and
re-encodes a large fraction of the instructions; UCC-DA keeps survivors
in place.  D2 — shuffling declaration order and renaming variables:
invisible under UCC-DA (renames land in the deleted slots), while the
rename perturbs GCC-DA's hash order.
"""

from repro.core import plan_update
from repro.workloads import CASES, DATA_CASE_IDS
from repro.config import UpdateConfig

from conftest import emit_table


def test_fig16_data_layout(benchmark, case_olds):
    rows = []
    for cid in DATA_CASE_IDS:
        case = CASES[cid]
        old = case_olds[cid]
        gcc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="gcc"))
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        moved_gcc = len(gcc.new.layout.moved_objects(old.layout))
        moved_ucc = len(ucc.new.layout.moved_objects(old.layout))
        total = ucc.diff.new_instructions
        rows.append(
            [
                cid,
                case.description[:46],
                gcc.diff_inst,
                f"{100.0 * gcc.diff_inst / total:.1f}%",
                ucc.diff_inst,
                moved_gcc,
                moved_ucc,
            ]
        )
        assert ucc.diff_inst <= gcc.diff_inst
        assert moved_ucc <= moved_gcc
    emit_table(
        "fig16_data_layout",
        ["case", "update", "GCC-DA diff", "of binary", "UCC-DA diff", "GCC-DA moved", "UCC-DA moved"],
        rows,
    )

    # D2's headline: renames are (nearly) free under UCC-DA.
    case = CASES["D2"]
    ucc = plan_update(case_olds["D2"], case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
    assert ucc.diff_inst <= 2

    benchmark(
        plan_update,
        case_olds["D1"],
        CASES["D1"].new_source,
        config=UpdateConfig(ra="ucc", da="ucc"),
    )


def test_fig16_space_threshold_tradeoff(case_olds):
    """The SpaceT knob (eq. 16): a zero threshold reclaims all waste,
    a large threshold avoids relocations (and their re-encodings)."""
    case = CASES["D2"]
    old = case_olds["D2"]
    tight = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc", space_threshold=0))
    loose = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc", space_threshold=64))
    rows = [
        ["SpaceT=0", tight.diff_inst, tight.new.layout.wasted_bytes],
        ["SpaceT=64", loose.diff_inst, loose.new.layout.wasted_bytes],
    ]
    emit_table(
        "fig16_space_threshold", ["threshold", "diff_inst", "wasted bytes"], rows
    )
    assert tight.new.layout.wasted_bytes <= loose.new.layout.wasted_bytes
