"""Ablation: code placement (the paper's stated future work, §3).

Compares three placement strategies across the update cases:

* ``gcc``  — pack functions afresh (conventional);
* ``ucc``  — address-stable slots with NOP padding;
* ``auto`` — evaluate both, ship the smaller script (the default).

Also sweeps placement *headroom* (pre-provisioned slack per function at
first deployment) against a growth-heavy update.
"""

from repro.core import Compiler, plan_update
from repro.workloads import CASES, RA_CASE_IDS
from repro.config import CompileConfig, UpdateConfig

from conftest import emit_table


def test_ablation_placement_strategy(benchmark, case_olds):
    rows = []
    totals = {"gcc": 0, "ucc": 0, "auto": 0}
    for cid in RA_CASE_IDS:
        case = CASES[cid]
        old = case_olds[cid]
        row = [cid]
        for cp in ("gcc", "ucc", None):
            result = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc", cp=cp))
            label = cp or "auto"
            row.append(result.code_script_bytes)
            totals[label] += result.code_script_bytes
        rows.append(row)
    emit_table(
        "ablation_placement",
        ["case", "cp=gcc bytes", "cp=ucc bytes", "cp=auto bytes"],
        rows,
    )
    # Auto must dominate both fixed strategies.
    assert totals["auto"] <= totals["gcc"]
    assert totals["auto"] <= totals["ucc"]

    case = CASES["9"]
    benchmark(
        plan_update,
        case_olds["9"],
        case.new_source,
        config=UpdateConfig(ra="ucc", da="ucc"),
    )


GROWTH_SRC = """
u8 g;
void sensor_task() { g = g + 1; }
void report_task() { g = g + 2; }
void main() { sensor_task(); report_task(); halt(); }
"""

GROWN_SRC = GROWTH_SRC.replace(
    "void sensor_task() { g = g + 1; }",
    "void sensor_task() { g = g + 1; g = g ^ 5; led_set(g); radio_send(g); }",
)


def test_ablation_placement_headroom():
    """Headroom pre-pays flash for future address stability."""
    rows = []
    for headroom in (0, 8, 16, 32):
        old = Compiler(CompileConfig(placement_headroom=headroom)).compile(GROWTH_SRC)
        result = plan_update(old, GROWN_SRC, config=UpdateConfig(ra="ucc", da="ucc", cp="ucc"))
        stable = len(result.new.placement.stable_functions(old.placement))
        rows.append(
            [
                headroom,
                old.size_words,
                result.code_script_bytes,
                f"{stable}/{len(result.new.placement.slots)}",
            ]
        )
    emit_table(
        "ablation_headroom",
        ["headroom (words)", "deployed words", "update bytes", "stable functions"],
        rows,
    )
    # With enough headroom every function keeps its address.
    assert rows[-1][3].startswith("3/")
