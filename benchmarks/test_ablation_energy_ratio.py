"""Ablation: the transmission/execution energy ratio.

The paper's techniques are motivated by the Mica2's ~1000x bit-to-
instruction energy ratio (§1).  The conclusion section conjectures the
approach carries to other costly-communication environments (cellular
ad-hoc networks) — i.e. to other ratios.  This ablation sweeps the
ratio and reports

* the §2.1 breakeven execution count (linear in the ratio), and
* the planner's adaptive choice for a case where UCC's code is slower
  (case 8): cheap radios should flip the decision to the baseline
  sooner.
"""

from repro.config import UpdateConfig
from repro.core import UpdatePlanner
from repro.energy import EnergyModel
from repro.workloads import CASES

from conftest import emit_table

RATIOS = [1.0, 10.0, 100.0, 1000.0, 10000.0]


def test_ablation_energy_ratio(benchmark, case_olds):
    case = CASES["8"]
    old = case_olds["8"]
    cnt = 10.0
    rows = []
    choices = []
    for ratio in RATIOS:
        model = EnergyModel(bit_cost_ratio=ratio)
        planner = UpdatePlanner(
            old, energy=model, config=UpdateConfig(expected_runs=cnt)
        )
        chosen = planner.plan_adaptive(case.new_source)
        choice = "UCC" if chosen.ra_strategy.endswith("(ucc)") else "baseline"
        choices.append(choice)
        rows.append(
            [
                f"{ratio:g}x",
                f"{model.breakeven_executions(1, 1.0):,.0f}",
                chosen.diff_inst,
                choice,
            ]
        )
    emit_table(
        "ablation_energy_ratio",
        ["bit/instr ratio", "breakeven runs (+1 instr/-1 word)", "Diff_inst", "chosen"],
        rows,
    )
    # Expensive radios favour UCC; once the radio is cheap enough the
    # execution term wins and the planner prefers the baseline.
    assert choices[-1] == "UCC" or choices[0] == "baseline"
    assert "UCC" in choices  # the trade flips somewhere in the sweep

    model = EnergyModel(bit_cost_ratio=1000.0)
    planner = UpdatePlanner(old, energy=model)
    benchmark(planner.plan, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
