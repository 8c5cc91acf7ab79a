#!/usr/bin/env python3
"""The transmission-vs-execution energy trade-off (paper §2.1, §5.5).

Reproduces the reasoning behind the paper's Figure 12 on one update
case: sweep the projected execution count ``Cnt`` and watch the
adaptive planner choose between

* the UCC compilation (smaller update script, possibly a few extra
  run-time cycles from keeping old register decisions), and
* the baseline compilation (bigger script, best code quality),

falling back to the baseline exactly when the execution term outgrows
the transmission savings — the paper's "UCC-RA falls back to GCC-RA
when the code is executed more than 10^7 times".

Run:  python examples/energy_tradeoff.py
"""

from repro.core import UpdatePlanner, compile_source, measure_cycles
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.workloads import CASES
from repro.config import UpdateConfig


def main() -> None:
    model = DEFAULT_ENERGY_MODEL
    print("the paper's §2.1 rule of thumb:")
    print(
        "  adding 1 instruction to save 1 transmitted word pays off below "
        f"{model.breakeven_executions(1, 1.0):,.0f} executions\n"
    )

    case = CASES["8"]  # adds a parameter; UCC pays one extra saved register
    print(f"update case 8: {case.description}")
    old = compile_source(case.old_source)
    planner = UpdatePlanner(old)

    ucc = measure_cycles(planner.plan(case.new_source, config=UpdateConfig(ra="ucc", da="ucc")))
    baseline = measure_cycles(planner.plan(case.new_source, config=UpdateConfig(ra="gcc", da="ucc")))
    print(
        f"  UCC     : transmits {ucc.diff_words:2d} words, "
        f"runs {ucc.new_cycles - baseline.new_cycles:+d} cycles vs baseline"
    )
    print(f"  baseline: transmits {baseline.diff_words:2d} words\n")

    header = f"{'Cnt':>12s}  {'UCC energy':>14s}  {'baseline energy':>16s}  chosen"
    print(header)
    print("-" * len(header))
    for cnt in (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000):
        chosen = planner.plan_adaptive(
            case.new_source, config=UpdateConfig(expected_runs=cnt)
        )
        ucc_e = ucc.diff_energy(cnt)
        base_e = baseline.diff_energy(cnt)
        winner = "UCC" if chosen.ra_strategy.endswith("(ucc)") else "baseline"
        print(f"{cnt:12,d}  {ucc_e:14,.0f}  {base_e:16,.0f}  {winner}")

    print(
        "\n(energies in normalised units: 1 = one CPU cycle, "
        f"{model.e_trans:.0f} = one transmitted instruction word)"
    )


if __name__ == "__main__":
    main()
