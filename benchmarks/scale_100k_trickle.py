#!/usr/bin/env python3
"""The 100k-node Trickle acceptance run (docs/SIMULATOR.md).

Not a pytest benchmark (no ``test_`` prefix on purpose — a 100k-node
fleet takes a couple of minutes of wall time): run it directly from
the repository root when re-validating the scale numbers quoted in
docs/SIMULATOR.md and EXPERIMENTS.md.

    PYTHONPATH=src python benchmarks/scale_100k_trickle.py

Acceptance gates checked here:

* the fleet converges within the 3600 s simulated budget and under
  5 minutes of wall time;
* every node's ledger prices idle-listening (the LPL_1 duty cycle);
* the report digest equals :data:`DIGEST`, so a faster kernel is also
  the same simulation (every RNG draw, event and joule as before).

The fuzz-nightly workflow runs it.
"""

import sys
import time

from repro.net.topology import grid
from repro.net.trickle import run_trickle

NODES_W, NODES_H = 400, 250
LOSS = 0.05
SEED = 4
BLOB = bytes(range(256)) * 2 + bytes(88)  # 600 B -> 28 packets
WALL_BUDGET_S = 300.0
#: ``report.digest()`` of this run; it moves only with an intended
#: change to Trickle's answers, regenerated like the goldens.
DIGEST = "eca7f1eaba9a96a958bd8aef53afbed072bb133c6f830d6112d889c755be31c5"


def main() -> int:
    topology = grid(NODES_W, NODES_H)
    print(f"fleet: {topology.node_count} nodes, loss {LOSS:.0%}, "
          f"{len(BLOB)} B blob")
    start = time.perf_counter()
    report = run_trickle(
        topology, BLOB, loss=LOSS, seed=SEED, max_time=3600.0
    )
    wall_s = time.perf_counter() - start
    print(report.render())
    print(f"wall     : {wall_s:.1f}s ({report.events} events, "
          f"{report.events / wall_s:,.0f} events/s)")
    print(f"digest   : {report.digest()}")

    failures = []
    if report.digest() != DIGEST:
        failures.append(f"report digest moved (pinned {DIGEST})")
    if not report.converged:
        failures.append(f"fleet did not converge ({report.outcome})")
    if wall_s > WALL_BUDGET_S:
        failures.append(f"wall time {wall_s:.1f}s over the "
                        f"{WALL_BUDGET_S:.0f}s budget")
    sink_ledger = report.ledgers[0]
    if sink_ledger.idle_j <= 0.0 and report.total_idle_j <= 0.0:
        failures.append("no idle-listening energy priced anywhere")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
