"""Shared helpers for the figure-regeneration benchmarks.

Every ``test_figNN_*`` module regenerates the data behind one paper
figure/table and prints it (run with ``pytest benchmarks/
--benchmark-only -s`` to see the tables; they are also written to
``benchmarks/out/``).  The ``benchmark`` fixture times the
representative unit of work of that experiment.
"""

from __future__ import annotations

import os

import pytest

from repro.core import compile_source
from repro.workloads import CASES

# Generated tables land here (gitignored); point REPRO_BENCH_OUT
# somewhere else to keep the tree clean, e.g. in CI.
OUT_DIR = os.environ.get(
    "REPRO_BENCH_OUT", os.path.join(os.path.dirname(__file__), "out")
)


@pytest.fixture(scope="session")
def case_olds():
    return {cid: compile_source(case.old_source) for cid, case in CASES.items()}


def emit_table(name: str, header: list[str], rows: list[list]) -> str:
    """Format, print, and persist one figure's table."""
    widths = [
        max(len(str(cell)) for cell in [head] + [row[i] for row in rows])
        for i, head in enumerate(header)
    ]
    lines = [
        "  ".join(str(head).ljust(widths[i]) for i, head in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))
        )
    text = "\n".join(lines)
    print(f"\n=== {name} ===")
    print(text)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    return text
