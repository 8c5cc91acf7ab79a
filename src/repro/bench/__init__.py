"""Machine-readable benchmark harness (``repro bench``).

Runs pinned workloads from the paper's experiments — the Figure 8
programs, the Figure 13-15 ILP jobs, the Figure 9 update cases, the
Figure 10 fleet batch, and the dissemination, versioning and device
profile campaigns — checks that each answer digest is stable across
reps, and emits schema-versioned ``BENCH_<area>.json`` reports that
``tools/check_bench.py`` compares against the committed baselines in
``benchmarks/baselines/``.  The ``ilp`` area, the one with a fast and
a reference implementation (:mod:`repro.ilp.fastpath`), is also timed
on the reference path and certified digest-identical to it.
"""

from .harness import (
    DEFAULT_REPS,
    SCHEMA,
    DigestMismatch,
    report_path,
    run_area,
    run_workload,
    write_report,
)
from .workloads import AREAS, EQUAL_METRICS, PAIRED_AREAS, Workload, workloads_for

__all__ = [
    "AREAS",
    "DEFAULT_REPS",
    "DigestMismatch",
    "EQUAL_METRICS",
    "PAIRED_AREAS",
    "SCHEMA",
    "Workload",
    "report_path",
    "run_area",
    "run_workload",
    "workloads_for",
    "write_report",
]
