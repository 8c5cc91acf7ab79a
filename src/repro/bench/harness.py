"""Benchmark harness: run pinned workloads, emit ``BENCH_<area>.json``.

Measurement protocol, per workload:

1. ``setup()`` builds the payload once (untimed);
2. one untimed warm-up run pays first-use imports, allocator growth
   and cold caches;
3. ``reps`` timed runs follow, and every run's digest must equal the
   first one's: a workload whose answer changes between reps aborts
   the bench with :class:`DigestMismatch` rather than producing a
   report.

Only the areas in :data:`~repro.bench.workloads.PAIRED_AREAS` (the
``ilp`` area) time code that has two implementations, so only they
run the reference path (:mod:`repro.ilp.fastpath`) too: each timed run
is followed by a reference run, back to back, so machine noise —
frequency scaling, a neighbour stealing the core — hits both paths
alike.  A reference run whose digest or pinned-equal metric
(``EQUAL_METRICS``) differs from the fast run's raises
:class:`DigestMismatch`.  Every other area runs its one path only.

The report is schema-versioned JSON (``repro-bench/2``): per-workload
median/p90/min wall milliseconds (``wall``), the answer digest,
workload metrics (constraint counts, iterations, script sizes), and
process peak RSS.  Paired rows add the reference path's wall times
and the median speedup, and a paired area's summary adds the median
and minimum speedup.  ``tools/check_bench.py`` compares a fresh
report against the committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import time
from pathlib import Path

from ..ilp.fastpath import reference_mode
from .workloads import AREAS, EQUAL_METRICS, PAIRED_AREAS, Workload, workloads_for

SCHEMA = "repro-bench/2"

#: (full, quick) measurement rounds per area.  Quick mode runs the
#: *same* workloads — digests stay comparable with the baseline — just
#: fewer times.
DEFAULT_REPS = {
    "compile": (5, 2),
    "ilp": (5, 2),
    "diff": (5, 2),
    "campaign": (3, 1),
    "dissemination": (3, 1),
    "versioning": (3, 1),
    "profiles": (3, 1),
}


class DigestMismatch(AssertionError):
    """A workload's answer changed between reps, or the fast and the
    reference path disagreed on it."""


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    index = max(0, math.ceil(0.9 * len(ordered)) - 1)
    return ordered[index]


def _stats_ms(samples: list[float]) -> dict:
    return {
        "median_ms": round(_median(samples) * 1000.0, 3),
        "p90_ms": round(_p90(samples) * 1000.0, 3),
        "min_ms": round(min(samples) * 1000.0, 3),
    }


def _timed(workload: Workload, payload: object) -> "tuple[float, str, dict]":
    start = time.perf_counter()
    digest, metrics = workload.job(payload)
    return time.perf_counter() - start, digest, metrics


def run_workload(workload: Workload, reps: int, paired: bool = False) -> dict:
    """Measure one workload; raise :class:`DigestMismatch` if its digest
    changes between reps or, when ``paired``, if the reference path
    disagrees with the fast path on the digest or a pinned-equal
    metric."""
    payload = workload.setup()
    times: list[float] = []
    ref_times: list[float] = []
    digest = None
    metrics: dict = {}
    # One untimed warm-up run per path: the first execution pays
    # allocator growth and cold caches that would skew the first rep.
    workload.job(payload)
    if paired:
        with reference_mode(True):
            workload.job(payload)
    for _ in range(reps):
        elapsed, rep_digest, metrics = _timed(workload, payload)
        times.append(elapsed)
        if digest is not None and rep_digest != digest:
            raise DigestMismatch(
                f"{workload.name}: digest changed between reps "
                f"({digest[:16]}… → {rep_digest[:16]}…)"
            )
        digest = rep_digest
        if not paired:
            continue
        with reference_mode(True):
            elapsed, ref_digest, ref_metrics = _timed(workload, payload)
        ref_times.append(elapsed)
        if ref_digest != digest:
            raise DigestMismatch(
                f"{workload.name}: fast digest {digest[:16]}… != "
                f"reference digest {ref_digest[:16]}…"
            )
        for key in EQUAL_METRICS:
            if key in metrics and metrics[key] != ref_metrics.get(key):
                raise DigestMismatch(
                    f"{workload.name}: metric {key!r} diverged "
                    f"(fast={metrics[key]!r}, reference={ref_metrics.get(key)!r})"
                )
    wall = _stats_ms(times)
    row = {
        "name": workload.name,
        "digest": digest,
        "metrics": {
            key: value
            for key, value in metrics.items()
            if key in EQUAL_METRICS or not key.startswith("time_")
        },
        "wall": wall,
    }
    if paired:
        reference = _stats_ms(ref_times)
        speedup = reference["median_ms"] / wall["median_ms"] if wall["median_ms"] else 1.0
        row["reference"] = reference
        row["speedup_median"] = round(speedup, 3)
    return row


def run_area(area: str, reps: int | None = None, quick: bool = False) -> dict:
    """Run every pinned workload of ``area`` and build its report."""
    if area not in AREAS:
        raise ValueError(f"unknown bench area {area!r}; expected one of {AREAS}")
    if reps is None:
        full, fast_reps = DEFAULT_REPS[area]
        reps = fast_reps if quick else full
    paired = area in PAIRED_AREAS
    rows = [run_workload(workload, reps, paired) for workload in workloads_for(area)]
    summary = {"workloads": len(rows)}
    if paired:
        speedups = [row["speedup_median"] for row in rows]
        summary["median_speedup"] = round(_median(speedups), 3)
        summary["min_speedup"] = round(min(speedups), 3)
    return {
        "schema": SCHEMA,
        "area": area,
        "reps": reps,
        "quick": quick,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "workloads": rows,
        "summary": summary,
    }


def report_path(area: str, out_dir: "str | Path") -> Path:
    return Path(out_dir) / f"BENCH_{area}.json"


def write_report(report: dict, out_dir: "str | Path") -> Path:
    """Write ``BENCH_<area>.json`` under ``out_dir`` (created if needed)."""
    path = report_path(report["area"], out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
