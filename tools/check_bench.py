#!/usr/bin/env python3
"""Compare fresh ``BENCH_<area>.json`` reports against committed baselines.

Three classes of check, in decreasing severity:

* **digests / pinned metrics** — the workload answer digests and the
  pinned-equal metrics (constraint counts, simplex iterations) must
  match the baseline exactly.  They are pure functions of the answer,
  so a mismatch means the code changed behaviour, not speed: always a
  hard failure, on any machine.
* **speedup ratio** — every baseline workload that records a
  fast/reference median speedup (the ``ilp`` area, the only one timed
  on both paths) must keep it within ``--tolerance`` (default 20%)
  of the baseline's.  Ratios divide out the machine, so this runs in
  CI.
* **wall time** — each workload's median wall time must not exceed the
  baseline's by more than ``--tolerance``.  Only meaningful on the
  machine that produced the baseline; ``--skip-wall`` disables it
  (CI does).

Reads ``repro-bench/2`` reports only.

Usage::

    python tools/check_bench.py benchmarks/out [--baseline benchmarks/baselines]
        [--area ilp ...] [--tolerance 0.2] [--skip-wall]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

AREAS = (
    "compile",
    "ilp",
    "diff",
    "campaign",
    "dissemination",
    "versioning",
    "profiles",
)
SCHEMA = "repro-bench/2"


def load_report(directory: Path, area: str) -> "dict | None":
    path = directory / f"BENCH_{area}.json"
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    if report.get("schema") != SCHEMA:
        raise SystemExit(
            f"{path}: unsupported schema {report.get('schema')!r}; "
            f"check_bench reads {SCHEMA!r} only — re-run `repro bench` "
            "to write a current report"
        )
    return report


def compare_area(
    baseline: dict, current: dict, tolerance: float, skip_wall: bool
) -> "list[str]":
    """All regressions of one area, as human-readable failure lines."""
    failures: list[str] = []
    area = baseline["area"]
    base_rows = {row["name"]: row for row in baseline["workloads"]}
    cur_rows = {row["name"]: row for row in current["workloads"]}
    missing = sorted(set(base_rows) - set(cur_rows))
    if missing:
        failures.append(f"{area}: workloads missing from current run: {missing}")
    for name, base in sorted(base_rows.items()):
        cur = cur_rows.get(name)
        if cur is None:
            continue
        if cur["digest"] != base["digest"]:
            failures.append(
                f"{area}/{name}: DIGEST MISMATCH — answer changed "
                f"({base['digest'][:16]}… → {cur['digest'][:16]}…)"
            )
        for key, base_value in base.get("metrics", {}).items():
            cur_value = cur.get("metrics", {}).get(key)
            if cur_value != base_value:
                failures.append(
                    f"{area}/{name}: pinned metric {key} changed "
                    f"({base_value!r} → {cur_value!r})"
                )
        if "speedup_median" in base:
            floor = base["speedup_median"] * (1.0 - tolerance)
            current_speedup = cur.get("speedup_median")
            if current_speedup is None:
                failures.append(f"{area}/{name}: speedup missing from current run")
            elif current_speedup < floor:
                failures.append(
                    f"{area}/{name}: speedup regressed "
                    f"{base['speedup_median']:.2f}x → {current_speedup:.2f}x "
                    f"(floor {floor:.2f}x at tolerance {tolerance:.0%})"
                )
        if not skip_wall:
            ceiling = base["wall"]["median_ms"] * (1.0 + tolerance)
            if cur["wall"]["median_ms"] > ceiling:
                failures.append(
                    f"{area}/{name}: wall regressed "
                    f"{base['wall']['median_ms']:.1f}ms → "
                    f"{cur['wall']['median_ms']:.1f}ms "
                    f"(ceiling {ceiling:.1f}ms at tolerance {tolerance:.0%})"
                )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="directory with fresh BENCH_<area>.json")
    parser.add_argument(
        "--baseline",
        default="benchmarks/baselines",
        help="directory with committed baselines (default: %(default)s)",
    )
    parser.add_argument(
        "--area",
        action="append",
        choices=AREAS,
        default=None,
        help="check only these areas (repeatable; default: all with a baseline)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative regression (default: %(default)s)",
    )
    parser.add_argument(
        "--skip-wall",
        action="store_true",
        help="skip absolute wall-time checks (use on machines other "
             "than the baseline's)",
    )
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    current_dir = Path(args.current)
    areas = tuple(args.area) if args.area else AREAS
    failures: list[str] = []
    checked = 0
    for area in areas:
        baseline = load_report(baseline_dir, area)
        if baseline is None:
            if args.area:
                failures.append(f"{area}: no baseline in {baseline_dir}")
            continue
        current = load_report(current_dir, area)
        if current is None:
            failures.append(f"{area}: no current report in {current_dir}")
            continue
        checked += 1
        area_failures = compare_area(baseline, current, args.tolerance, args.skip_wall)
        failures.extend(area_failures)
        status = "FAIL" if area_failures else "ok"
        speedups = ""
        if "median_speedup" in baseline["summary"]:
            current_speedup = current["summary"].get("median_speedup", float("nan"))
            speedups = (
                f" (baseline median speedup {baseline['summary']['median_speedup']:.2f}x, "
                f"current {current_speedup:.2f}x)"
            )
        print(f"check_bench {area}: {status}{speedups}")
    if not checked and not failures:
        failures.append(f"no baselines found in {baseline_dir}")
    for line in failures:
        print(f"  {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
