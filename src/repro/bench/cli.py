"""``repro bench`` — run the pinned benchmark areas and write reports.

Mirrors the ``repro lint`` wiring: :func:`add_arguments` attaches the
flags to the subparser in :mod:`repro.cli`, :func:`run` is the
``func`` default.
"""

from __future__ import annotations

import argparse
import sys

from .harness import DigestMismatch, run_area, write_report
from .workloads import AREAS

DEFAULT_OUT = "benchmarks/out"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--area",
        choices=AREAS + ("all",),
        default="all",
        help="benchmark area to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer measurement rounds per workload (same workloads, "
             "so digests stay comparable with the committed baseline)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="override the measurement rounds per workload",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        metavar="DIR",
        help=f"directory for BENCH_<area>.json (default: {DEFAULT_OUT})",
    )


def run(args: argparse.Namespace) -> int:
    areas = AREAS if args.area == "all" else (args.area,)
    for area in areas:
        try:
            report = run_area(area, reps=args.reps, quick=args.quick)
        except DigestMismatch as exc:
            print(f"bench {area}: DIGEST MISMATCH — {exc}", file=sys.stderr)
            return 1
        path = write_report(report, args.out)
        summary = report["summary"]
        speedup = ""
        if "median_speedup" in summary:
            speedup = (
                f", median speedup {summary['median_speedup']:.2f}x "
                f"(min {summary['min_speedup']:.2f}x)"
            )
        print(f"bench {area}: {summary['workloads']} workloads{speedup} -> {path}")
    return 0
