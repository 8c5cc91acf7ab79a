"""Tests for the benchmark harness (:mod:`repro.bench`) and the
baseline comparator (``tools/check_bench.py``)."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    AREAS,
    PAIRED_AREAS,
    SCHEMA,
    DigestMismatch,
    Workload,
    report_path,
    run_area,
    run_workload,
    workloads_for,
    write_report,
)
from repro.bench.harness import _median, _p90
from repro.ilp.fastpath import fastpath_enabled

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECK_BENCH = REPO_ROOT / "tools" / "check_bench.py"


class TestStats:
    def test_median(self):
        assert _median([3.0, 1.0, 2.0]) == 2.0
        assert _median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_p90(self):
        assert _p90([1.0]) == 1.0
        values = [float(i) for i in range(1, 11)]
        assert _p90(values) == 9.0


def _needs_fast_process():
    if not fastpath_enabled():
        pytest.skip(
            "whole process is in reference mode; both harness legs "
            "run the same path, so a mode-keyed stub cannot diverge"
        )


class TestRunWorkload:
    def test_schema_of_row(self):
        workload = Workload(
            name="stub",
            setup=lambda: 3,
            job=lambda payload: ("d" * 64, {"constraints": payload}),
        )
        row = run_workload(workload, reps=2)
        assert set(row) == {"name", "digest", "metrics", "wall"}
        assert row["name"] == "stub"
        assert row["digest"] == "d" * 64
        assert row["metrics"] == {"constraints": 3}
        for key in ("median_ms", "p90_ms", "min_ms"):
            assert row["wall"][key] >= 0.0

    def test_schema_of_paired_row(self):
        workload = Workload(
            name="stub", setup=lambda: None, job=lambda payload: ("d", {})
        )
        row = run_workload(workload, reps=2, paired=True)
        assert set(row) == {
            "name", "digest", "metrics", "wall", "reference", "speedup_median"
        }
        for key in ("median_ms", "p90_ms", "min_ms"):
            assert row["reference"][key] >= 0.0
        assert row["speedup_median"] >= 0.0

    def test_mode_digest_divergence_fails(self, monkeypatch):
        # The ilp area certifies its reference path on every rep.
        _needs_fast_process()
        stub = Workload(
            name="diverges",
            setup=lambda: None,
            job=lambda payload: (str(fastpath_enabled()), {}),
        )
        monkeypatch.setattr(
            "repro.bench.harness.workloads_for", lambda area: [stub]
        )
        with pytest.raises(DigestMismatch, match="diverges"):
            run_area("ilp", reps=1)

    def test_rep_digest_instability_fails(self):
        for paired in (False, True):
            state = {"calls": 0}

            def job(payload, state=state):
                state["calls"] += 1
                # Same digest within each fast/reference pair, but it
                # moves on by the second rep — a nondeterministic
                # workload on either harness leg.
                return str((state["calls"] - 1) // 2), {}

            workload = Workload(name="unstable", setup=lambda: None, job=job)
            with pytest.raises(DigestMismatch, match="between reps"):
                run_workload(workload, reps=2, paired=paired)

    def test_pinned_metric_divergence_fails(self):
        _needs_fast_process()
        workload = Workload(
            name="itermismatch",
            setup=lambda: None,
            job=lambda payload: (
                "same",
                {"simplex_iterations": 10 if fastpath_enabled() else 11},
            ),
        )
        with pytest.raises(DigestMismatch, match="simplex_iterations"):
            run_workload(workload, reps=1, paired=True)


class TestRunArea:
    def test_report_schema(self, monkeypatch):
        stub = Workload(
            name="stub", setup=lambda: None, job=lambda payload: ("d", {})
        )
        monkeypatch.setattr(
            "repro.bench.harness.workloads_for", lambda area: [stub]
        )
        report = run_area("ilp", reps=1)
        assert report["schema"] == SCHEMA
        assert report["area"] == "ilp"
        assert report["reps"] == 1
        assert report["peak_rss_kb"] > 0
        assert report["summary"]["workloads"] == 1
        assert "median_speedup" in report["summary"]
        assert "speedup_median" in report["workloads"][0]
        report = run_area("compile", reps=1)
        assert report["summary"] == {"workloads": 1}
        assert "speedup_median" not in report["workloads"][0]

    @pytest.mark.parametrize("area", [a for a in AREAS if a != "ilp"])
    def test_unpaired_area_runs_one_path(self, monkeypatch, area):
        _needs_fast_process()
        seen = []

        def job(payload):
            seen.append(fastpath_enabled())
            return "d", {}

        stub = Workload(name="stub", setup=lambda: None, job=job)
        monkeypatch.setattr(
            "repro.bench.harness.workloads_for", lambda area: [stub]
        )
        run_area(area, reps=3)
        # One untimed warm-up, then one run per rep, all on the fast path.
        assert seen == [True] * 4

    def test_unknown_area_rejected(self):
        with pytest.raises(ValueError, match="unknown bench area"):
            run_area("nope")

    def test_every_area_has_workloads(self):
        for area in AREAS:
            assert workloads_for(area), area

    def test_write_report_configurable_out(self, tmp_path):
        report = {"schema": SCHEMA, "area": "ilp", "workloads": []}
        path = write_report(report, tmp_path / "deep" / "dir")
        assert path == report_path("ilp", tmp_path / "deep" / "dir")
        assert json.loads(path.read_text())["area"] == "ilp"


class TestBenchCli:
    def test_compile_area_end_to_end(self, tmp_path):
        from repro.cli import main

        rc = main(
            ["bench", "--area", "compile", "--reps", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "BENCH_compile.json").read_text())
        assert report["schema"] == SCHEMA
        names = [row["name"] for row in report["workloads"]]
        assert "fig08_Blink" in names
        assert all("reference" not in row for row in report["workloads"])


def _report(area="ilp", name="w1", digest="abc", speedup=5.0, wall=100.0,
            metrics=None, schema=SCHEMA):
    """A one-row report; ``speedup=None`` builds an unpaired row."""
    row = {
        "name": name,
        "digest": digest,
        "metrics": {"constraints": 10} if metrics is None else metrics,
        "wall": {"median_ms": wall, "p90_ms": wall, "min_ms": wall},
    }
    summary = {"workloads": 1}
    if speedup is not None:
        row["reference"] = {
            "median_ms": wall * speedup,
            "p90_ms": wall * speedup,
            "min_ms": wall * speedup,
        }
        row["speedup_median"] = speedup
        summary.update(median_speedup=speedup, min_speedup=speedup)
    return {
        "schema": schema,
        "area": area,
        "reps": 2,
        "quick": False,
        "workloads": [row],
        "summary": summary,
    }


def _run_check(baseline, current, *extra):
    base_dir = baseline
    cur_dir = current
    proc = subprocess.run(
        [sys.executable, str(CHECK_BENCH), str(cur_dir),
         "--baseline", str(base_dir), *extra],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc


class TestCheckBench:
    def _write(self, directory: Path, report: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{report['area']}.json").write_text(
            json.dumps(report)
        )

    def test_identical_reports_pass(self, tmp_path):
        report = _report()
        self._write(tmp_path / "base", report)
        self._write(tmp_path / "cur", report)
        proc = _run_check(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 0, proc.stderr

    def test_digest_mismatch_always_fails(self, tmp_path):
        self._write(tmp_path / "base", _report(digest="aaa"))
        self._write(tmp_path / "cur", _report(digest="bbb"))
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 1
        assert "DIGEST MISMATCH" in proc.stderr

    def test_pinned_metric_change_fails(self, tmp_path):
        self._write(tmp_path / "base", _report(metrics={"constraints": 10}))
        self._write(tmp_path / "cur", _report(metrics={"constraints": 11}))
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 1
        assert "pinned metric" in proc.stderr

    def test_speedup_regression_fails(self, tmp_path):
        self._write(tmp_path / "base", _report(speedup=5.0))
        self._write(tmp_path / "cur", _report(speedup=3.0))
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 1
        assert "speedup regressed" in proc.stderr

    def test_speedup_within_tolerance_passes(self, tmp_path):
        self._write(tmp_path / "base", _report(speedup=5.0))
        self._write(tmp_path / "cur", _report(speedup=4.2))
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 0, proc.stderr

    def test_speedup_floor_applies_to_every_ratio(self, tmp_path):
        # No exemption near 1x: only paired rows record a ratio, and
        # theirs is a real fast-vs-reference measurement.
        self._write(tmp_path / "base", _report(speedup=1.0))
        self._write(tmp_path / "cur", _report(speedup=0.5))
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 1
        assert "speedup regressed" in proc.stderr

    def test_missing_speedup_fails(self, tmp_path):
        self._write(tmp_path / "base", _report(speedup=5.0))
        self._write(tmp_path / "cur", _report(speedup=None))
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 1
        assert "speedup missing" in proc.stderr

    def test_unpaired_area_checks_answers_and_wall(self, tmp_path):
        base = _report(area="compile", speedup=None)
        self._write(tmp_path / "base", base)
        self._write(tmp_path / "cur", base)
        proc = _run_check(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 0, proc.stderr
        assert "speedup" not in proc.stdout
        self._write(tmp_path / "cur", _report(area="compile", speedup=None, wall=150.0))
        proc = _run_check(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "wall regressed" in proc.stderr

    def test_schema_1_report_refused(self, tmp_path):
        self._write(tmp_path / "base", _report())
        self._write(tmp_path / "cur", _report(schema="repro-bench/1"))
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 1
        assert "repro-bench/1" in proc.stderr
        assert "repro-bench/2" in proc.stderr

    def test_wall_regression_fails_unless_skipped(self, tmp_path):
        self._write(tmp_path / "base", _report(wall=100.0))
        self._write(tmp_path / "cur", _report(wall=150.0))
        proc = _run_check(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "wall regressed" in proc.stderr
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 0, proc.stderr

    def test_missing_workload_fails(self, tmp_path):
        base = _report()
        cur = copy.deepcopy(base)
        cur["workloads"] = []
        cur["summary"] = {"workloads": 0, "median_speedup": 1.0,
                         "min_speedup": 1.0}
        self._write(tmp_path / "base", base)
        self._write(tmp_path / "cur", cur)
        proc = _run_check(tmp_path / "base", tmp_path / "cur", "--skip-wall")
        assert proc.returncode == 1
        assert "missing" in proc.stderr

    def test_committed_baselines_are_current_schema(self):
        baseline_dir = REPO_ROOT / "benchmarks" / "baselines"
        reports = sorted(baseline_dir.glob("BENCH_*.json"))
        assert len(reports) == len(AREAS)
        for path in reports:
            report = json.loads(path.read_text())
            assert report["schema"] == SCHEMA, path.name
            paired = report["area"] in PAIRED_AREAS
            for row in report["workloads"]:
                assert ("speedup_median" in row) == paired, (path.name, row["name"])
            assert ("median_speedup" in report["summary"]) == paired, path.name

    def test_committed_ilp_baseline_meets_speedup_target(self):
        # The PR's acceptance bar: the pinned Figure 13-15 jobs show a
        # >= 5x median fast-path speedup in the committed baseline.
        path = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_ilp.json"
        report = json.loads(path.read_text())
        assert report["summary"]["median_speedup"] >= 5.0


class TestCommittedVersioningBaseline:
    def test_meets_acceptance_ratios(self):
        # The PR's acceptance bars on the pinned lossy 1k-node fleet:
        # cohort plans >= 2x cheaper than full images in modeled
        # dissemination energy, and the coded transfer measurably
        # cheaper in transmissions than per-packet NACK repair.
        path = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_versioning.json"
        report = json.loads(path.read_text())
        rows = {row["name"]: row["metrics"] for row in report["workloads"]}
        cohorts = rows["lossy1k_cohorts"]
        assert cohorts["energy_ratio"] >= 2.0
        assert cohorts["converged"] == 1
        assert cohorts["replay_identical"] == 1
        coded = rows["lossy1k_coded_vs_nack"]
        assert coded["tx_ratio"] > 1.0
        assert coded["coded_converged"] == 1
