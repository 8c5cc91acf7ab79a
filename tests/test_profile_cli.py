"""Integration tests for ``repro profile`` and repro.obs.profile.

Pins the telemetry contract end to end: a default profile run on a
Figure 9 case emits every documented core phase, the CLI prints the
per-phase table, and the exported Chrome trace is structurally valid.
"""

import json

import pytest

from repro.cli import main
from repro.obs import metrics, trace
from repro.obs.profile import CORE_PHASES, aggregate_phases, profile_update
from repro.workloads import CASES


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Profiling toggles the process-wide tracer; leave it clean."""
    yield
    trace.TRACER.disable()
    trace.TRACER.reset()


CASE = CASES["6"]  # "add an else branch ..." — a Figure 9 quoted case


@pytest.fixture(scope="module")
def report():
    return profile_update(CASE.old_source, CASE.new_source, label="case 6")


def test_profile_emits_every_core_phase(report):
    names = set(report.phase_names())
    missing = [p for p in CORE_PHASES if p not in names]
    assert not missing, f"phases missing from profile: {missing}"


def test_profile_leaves_tracer_disabled(report):
    assert not trace.TRACER.enabled


def test_phase_rows_are_consistent(report):
    rows = {row.name: row for row in report.rows}
    assert rows["profile.total"].calls == 1
    assert rows["sim.run"].calls == 2  # old + new for Diff_cycle
    for row in report.rows:
        assert row.self_ms <= row.total_ms + 1e-9
        assert row.calls >= 1
    # The root span contains everything, so its total is the maximum.
    assert rows["profile.total"].total_ms == max(r.total_ms for r in report.rows)


def test_energy_column_attribution(report):
    rows = {row.name: row for row in report.rows}
    assert rows["net.disseminate"].energy.endswith(" J")
    assert rows["diff.images"].energy.endswith(" u tx")
    assert rows["sim.run"].energy.endswith(" u exe")
    assert rows["compile.full"].energy == "-"


def test_metrics_delta_is_per_run(report):
    delta = report.metrics_delta
    assert delta.get("update.plans") == 1
    assert delta.get("sim.runs") == 2
    # A second profile reports its own deltas, not cumulative totals.
    second = profile_update(CASE.old_source, CASE.new_source, label="again")
    assert second.metrics_delta.get("update.plans") == 1


def test_render_contains_table_and_metrics(report):
    text = report.render()
    assert "phase" in text and "self ms" in text
    for phase in CORE_PHASES:
        assert phase in text
    assert "metrics (this run):" in text
    assert "Diff_inst=" in text


def test_chrome_trace_is_valid(report):
    doc = report.chrome_trace()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert {ev["name"] for ev in events} >= set(CORE_PHASES)
    for ev in events:
        assert ev["ph"] == "X"
        assert isinstance(ev["ts"], (int, float))
        assert isinstance(ev["dur"], (int, float))
        assert ev["dur"] >= 0


def test_self_time_is_total_minus_children(report):
    events = report.events
    rows = {row.name: row for row in aggregate_phases(events)}
    total = rows["profile.total"]
    children_ms = sum(
        ev.duration_us / 1000.0 for ev in events if ev.depth == 1
    )
    assert total.self_ms == pytest.approx(total.total_ms - children_ms, rel=1e-6)


def test_lossy_profile_uses_lossy_span():
    report = profile_update(
        CASE.old_source,
        CASE.new_source,
        loss=0.2,
        grid_side=3,
        simulate=False,
        label="lossy",
    )
    names = set(report.phase_names())
    assert "net.disseminate_lossy" in names
    assert "net.disseminate" not in names
    assert "sim.run" not in names
    assert report.metrics_delta.get("net.lossy.runs") == 1
    assert report.metrics_delta.get("net.lossy.drops", 0) > 0


# ---------------------------------------------------------------------------
# CLI


def test_cli_profile_case(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    jsonl_file = tmp_path / "trace.jsonl"
    code = main(
        [
            "profile",
            "--case",
            "6",
            "--trace",
            str(trace_file),
            "--jsonl",
            str(jsonl_file),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for phase in CORE_PHASES:
        assert phase in out
    assert "Diff_cycle" in out

    doc = json.loads(trace_file.read_text())
    assert {ev["name"] for ev in doc["traceEvents"]} >= set(CORE_PHASES)
    records = [json.loads(line) for line in jsonl_file.read_text().splitlines()]
    assert {r["name"] for r in records} >= set(CORE_PHASES)


def test_cli_profile_files(tmp_path, capsys):
    old = tmp_path / "old.c"
    new = tmp_path / "new.c"
    old.write_text(CASE.old_source)
    new.write_text(CASE.new_source)
    code = main(["profile", str(old), str(new), "--no-sim"])
    assert code == 0
    out = capsys.readouterr().out
    assert "update.plan" in out
    assert "sim.run" not in out


def test_cli_profile_rejects_unknown_case(capsys):
    assert main(["profile", "--case", "nope"]) == 2


def test_cli_profile_requires_inputs(capsys):
    assert main(["profile"]) == 2


@pytest.mark.parametrize("side", ["0", "1"])
def test_cli_profile_refuses_an_empty_fleet(side, capsys):
    assert main(["profile", "--case", "6", "--grid", side, "--no-sim"]) == 2
    assert "no sensor nodes" in capsys.readouterr().err


def test_cli_profile_fails_an_incomplete_dissemination(capsys):
    code = main(["profile", "--case", "6", "--grid", "3", "--loss", "0.99", "--no-sim"])
    assert code == 1
    assert "dissemination incomplete" in capsys.readouterr().err


def test_fuzz_report_embeds_metrics(capsys):
    code = main(["fuzz", "--iters", "3", "--quiet", "--no-shrink"])
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics : " in out
    assert "iterations:3" in out
