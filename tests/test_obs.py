"""Unit tests for the observability layer (repro.obs).

Covers the tracer (nesting, exception safety, disabled no-ops, both
export formats), the metrics registry (all three instrument kinds,
type collisions, deltas, reset), and the docs checker's extraction
logic (tools/check_docs.py).
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


# ---------------------------------------------------------------------------
# tracer


def test_span_nesting_records_depths_in_completion_order():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner2"):
            pass
    events = tracer.events()
    assert [(e.name, e.depth) for e in events] == [
        ("inner", 1),
        ("inner2", 1),
        ("outer", 0),
    ]
    outer = events[-1]
    assert outer.duration_us >= sum(e.duration_us for e in events[:-1]) - 1e-6


def test_span_exception_sets_error_flag_and_propagates():
    tracer = Tracer(enabled=True)
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("boom"):
                raise ValueError("x")
    events = tracer.events()
    assert [(e.name, e.error) for e in events] == [
        ("boom", True),
        ("outer", True),
    ]
    # Depth bookkeeping survived the unwind.
    with tracer.span("after"):
        pass
    assert tracer.events()[-1].depth == 0


def test_span_args_and_set():
    tracer = Tracer(enabled=True)
    with tracer.span("s", a=1) as sp:
        sp.set(b=2)
    assert tracer.events()[0].args == {"a": 1, "b": 2}


def test_disabled_tracer_is_a_shared_noop():
    tracer = Tracer()
    s1 = tracer.span("x", big=list(range(100)))
    s2 = tracer.span("y")
    assert s1 is s2  # the shared null span: no per-call allocation
    with s1 as sp:
        sp.set(anything="ignored")
    assert tracer.events() == []


def test_disable_mid_span_drops_the_event():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        tracer.disable()
    assert tracer.events() == []


def test_reset_clears_events_and_epoch():
    tracer = Tracer(enabled=True)
    with tracer.span("a"):
        pass
    tracer.reset()
    assert tracer.events() == []
    with tracer.span("b"):
        pass
    assert tracer.events()[0].start_us < 1e6  # fresh epoch


def test_jsonl_schema():
    tracer = Tracer(enabled=True)
    with tracer.span("a", k="v"):
        pass
    lines = tracer.to_jsonl().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"name", "start_us", "dur_us", "depth", "args", "error"}
    assert record["name"] == "a"
    assert record["args"] == {"k": "v"}
    assert record["error"] is False


def test_chrome_trace_schema():
    tracer = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tracer.span("net.fail"):
            raise RuntimeError("x")
    with tracer.span("ilp.ok", backend="own"):
        pass
    doc = tracer.chrome_trace()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert len(events) == 2
    for ev in events:
        assert ev["ph"] == "X"
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(ev)
    by_name = {ev["name"]: ev for ev in events}
    assert by_name["net.fail"]["cat"] == "net"
    assert by_name["net.fail"]["args"]["error"] is True
    assert by_name["ilp.ok"]["args"] == {"backend": "own"}


def test_trace_file_writers(tmp_path):
    tracer = Tracer(enabled=True)
    with tracer.span("a"):
        pass
    jsonl = tmp_path / "t.jsonl"
    chrome = tmp_path / "t.json"
    tracer.write_jsonl(str(jsonl))
    tracer.write_chrome_trace(str(chrome))
    assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "a"
    assert json.loads(chrome.read_text())["traceEvents"][0]["name"] == "a"


# ---------------------------------------------------------------------------
# metrics


def test_counter_accumulates_and_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("t.count")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    assert reg.counter("t.count") is c  # get-or-create


def test_gauge_keeps_last_value():
    reg = MetricsRegistry()
    g = reg.gauge("t.level")
    g.set(7)
    g.set(3)
    assert g.value == 3


def test_histogram_summary():
    reg = MetricsRegistry()
    h = reg.histogram("t.sizes")
    for v in (4, 10, 1):
        h.observe(v)
    snap = h.snapshot()
    assert snap == {
        "type": "histogram",
        "count": 3,
        "sum": 15.0,
        "min": 1,
        "max": 10,
        "mean": 5.0,
    }
    assert reg.histogram("t.sizes").mean == 5.0


def test_type_collision_raises():
    reg = MetricsRegistry()
    reg.counter("t.x")
    with pytest.raises(TypeError):
        reg.gauge("t.x")


def test_values_delta_and_reset():
    reg = MetricsRegistry()
    reg.counter("a.one").inc(5)
    reg.histogram("a.two").observe(1)
    reg.counter("b.other").inc()
    before = reg.values("a.")
    reg.counter("a.one").inc(2)
    reg.histogram("a.two").observe(9)
    delta = reg.delta(before, "a.")
    assert delta == {"a.one": 2.0, "a.two": 1.0}  # histograms delta by count
    assert set(reg.values()) == {"a.one", "a.two", "b.other"}
    reg.reset()
    assert reg.values() == {"a.one": 0.0, "a.two": 0.0, "b.other": 0.0}


def test_render_mentions_every_metric():
    reg = MetricsRegistry()
    reg.counter("r.c").inc()
    reg.histogram("r.h").observe(2)
    text = reg.render()
    assert "r.c: 1" in text
    assert "count=1" in text


# ---------------------------------------------------------------------------
# the docs checker's extraction


def _check_docs():
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "check_docs",
        Path(__file__).resolve().parent.parent / "tools" / "check_docs.py",
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_check_docs_extracts_multiline_span_names():
    mod = _check_docs()
    sample = 'with trace.span(\n    "multi.line",\n    x=1,\n):\n    pass\n'
    sample += 'metrics.counter("some.count").inc()\n'
    assert mod._SPAN_RE.findall(sample) == ["multi.line"]
    assert mod._METRIC_RE.findall(sample) == ["some.count"]

    spans, mets = mod.emitted_names()
    # Names this PR instruments must be visible to the checker.
    assert "ilp.solve" in spans
    assert "compile.regalloc" in spans  # multiline call site
    assert "net.disseminate_lossy" in spans
    assert "ilp.simplex_iterations" in mets
    assert "fuzz.oracle_failures.trace" in mets


def test_check_docs_reports_a_stale_catalogue_row(tmp_path):
    """A catalogue row naming a span or metric that nothing emits is a
    problem; the schema fields, which have no dot, are not."""
    mod = _check_docs()
    catalogue = (mod.REPO / mod.CATALOGUE).read_text(encoding="utf-8")
    assert "| `start_us` |" in catalogue
    doctored = tmp_path / "OBSERVABILITY.md"
    doctored.write_text(
        catalogue.replace(
            "| `service.batches` |",
            "| `service.workers` | G | processes | worker count |\n"
            "| `service.batches` |",
        ),
        encoding="utf-8",
    )
    assert mod.check_catalogue(doctored) == [
        f"'service.workers' is catalogued in {mod.CATALOGUE} but no span "
        f"or metric literal in src/repro emits it"
    ]


def test_check_docs_passes_on_this_repo():
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
