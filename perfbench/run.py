"""End-to-end benchmark of the UCC reproduction, one workload per run.

    python3 perfbench/run.py --workload release_train --seed 1 --seconds 30 --trace 0

Run from the repository root; the program under test is imported from
``src/`` of the same checkout.  Every run is one process with one
thread (numpy's BLAS pool is pinned to one thread before numpy loads)
and one client in a closed loop: each step starts when the previous
one ends.

A run imports ``repro``, sets up ``SETUP_REPS`` times from freshly
loaded modules, then repeats the workload's fixed pass of steps until
``--seconds`` have elapsed (at least ``MIN_PASSES`` passes).  Every
pass starts cold and must reproduce the first pass's simulated answers
and always-on counter deltas exactly.  After the clock stops the
workload's correctness checks run once.  With ``--trace 1`` one extra
pass runs with layer spans installed and the run reports the per-layer
metrics instead of the end-to-end ones.

``setup_s`` and ``wall_s`` are host seconds scaled to a reference host
speed (``HostClock``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A readable report and the spans go to ``perfbench/out/``.
See README.md.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per run; ``setup_s`` reports the import plus their median.
SETUP_REPS = 3
#: Fewest passes per run, so ``peak_rss_mb`` is always read after the
#: same number of passes.
MIN_PASSES = 3

#: The host-speed probe: a fixed pure-Python loop of PROBE_ITERS
#: iterations, run PROBE_REPS times (median taken) between measured
#: sections, at least every PROBE_EVERY_S seconds of measured time.
PROBE_ITERS = 30_000
PROBE_REPS = 5
PROBE_EVERY_S = 0.25
#: A section's host time is scaled by PROBE_REF_S over the mean of the
#: probes around it: scaled seconds are seconds on a host where the
#: probe takes PROBE_REF_S (this host's slower spells).
PROBE_REF_S = 0.0025

ANSWER_KEYS = ("shipped_bytes", "energy_j", "transmissions", "sim_time_s", "image_cycles")


def _spin(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


class HostClock:
    """Host seconds scaled to a reference host speed.

    The host this benchmark was built on alternates between fast and
    slow spells that move all pure-Python work by the same factor, up
    to twice as slow, and change within seconds (RESULTS.md).  A run is
    one sample of those spells, so raw seconds spread across runs by
    more than any bound worth setting.  The probe runs only this file's
    own loop, so a change to the program moves the scaled time exactly
    as it moves the host time.
    """

    def __init__(self):
        #: every probe of the run, in seconds, in order
        self.probes: list[float] = []

    def probe(self) -> int:
        """Time the loop now; returns the probe's index."""
        reps = []
        for _ in range(PROBE_REPS):
            start = time.perf_counter()
            _spin(PROBE_ITERS)
            reps.append(time.perf_counter() - start)
        self.probes.append(statistics.median(reps))
        return len(self.probes) - 1

    def speed(self, index: int) -> float:
        """Probe ``index`` through a median of three neighbouring probes,
        so one probe that lands in a stall of a few milliseconds does not
        rescale the sections on either side of it."""
        first = min(max(index - 1, 0), len(self.probes) - 3)
        return statistics.median(self.probes[first : first + 3])

    def scaled(self, sections) -> float:
        """Scaled seconds of ``sections``: (host s, probe before, probe after)."""
        return sum(
            host_s * 2.0 * PROBE_REF_S / (self.speed(before) + self.speed(after))
            for host_s, before, after in sections
        )

    def measure(self, fn):
        """Run ``fn`` between two probes; returns (result, section)."""
        before = self.probe()
        start = time.perf_counter()
        result = fn()
        return result, (time.perf_counter() - start, before, self.probe())


def import_repro() -> None:
    """Import the checkout's ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def reload_repro() -> None:
    """Drop every loaded ``repro`` module and import the package again,
    so the next set-up starts from module state as cold as the first
    one did (numpy stays loaded: it cannot be imported twice)."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    importlib.import_module("repro")


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def counter_values() -> dict[str, float]:
    """Always-on counters, plus count and sum of every histogram
    (gauges hold a last value, not work done, and are left out)."""
    from repro.obs.metrics import REGISTRY

    values = {}
    for name, snap in REGISTRY.snapshot().items():
        if snap["type"] == "counter":
            values[name] = snap["value"]
        elif snap["type"] == "histogram":
            values[name] = float(snap["count"])
            values[f"{name}:sum"] = float(snap["sum"])
    return values


def run_pass(workload, state, clock, recorder=None):
    """One cold pass of the workload's steps; returns (host times per
    step, outcomes, counter deltas, timed sections for ``clock``).

    The clock probes the host before the first step, after the last,
    and between steps once PROBE_EVERY_S of measured time has passed.
    """
    from cases import reset_caches

    reset_caches()
    steps = workload.steps(state)
    gc.collect()
    before = counter_values()
    times, outcomes, sections = [], [], []
    stretch, opened = 0.0, clock.probe()
    for index, step in enumerate(steps):
        if stretch >= PROBE_EVERY_S:
            closed = clock.probe()
            sections.append((stretch, opened, closed))
            stretch, opened = 0.0, closed
        if recorder is not None:
            recorder.op = index
        start = time.perf_counter()
        outcomes.append(step.run())
        times.append(time.perf_counter() - start)
        stretch += times[-1]
    sections.append((stretch, opened, clock.probe()))
    after = counter_values()
    deltas = {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}
    return times, outcomes, deltas, sections


def pass_mismatch(first, other) -> str | None:
    """Why ``other`` pass did not repeat ``first`` (None when it did)."""
    _, outs_a, deltas_a, _ = first
    _, outs_b, deltas_b, _ = other
    for index, (a, b) in enumerate(zip(outs_a, outs_b)):
        if a.answers != b.answers or a.failed != b.failed:
            return f"step {index} answers differ between passes"
    for name in sorted(set(deltas_a) | set(deltas_b)):
        a, b = deltas_a.get(name, 0.0), deltas_b.get(name, 0.0)
        # Float totals (joules) are differences of a growing running
        # sum, so they repeat only up to rounding.
        if a != b and not math.isclose(a, b, rel_tol=1e-9):
            return f"counter {name} moved by {b} vs {a}"
    return None


def layer_metrics(recorder, traced, overhead_s, import_s, topology_s) -> dict:
    """The per-layer metrics of the traced pass."""
    times, outcomes, deltas, _ = traced
    wall_ms = sum(times) * 1e3
    self_ms = recorder.self_ms()

    def d(name):
        return deltas.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"import.self_ms": import_s * 1e3, "net.topology.self_ms": topology_s * 1e3}
    for layer, ms in self_ms.items():
        m[f"{layer}.self_ms"] = ms
    m["other.self_ms"] = max(wall_ms - recorder.top_level_ms(), 0.0)
    m["lang.calls"] = recorder.calls("lang")
    m["regalloc.moves_inserted"] = d("regalloc.ucc.moves_inserted")
    honoured, broken = d("regalloc.ucc.tags_honoured"), d("regalloc.ucc.tags_broken")
    m["regalloc.tags_honoured_ratio"] = ratio(honoured, honoured + broken)
    m["ilp.solves"] = d("ilp.solves")
    m["ilp.simplex_iterations"] = d("ilp.simplex_iterations")
    m["ilp.bb_nodes"] = d("ilp.bb_nodes")
    hits, misses = d("ilp.cache.hits"), d("ilp.cache.misses")
    m["ilp.cache_hit_ratio"] = ratio(hits, hits + misses)
    adopted = d("regalloc.ilp.chunks_adopted")
    chunks = adopted + sum(
        d(f"regalloc.ilp.chunks_{k}") for k in ("kept_greedy", "infeasible", "skipped")
    )
    m["ilp.adopted_ratio"] = ratio(adopted, chunks)
    backends = recorder.entry_calls("apply_placement")
    m["codegen.plans_per_run"] = ratio(d("update.plans"), backends)
    m["diff.runs"] = d("diff.runs")
    sim_runs = len(recorder.sim_images)
    m["sim.runs"] = sim_runs
    m["sim.minstr_per_s"] = ratio(d("sim.instructions") / 1e6, self_ms["sim"] / 1e3)
    m["sim.unique_ratio"] = ratio(len(set(recorder.sim_images)), sim_runs)
    m["versioning.edges"] = d("versioning.edges")
    m["net.lossy.broadcasts"] = d("net.lossy.broadcasts")
    m["net.lossy.nacks"] = d("net.lossy.nacks")
    rounds = d("campaign.rounds:sum")
    m["net.campaign.rounds"] = rounds
    m["net.campaign.rounds_per_s"] = ratio(rounds, self_ms["net.campaign"] / 1e3)
    for name in ("broadcasts", "nacks", "retransmissions", "drops"):
        m[f"net.campaign.{name}"] = d(f"campaign.{name}")
    m["net.campaign.quarantined"] = d("campaign.quarantined_nodes")
    m["net.coding.transmissions"] = d("net.coding.transmissions")
    m["net.coding.repairs"] = d("net.coding.repairs")
    events = sum(e for e, _ in recorder.trickle_reports)
    m["net.trickle.events"] = events
    m["net.trickle.kevents_per_s"] = ratio(events / 1e3, self_ms["net.trickle"] / 1e3)
    beacons, suppressed = d("net.trickle.beacons"), d("net.trickle.suppressed")
    m["net.trickle.beacons"] = beacons
    m["net.trickle.suppressed_ratio"] = ratio(suppressed, suppressed + beacons)
    m["net.trickle.requests"] = d("net.trickle.requests")
    m["net.trickle.resets"] = d("net.trickle.resets")
    m["net.trickle.quarantined"] = sum(q for _, q in recorder.trickle_reports)
    for name in ("crashes", "reboots", "corruptions", "duplicates"):
        m[f"net.fault.{name}"] = d(f"net.fault.{name}")
    m["trace.overhead_ms"] = overhead_s * 1e3
    m["trace.coverage"] = ratio(recorder.top_level_ms(), wall_ms)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="UCC end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    clock = HostClock()
    _, import_section = clock.measure(import_repro)
    from cases import WORKLOADS, sha256_json
    from layers import SETUP_LAYERS, SpanRecorder

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # -- set-up, several times, each from freshly imported modules; the
    # last state is the one measured ------------------------------------
    build_sections, topology_times = [], []
    for rep in range(SETUP_REPS):
        if rep:
            reload_repro()
        state, section = clock.measure(lambda: workload.setup(args.seed))
        build_sections.append(section)
        topology_times.append(state["topology_s"])
    inputs_digest = sha256_json(state["inputs"])

    # -- timed passes, closed loop, tracing off -----------------------------
    passes, rss_mb = [], []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(workload, state, clock))
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if len(passes) > 1:
            for outcome in passes[-1][1]:
                outcome.artifact = None  # the checks use the first pass only
    # The peak after a fixed number of passes, so a faster program that
    # fits more passes into --seconds does not read as a bigger one.
    peak_rss_mb = rss_mb[MIN_PASSES - 1]
    threads = thread_count()

    traced = recorder = None
    if args.trace:
        recorder = SpanRecorder()
        recorder.install()
        try:
            traced = run_pass(workload, state, clock, recorder)
        finally:
            recorder.uninstall()

    # -- scaled times, once every probe of the run is in --------------------
    import_s = clock.scaled([import_section])
    builds = [clock.scaled([section]) for section in build_sections]
    setup_s = import_s + statistics.median(builds)
    pass_s = [clock.scaled(p[3]) for p in passes]
    pass_host_s = [sum(p[0]) for p in passes]
    # The first pass counts: it pays the program's lazy imports and
    # first-call tables, as a user's first update does.
    wall_s = statistics.fmean(pass_s)

    # -- correctness, after the clock stops ---------------------------------
    first = passes[0]
    problems = []
    for other in passes[1:] + ([traced] if traced else []):
        mismatch = pass_mismatch(first, other)
        if mismatch:
            problems.append(mismatch)
            break
    if threads != 1:
        problems.append(f"{threads} threads in the benchmark process, expected 1")
    check_failures, extra_answers = workload.check(state, first[1])
    problems.extend(check_failures)
    op_errors = [o.answers["error"] for o in first[1] if "error" in o.answers]

    ops_per_pass = sum(o.ops for o in first[1])
    failed_per_pass = sum(o.failed for o in first[1]) + len(check_failures)
    runs = len(passes) + (1 if traced else 0)
    attempted, failed = ops_per_pass * runs, failed_per_pass * runs

    answers = {key: 0 for key in ANSWER_KEYS}
    for outcome in first[1]:
        for key in ANSWER_KEYS:
            answers[key] += outcome.answers.get(key, 0)
    answers.update(extra_answers)
    answers_digest = sha256_json([o.answers for o in first[1]] + [extra_answers])

    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        **{key: answers[key] for key in ANSWER_KEYS},
    }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "pass_wall_s": pass_s,
        "pass_host_s": pass_host_s,
        "pass_rss_mb": rss_mb,
        "steps": [step.name for step in workload.steps(state)],
        "step_host_s": [p[0] for p in passes],
        "setup_builds_s": builds,
        "setup_builds_host_s": [section[0] for section in build_sections],
        "import_s": import_s,
        "import_host_s": import_section[0],
        "probes_s": clock.probes,
        "threads": threads,
        "inputs_digest": inputs_digest,
        "answers_digest": answers_digest,
        "ops_per_pass": ops_per_pass,
        "failed_per_pass": failed_per_pass,
        "problems": problems,
        "op_errors": op_errors,
        "end_to_end": end_to_end,
        "work": {k: first[2][k] for k in sorted(first[2])},
    }
    if traced:
        # Against the passes after the first: like the traced pass, they
        # no longer pay first-use costs.
        overhead_s = clock.scaled(traced[3]) - statistics.fmean(pass_s[1:])
        layers = layer_metrics(
            recorder, traced, overhead_s, import_section[0], statistics.median(topology_times)
        )
        traced_ms = sum(traced[0]) * 1e3
        report["per_layer"] = layers
        report["traced_wall_ms"] = traced_ms
        report["layer_share"] = {
            name[: -len(".self_ms")]: value / traced_ms
            for name, value in layers.items()
            if name.endswith(".self_ms") and name[: -len(".self_ms")] not in SETUP_LAYERS
        }
        metrics = layers
    else:
        metrics = end_to_end
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if recorder is not None:
        (OUT_DIR / f"{stem}-spans.jsonl").write_text(recorder.jsonl())

    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}  threads {threads}")
    print(f"inputs  {inputs_digest}")
    print(f"answers {answers_digest}")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in problems + op_errors:
        print(f"  FAIL {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
