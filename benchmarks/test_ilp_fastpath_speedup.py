"""The ILP fast path against its reference, on the Figure 13-15 sweep.

The ILP kernels are the only code with two implementations: every
vectorized kernel keeps its original scalar version behind
:func:`repro.ilp.fastpath.reference_mode`.  The fast path is the
default; ``REPRO_REFERENCE_PATH=1`` starts a whole process on the
reference path instead (CI runs the ILP suites that way too), and
answers must not change.

For each of the six pinned sweep sizes this test builds the spec once,
runs one untimed warm-up per path, then two reps of a fast run followed
at once by a reference run, so machine noise hits both paths alike.
Every run, on either path, must give the pinned answer in
``tests/golden/answers.json``: its digest and its variable, constraint,
simplex-iteration and LP-solve counts.  Each row's ratio of median
times must stay within 20 % of the speedup committed below.  Ratios
divide out the machine, so the gate holds on any host; wall time itself
is perfbench's to measure.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.ilp.fastpath import fastpath_enabled, reference_mode
from repro.workloads.synthetic import ilp_spec
from tests.golden.regen import ILP_SIZES, ilp_answer, ilp_row

from conftest import emit_table

ANSWERS = json.loads(
    (Path(__file__).resolve().parent.parent / "tests" / "golden" / "answers.json").read_text()
)

#: Median reference/fast speedup per row, measured over five reps when
#: the fast kernels landed.
COMMITTED_SPEEDUP = {
    "fig13_15_n08": 4.266,
    "fig13_15_n12": 4.669,
    "fig13_15_n16": 5.411,
    "fig13_15_n20": 5.224,
    "fig13_15_n24": 5.423,
    "fig13_15_n32": 5.015,
}
TOLERANCE = 0.20
REPS = 2


def test_committed_speedups_meet_the_5x_target():
    assert set(COMMITTED_SPEEDUP) == {ilp_row(size) for size in ILP_SIZES}
    assert statistics.median(COMMITTED_SPEEDUP.values()) >= 5.0


def _leg(spec, name: str, reference: bool) -> float:
    with reference_mode(reference):
        start = time.perf_counter()
        digest, metrics = ilp_answer(spec)
        elapsed = time.perf_counter() - start
    path = "reference" if reference else "fast"
    assert {"digest": digest, "metrics": metrics} == ANSWERS[name], (
        f"{name}: {path} path answer moved (digest {digest}, metrics {metrics})"
    )
    return elapsed


def test_ilp_fast_path_speedup():
    if not fastpath_enabled():
        pytest.skip("whole process is on the reference path; both legs would time it")
    rows, slow = [], []
    for size in ILP_SIZES:
        name = ilp_row(size)
        spec = ilp_spec(size)
        _leg(spec, name, reference=False)
        _leg(spec, name, reference=True)
        fast_times, ref_times = [], []
        for _ in range(REPS):
            fast_times.append(_leg(spec, name, reference=False))
            ref_times.append(_leg(spec, name, reference=True))
        fast_ms = statistics.median(fast_times) * 1e3
        ref_ms = statistics.median(ref_times) * 1e3
        speedup = ref_ms / fast_ms
        floor = COMMITTED_SPEEDUP[name] * (1.0 - TOLERANCE)
        rows.append([name, f"{fast_ms:.1f}", f"{ref_ms:.1f}", f"{speedup:.2f}", f"{floor:.2f}"])
        if speedup < floor:
            slow.append(f"{name} {speedup:.2f}x < {floor:.2f}x")
    emit_table(
        "ilp_fastpath_speedup",
        ["row", "fast ms", "reference ms", "speedup", "floor"],
        rows,
    )
    assert not slow, f"fast-path speedup regressed: {slow}"
