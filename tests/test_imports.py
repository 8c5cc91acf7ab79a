"""What ``import repro`` loads.

Every CLI command and every perfbench set-up pays ``import repro``.
numpy, scipy and the ILP stack (``repro.ilp`` and the three ILP modules
of ``repro.regalloc``) serve only ``ra="ucc-ilp"`` and the Figure 13-15
benchmarks, so they load at the first ILP plan, or when a caller
imports them, and never with the package.  A package ``__init__`` that
re-exports one of them fails here.

Each check runs in a fresh interpreter, whose ``sys.modules`` holds
only what the snippet itself loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ANSWERS = json.loads((ROOT / "tests" / "golden" / "answers.json").read_text())

HEAVY = (
    "numpy",
    "scipy",
    "repro.ilp",
    "repro.regalloc.ilp_model",
    "repro.regalloc.ilp_ra",
    "repro.regalloc.minlp",
)

_LOADED = f"""
def loaded():
    import sys
    return sorted(name for name in {HEAVY!r} if name in sys.modules)
"""

# The Figure 9 case-1 plan under the ILP allocator, digested as
# tests/golden/regen.py's ``diff_answer`` digests the pinned UCC plan.
_ILP_PLAN = _LOADED + """
import hashlib
import json

from repro import UpdateConfig, compile_source, plan_update
from repro.workloads import CASES

before = loaded()
case = CASES["1"]
result = plan_update(
    compile_source(case.old_source), case.new_source,
    config=UpdateConfig(ra="ucc-ilp", da="ucc"),
)
payload = {
    "script": hashlib.sha256(result.diff.script.to_bytes()).hexdigest(),
    "data": hashlib.sha256(result.data_script.to_bytes()).hexdigest(),
}
blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
print(json.dumps({
    "before": before,
    "after": loaded(),
    "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
}))
"""


def run_fresh(snippet: str):
    """Run ``snippet`` in a new interpreter; its last line, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["repro", "repro.api", "repro.cli"])
def test_import_loads_no_numpy_scipy_or_ilp(module):
    snippet = _LOADED + f"import json\nimport {module}\nprint(json.dumps(loaded()))\n"
    assert run_fresh(snippet) == []


def test_first_ilp_plan_loads_the_ilp_and_keeps_the_fig09_answer():
    out = run_fresh(_ILP_PLAN)
    assert out["before"] == []
    # scipy loads at the first HiGHS solve and minlp with its callers;
    # case 1 changes no chunk, so its plan needs neither.
    assert out["after"] == [
        "numpy", "repro.ilp", "repro.regalloc.ilp_model", "repro.regalloc.ilp_ra"
    ]
    assert out["digest"] == ANSWERS["fig09_case1"]["digest"]
