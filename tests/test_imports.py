"""What ``import repro`` loads.

Every CLI command and every perfbench set-up pays ``import repro``.
numpy, scipy and the ILP stack (``repro.ilp`` and the three ILP modules
of ``repro.regalloc``) serve only ``ra="ucc-ilp"`` and the Figure 13-15
benchmarks, so they load at the first ILP plan, or when a caller
imports them, and never with the package.  A package ``__init__`` that
re-exports one of them fails here.  The fleet update service runs every
batch in-process, so neither ``multiprocessing`` nor
``concurrent.futures`` loads with ``repro``, ``repro.api`` or
``repro.cli`` either.

Each check runs in a fresh interpreter, whose ``sys.modules`` holds
only what the snippet itself loaded.
"""

import json
from pathlib import Path

import pytest

from tests.fresh import run_fresh

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

#: The process-pool stack, which nothing in ``repro`` uses.
POOL = ("multiprocessing", "concurrent.futures")

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


def fresh_json(snippet: str):
    """Run ``snippet`` in a new interpreter; its last line, as JSON."""
    return json.loads(run_fresh(snippet).splitlines()[-1])


@pytest.mark.parametrize("module", ["repro", "repro.api", "repro.cli"])
def test_import_loads_no_numpy_scipy_or_ilp(module):
    snippet = _LOADED + f"import json\nimport {module}\nprint(json.dumps(loaded()))\n"
    assert fresh_json(snippet) == []


@pytest.mark.parametrize("module", ["repro", "repro.api", "repro.cli"])
def test_import_loads_no_process_pool(module):
    snippet = (
        f"import json\nimport sys\nimport {module}\n"
        f"print(json.dumps([name for name in {POOL!r} if name in sys.modules]))\n"
    )
    assert fresh_json(snippet) == []


def test_first_ilp_plan_loads_the_ilp_and_keeps_the_fig09_answer():
    out = fresh_json(_ILP_PLAN)
    assert out["before"] == []
    # scipy loads at the first HiGHS solve and minlp with its callers;
    # case 1 changes no chunk, so its plan needs neither.
    assert out["after"] == [
        "numpy", "repro.ilp", "repro.regalloc.ilp_model", "repro.regalloc.ilp_ra"
    ]
    assert out["digest"] == ANSWERS["fig09_case1"]["digest"]
