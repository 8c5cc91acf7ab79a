"""Regression tests for the DIGEST-TAINT fixes.

The one true positive the pass found in ``src`` was
``repro.config._digest_of`` serialising with ``json.dumps(...,
default=str)``: a non-JSON value slipping into a config would have been
silently serialised via ``repr()`` — embedding a memory address for
plain objects, i.e. a different "content" digest in every process.
The fix replaces the fallback with a loudly-raising strict encoder.

These tests pin both halves: the strict encoder rejects non-JSON
values, and every content digest in the pipeline is byte-identical
across processes launched with different ``PYTHONHASHSEED`` values
(the environment knob that perturbs set/dict-hash iteration order).
"""

import pytest

from repro.config import CompileConfig, TopologySpec, UpdateConfig
from tests.fresh import run_fresh


# One script per digest surface: each prints the digest(s) and is run
# under several PYTHONHASHSEED values; all outputs must be identical.
_CONFIG_DIGESTS = """
from repro.config import CompileConfig, UpdateConfig, TopologySpec, FleetJob
print(CompileConfig(ra="linear", depths=(("bump", 2),)).digest())
print(UpdateConfig(ra="ucc", da="ucc").digest())
print(TopologySpec(kind="grid", width=3, height=3).digest())
print(FleetJob(old_source="a", new_source="b").digest())
"""

_CAMPAIGN_DIGEST = """
from repro.net.campaign import run_campaign
from repro.net.faults import FaultPlan, NodeCrash
from repro.net.topology import grid
plan = FaultPlan(crashes=(NodeCrash(node=2, round=2, reboot_round=5),),
                 corrupt_prob=0.1, seed=7)
report = run_campaign(grid(3, 3), b"x" * 600, loss=0.1, seed=3, plan=plan)
print(report.digest())
print(plan.digest())
"""

_SOLVER_MEMO_DIGEST = """
from repro.ilp.canonical import canonical_digest
from repro.ilp.model import IntegerProgram

prog = IntegerProgram()
for i in range(6):
    prog.add_objective(f"x{i}", float((i * 7) % 5 - 2))
prog.add_constraint([(1.0, f"x{i}") for i in range(6)], "<=", 3.0)
prog.add_constraint([(2.0, "x0"), (1.0, "x5")], ">=", 1.0)
prog.fix("x2", 1)
print(canonical_digest(prog, backend="bb", incumbent={"x0": 1, "x2": 1}))
"""

# The preimages of three pinned answers in tests/golden/answers.json:
# the Figure 13-15 ILP solve at 8 statements and the first two Figure 9
# plans.
_ANSWER_PREIMAGES = """
from repro.config import UpdateConfig
from repro.core import compile_source, plan_update
from repro.ilp import solve_branch_bound
from repro.regalloc.ilp_model import build_chunk_model
from repro.workloads import CASES
from repro.workloads.synthetic import ilp_spec

result = solve_branch_bound(build_chunk_model(ilp_spec(8)))
print(result.status, sorted(result.values.items()), repr(result.objective))
for cid in ("1", "3"):
    case = CASES[cid]
    plan = plan_update(compile_source(case.old_source), case.new_source,
                       config=UpdateConfig(ra="ucc", da="ucc"))
    print(plan.diff.script.to_bytes().hex(), plan.data_script.to_bytes().hex())
"""


class TestStrictEncoder:
    def test_rejects_non_json_values(self):
        from repro.config import _digest_of

        class Opaque:
            pass

        with pytest.raises(TypeError, match="non-JSON value"):
            _digest_of({"obj": Opaque()})

    def test_primitives_still_digest(self):
        from repro.config import _digest_of

        digest = _digest_of({"a": [1, 2.5, "x", True, None]})
        assert len(digest) == 64

    def test_config_digests_unchanged_by_strictness(self):
        # The strict default never fires for real configs — all fields
        # are JSON primitives by construction — so digests keep their
        # pre-fix bytes (service caches and memo keys stay warm).
        assert CompileConfig().digest() == CompileConfig().digest()
        assert UpdateConfig(ra="ucc", da="ucc").digest()
        assert TopologySpec(kind="line", nodes=5).digest()


@pytest.mark.parametrize(
    "snippet",
    [_CONFIG_DIGESTS, _CAMPAIGN_DIGEST, _SOLVER_MEMO_DIGEST, _ANSWER_PREIMAGES],
    ids=["config", "campaign", "solver-memo", "answers"],
)
def test_digests_stable_across_hashseed(snippet):
    outputs = {
        run_fresh(snippet, PYTHONHASHSEED=seed) for seed in ("0", "1", "4242")
    }
    assert len(outputs) == 1, (
        "digest depends on PYTHONHASHSEED (set/dict iteration order "
        f"leaked into a preimage): {outputs}"
    )
    assert outputs.pop().strip()
