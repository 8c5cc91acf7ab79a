"""Campaign protocols: ``protocol=`` dispatch and digest stability.

These tests pin the ``protocol=`` dispatch surface of
:func:`repro.net.run_campaign` and digest stability across
``PYTHONHASHSEED``: neither the event-kernel heap (Trickle/gossip)
nor the flood engine may leak hash order into a report.  The flood's
digest is also checked against ``tests/golden/campaign_digests.json``.
"""

import json
from pathlib import Path

import pytest

from repro import UpdateSession, compile_source
from repro.net import FaultPlan, NodeCrash, grid, run_campaign
from repro.net.campaign import PROTOCOLS, CampaignReport
from repro.net.errors import NetConfigError
from repro.net.kernel import KernelReport
from repro.workloads import CASES
from tests.fresh import run_fresh

GOLDEN = Path(__file__).resolve().parent / "golden" / "campaign_digests.json"

BLOB = bytes(range(251)) * 2


class TestProtocolDispatch:
    def test_protocols_constant(self):
        assert PROTOCOLS == ("flood", "trickle", "gossip")

    def test_flood_still_returns_campaign_report(self):
        report = run_campaign(grid(3, 3), BLOB, loss=0.1, seed=1)
        assert isinstance(report, CampaignReport)
        assert report.converged

    def test_trickle_dispatch_returns_kernel_report(self):
        report = run_campaign(
            grid(3, 3), BLOB, loss=0.1, seed=1, protocol="trickle"
        )
        assert isinstance(report, KernelReport)
        assert report.protocol == "trickle"
        assert report.converged

    def test_gossip_dispatch_returns_kernel_report(self):
        report = run_campaign(grid(3, 3), BLOB, seed=1, protocol="gossip")
        assert isinstance(report, KernelReport)
        assert report.protocol == "gossip"
        assert report.converged

    def test_max_rounds_caps_kernel_time(self):
        # round budget * ROUND_S becomes the kernel time budget; an
        # impossible budget comes back partial, never raises.
        report = run_campaign(
            grid(4, 4), BLOB, loss=0.2, seed=1, protocol="trickle",
            max_rounds=1,
        )
        assert not report.converged
        assert report.time_s <= 1.0

    def test_unknown_protocol_raises_structured(self):
        with pytest.raises(NetConfigError):
            run_campaign(grid(3, 3), BLOB, protocol="deluge")

    def test_fault_plans_work_across_protocols(self):
        plan = FaultPlan(crashes=(NodeCrash(node=4, round=2, reboot_round=6),))
        for protocol in PROTOCOLS:
            report = run_campaign(
                grid(3, 3), BLOB, plan, loss=0.05, seed=3, protocol=protocol
            )
            assert report.converged, protocol
            assert report.plan_digest == plan.digest()


class TestSessionProtocol:
    def test_push_campaign_over_trickle(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        session = UpdateSession(old, topology=grid(3, 3), loss=0.05)
        result = session.push_campaign({1: case.new_source}, protocol="trickle")
        assert result.converged
        assert isinstance(result.report, KernelReport)
        assert result.nodes_patched == 8
        assert session.version == 1
        assert result.network_energy_j > 0.0


_TRICKLE_DIGEST = """
from repro.net.campaign import run_campaign
from repro.net.faults import FaultPlan, NodeCrash
from repro.net.topology import grid
plan = FaultPlan(crashes=(NodeCrash(node=2, round=2, reboot_round=5),),
                 corrupt_prob=0.1, seed=7)
report = run_campaign(grid(3, 3), b"x" * 600, loss=0.1, seed=3, plan=plan,
                      protocol="trickle")
print(report.digest())
report = run_campaign(grid(3, 3), b"x" * 600, loss=0.1, seed=3, plan=plan,
                      protocol="gossip")
print(report.digest())
"""

_FLOOD_DIGEST = """
from repro.net.campaign import run_campaign
from repro.net.faults import FaultPlan, NodeCrash, PartitionWindow
from repro.net.topology import grid
plan = FaultPlan(crashes=(NodeCrash(node=2, round=2, reboot_round=5),),
                 partitions=(PartitionWindow(1, 4, (5, 6, 8)),),
                 corrupt_prob=0.05, duplicate_prob=0.05, seed=7)
report = run_campaign(grid(4, 4), b"y" * 400, loss=0.1, seed=3, plan=plan)
print(report.digest())
"""

#: The flood snippet's run is also a golden-file entry.
_FLOOD_GOLDEN = json.loads(GOLDEN.read_text())["flood/run_campaign/flood-parity"]


@pytest.mark.parametrize(
    "snippet,golden",
    [(_TRICKLE_DIGEST, None), (_FLOOD_DIGEST, _FLOOD_GOLDEN)],
    ids=["kernel-protocols", "flood-parity"],
)
def test_kernel_digests_stable_across_hashseed(snippet, golden):
    outputs = {
        run_fresh(snippet, PYTHONHASHSEED=seed) for seed in ("0", "1", "4242")
    }
    assert len(outputs) == 1, (
        "report digest depends on PYTHONHASHSEED: "
        f"{outputs}"
    )
    digest = outputs.pop().strip()
    assert digest
    if golden is not None:
        assert digest == golden
