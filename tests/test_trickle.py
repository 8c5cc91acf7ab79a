"""Trickle and gossip protocol tests on the event kernel.

Convergence under loss and faults, the Trickle economics (suppression,
interval resets, receiver-driven requests), determinism of the
KernelReport digest, and the report surface it shares with the flood.
"""

import pytest

from repro.net import (
    BATTERYLESS_HARVEST,
    FaultPlan,
    GossipParams,
    NodeCrash,
    PartitionWindow,
    TrickleParams,
    grid,
    run_gossip,
    run_trickle,
)
from repro.net.errors import NetConfigError
from repro.net.kernel import KernelReport
from repro.net.topology import random_geometric

BLOB = bytes(range(251)) * 2  # 502 B -> 23 packets at the default payload


class TestTrickleConvergence:
    def test_converges_on_lossless_grid(self):
        report = run_trickle(grid(4, 4), BLOB, seed=1)
        assert report.converged
        assert report.outcome == "converged"
        assert report.converged_nodes == tuple(range(1, 16))
        assert all(
            version == 1
            for node, version in report.node_versions.items()
            if node != 0
        )
        assert report.transmissions >= report.packets
        assert report.beacons > 0

    def test_converges_under_loss(self):
        report = run_trickle(grid(5, 5), BLOB, loss=0.2, seed=3)
        assert report.converged
        assert report.drops > 0

    def test_time_budget_gives_partial_not_raise(self):
        report = run_trickle(grid(5, 5), BLOB, loss=0.3, seed=3, max_time=0.5)
        assert not report.converged
        assert report.outcome == "partial"
        assert report.quarantined  # the nodes still missing packets
        assert report.time_s <= 0.5

    def test_empty_blob_converges_immediately(self):
        report = run_trickle(grid(3, 3), b"", seed=1)
        assert report.converged
        assert report.time_s == 0.0
        assert report.transmissions == 0

    def test_invalid_params_raise_structured(self):
        with pytest.raises(NetConfigError):
            TrickleParams(imin_s=0.0)
        with pytest.raises(NetConfigError):
            TrickleParams(imax_s=0.5)  # < imin_s
        with pytest.raises(NetConfigError):
            TrickleParams(k=0)
        with pytest.raises(NetConfigError):
            TrickleParams(burst=0)
        with pytest.raises(NetConfigError):
            run_trickle(grid(3, 3), BLOB, loss=1.0)
        # Non-finite timing: NaN passes every ``<=`` test, so each field
        # is checked for finiteness first.
        nan, inf = float("nan"), float("inf")
        for field in ("imin_s", "imax_s", "response_wait_s"):
            for value in (nan, inf):
                with pytest.raises(NetConfigError):
                    TrickleParams(**{field: value})
        for field in ("period_s", "jitter_s"):
            for value in (nan, inf):
                with pytest.raises(NetConfigError):
                    GossipParams(**{field: value})
        for value in (nan, inf):
            with pytest.raises(NetConfigError):
                run_trickle(grid(3, 3), BLOB, round_s=value)
        with pytest.raises(NetConfigError):
            run_trickle(grid(3, 3), BLOB, max_time=nan)


class TestTrickleEconomics:
    def test_dense_fleet_suppresses_and_requests(self):
        """On a dense neighbourhood the redundancy constant keeps most
        nodes quiet and transfers go through explicit requests."""
        topo = random_geometric(60, radio_range=0.45, seed=2)
        report = run_trickle(topo, BLOB, loss=0.1, seed=2)
        assert report.converged
        assert report.suppressed > 0
        assert report.requests > 0
        assert report.resets > 0

    def test_converged_fleet_beacons_decay(self):
        """After convergence the interval doubles to imax: doubling the
        time budget far less than doubles the beacon count."""
        params = TrickleParams(imin_s=0.5, imax_s=8.0)
        topo = grid(4, 4)
        short = run_trickle(topo, BLOB, seed=1, params=params, max_time=40.0)
        # Same run, but keep simulating long after convergence — the
        # kernel stops at fleet commit, so drive an unconvergeable node
        # count of extra quiet time via a fresh run with a longer budget
        # and a lost node that never commits.
        plan = FaultPlan(crashes=(NodeCrash(node=15, round=1),))
        long = run_trickle(
            topo, BLOB, plan, seed=1, params=params, max_time=400.0
        )
        quiet_time = long.time_s - short.time_s
        assert quiet_time > 100.0
        # Beacon rate in the quiet tail is bounded by ~nodes/imax_s.
        tail_beacons = long.beacons - short.beacons
        assert tail_beacons < quiet_time * 16 / params.imax_s * 2


class TestTrickleFaults:
    def test_crash_without_reboot_is_quarantined(self):
        plan = FaultPlan(crashes=(NodeCrash(node=5, round=1),))
        report = run_trickle(grid(3, 3), BLOB, plan, seed=1, max_time=60.0)
        assert not report.converged
        assert report.quarantined == (5,)
        assert report.node_versions[5] == 0
        assert any("crashed" in line for line in report.fault_log)

    def test_crash_with_reboot_recovers(self):
        plan = FaultPlan(
            crashes=(NodeCrash(node=4, round=1, reboot_round=6),),
        )
        report = run_trickle(grid(3, 3), BLOB, plan, seed=1)
        assert report.converged
        assert any("rebooted" in line for line in report.fault_log)

    def test_partition_heals_and_converges(self):
        plan = FaultPlan(partitions=(PartitionWindow(1, 8, (4, 5, 7, 8)),))
        report = run_trickle(grid(3, 3), BLOB, plan, seed=1)
        assert report.converged
        assert any("isolated" in line for line in report.fault_log)
        assert any("healed" in line for line in report.fault_log)

    def test_corruption_and_duplication_coins(self):
        plan = FaultPlan(corrupt_prob=0.05, duplicate_prob=0.1, seed=9)
        report = run_trickle(grid(4, 4), BLOB, plan, loss=0.1, seed=2)
        assert report.converged
        assert report.crc_rejections > 0
        assert report.plan_digest == plan.digest()


class TestGossip:
    def test_converges_on_lossy_grid(self):
        report = run_gossip(grid(4, 4), BLOB, loss=0.1, seed=2)
        assert report.converged
        assert report.protocol == "gossip"
        assert report.transmissions >= report.packets

    def test_invalid_params_raise(self):
        with pytest.raises(NetConfigError):
            GossipParams(period_s=0.0)
        with pytest.raises(NetConfigError):
            GossipParams(burst=0)


class TestKernelReportSurface:
    """KernelReport is a FleetReport, like the flood's CampaignReport:
    the shared fields, totals, canonical JSON and render tail."""

    def test_render_and_totals(self):
        from repro.net.kernel import ALWAYS_ON

        report = run_trickle(
            grid(3, 3), BLOB, loss=0.1, seed=4, duty_cycle=ALWAYS_ON
        )
        assert isinstance(report, KernelReport)
        text = report.render()
        assert "trickle" in text
        assert "beacons" in text
        assert report.total_energy_j > 0.0
        # Always-on radios pay for every idle-listening second.
        assert report.total_idle_j > 0.0
        assert report.max_node_energy_j() > 0.0
        assert 0.0 <= report.sleep_fraction <= 1.0

    def test_render_shows_the_shared_profile_tail(self):
        """Under a capacitor profile the profile line is the flood's:
        it names the resumed applies and the first death."""
        report = run_trickle(
            grid(3, 3), bytes(range(256)) * 8, loss=0.05, seed=5,
            max_time=4000.0, profile=BATTERYLESS_HARVEST,
        )
        stats = report.profile_stats
        assert stats["resumed_applies"] > 0
        assert stats["first_node_death_s"] is not None
        text = report.render()
        assert f"{stats['resumed_applies']} resumed applies" in text
        assert f"first death {stats['first_node_death_s']:g}s" in text

    def test_every_ledger_has_idle_and_sleep(self):
        report = run_trickle(grid(3, 3), BLOB, seed=1)
        for ledger in report.ledgers.values():
            assert ledger.idle_j >= 0.0
            assert ledger.sleep_j >= 0.0
            assert ledger.total_j >= ledger.idle_j + ledger.sleep_j

    def test_repeat_runs_are_byte_identical(self):
        plan = FaultPlan(
            crashes=(NodeCrash(node=4, round=2, reboot_round=7),),
            corrupt_prob=0.04,
            seed=11,
        )
        blobs = {
            run_trickle(grid(3, 3), BLOB, plan, loss=0.15, seed=5).to_json()
            for _ in range(3)
        }
        assert len(blobs) == 1

    def test_gossip_repeat_runs_are_byte_identical(self):
        blobs = {
            run_gossip(grid(3, 3), BLOB, loss=0.1, seed=5).to_json()
            for _ in range(2)
        }
        assert len(blobs) == 1

    def test_digest_is_sha256_of_to_json(self):
        report = run_trickle(grid(3, 3), b"x" * 50, seed=1)
        assert len(report.digest()) == 64
