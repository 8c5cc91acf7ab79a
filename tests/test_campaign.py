"""Campaign controller tests: determinism, crash consistency, degradation."""

import pytest

from repro import FleetJob, TopologySpec, UpdateSession, compile_source, plan_update
from repro.net import (
    FaultPlan,
    NodeCrash,
    PartitionWindow,
    Topology,
    grid,
    line,
    run_campaign,
)
from repro.net.coding import CodedTransferParams
from repro.net.errors import DisseminationIncomplete
from repro.obs import metrics
from repro.service import execute_job
from repro.sim import DeviceBoard, Timer
from repro.sim.executor import run_image, traces_equal
from repro.workloads import CASES

BLOB = bytes(range(251)) * 2  # two packets' worth of arbitrary script


def small_plan():
    return FaultPlan(
        crashes=(NodeCrash(node=4, round=2, reboot_round=7),),
        corrupt_prob=0.04,
        seed=11,
    )


class TestCampaignDeterminism:
    def test_identical_inputs_give_byte_identical_reports(self):
        """The acceptance criterion: same seed + same fault plan ⇒
        byte-identical CampaignReport."""
        runs = [
            run_campaign(grid(3, 3), BLOB, small_plan(), loss=0.15, seed=5)
            for _ in range(3)
        ]
        blobs = {report.to_json() for report in runs}
        assert len(blobs) == 1
        digests = {report.digest() for report in runs}
        assert len(digests) == 1

    def test_different_fault_seed_changes_the_run(self):
        base = run_campaign(
            grid(3, 3), BLOB, small_plan(), loss=0.15, seed=5
        )
        other_plan = FaultPlan(
            crashes=small_plan().crashes,
            corrupt_prob=small_plan().corrupt_prob,
            seed=99,
        )
        other = run_campaign(grid(3, 3), BLOB, other_plan, loss=0.15, seed=5)
        assert base.plan_digest != other.plan_digest

    @pytest.mark.parametrize(
        "protocol,scheme",
        [("flood", None), ("flood", "lt"), ("trickle", None), ("gossip", None)],
    )
    def test_corruption_counter_matches_report(self, protocol, scheme):
        """Every engine publishes its CRC rejections as
        ``net.fault.corruptions``."""
        before = metrics.REGISTRY.values("net.fault.")
        report = run_campaign(
            grid(4, 4),
            BLOB,
            FaultPlan(corrupt_prob=0.05, seed=3),
            seed=5,
            protocol=protocol,
            coding=CodedTransferParams(scheme=scheme) if scheme else None,
        )
        delta = metrics.REGISTRY.delta(before, "net.fault.")
        assert report.crc_rejections > 0
        assert delta["net.fault.corruptions"] == report.crc_rejections

    @pytest.mark.parametrize(
        "protocol,scheme",
        [("flood", None), ("flood", "lt"), ("trickle", "xor"), ("gossip", "xor")],
    )
    def test_packets_sent_is_each_engines_data_count(self, protocol, scheme):
        """``FleetReport.packets_sent``, what a versioned cohort reports
        as its broadcasts, is the flood's ``broadcasts`` and the kernel's
        ``transmissions`` (parity included)."""
        report = run_campaign(
            grid(4, 4),
            BLOB,
            loss=0.2,
            seed=5,
            protocol=protocol,
            coding=CodedTransferParams(scheme=scheme) if scheme else None,
        )
        own = report.broadcasts if protocol == "flood" else report.transmissions
        assert report.packets_sent == own > 0

    def test_report_json_is_canonical(self):
        report = run_campaign(line(4), BLOB, FaultPlan(), seed=2)
        assert report.to_json() == report.to_json()
        assert '"outcome"' in report.to_json()


class TestCampaignConvergence:
    def test_fault_free_campaign_converges(self):
        report = run_campaign(grid(3, 3), BLOB, FaultPlan(), seed=1)
        assert report.converged
        assert report.quarantined == ()
        assert report.converged_nodes == tuple(range(1, 9))
        assert all(
            version == 1
            for node, version in report.node_versions.items()
            if node != 0
        )

    def test_crashed_node_reboots_resyncs_and_commits(self):
        report = run_campaign(grid(3, 3), BLOB, small_plan(), loss=0.1, seed=3)
        assert report.converged
        assert report.node_versions[4] == 1
        assert any("node 4 crashed" in entry for entry in report.fault_log)
        assert any("node 4 rebooted" in entry for entry in report.fault_log)

    def test_never_rebooting_node_is_quarantined_on_golden_image(self):
        plan = FaultPlan(crashes=(NodeCrash(node=5, round=1),))
        report = run_campaign(grid(3, 3), BLOB, plan, seed=3)
        assert report.outcome == "partial"
        assert report.quarantined == (5,)
        assert report.node_versions[5] == 0  # still the golden image
        assert all(
            report.node_versions[node] == 1
            for node in range(1, 9)
            if node != 5
        )

    def test_unhealed_partition_quarantines_the_island(self):
        plan = FaultPlan(
            partitions=(PartitionWindow(start=1, end=10_000, nodes=(7, 8)),)
        )
        report = run_campaign(grid(3, 3), BLOB, plan, seed=2)
        assert report.outcome == "partial"
        assert report.quarantined == (7, 8)
        # Stall detection: nowhere near the full 200-round budget.
        assert report.rounds < 100

    def test_healed_partition_converges_late(self):
        plan = FaultPlan(
            partitions=(PartitionWindow(start=1, end=12, nodes=(8,)),)
        )
        report = run_campaign(grid(3, 3), BLOB, plan, seed=2)
        assert report.converged
        assert report.rounds >= 12

    def test_unreachable_nodes_quarantined_not_raised(self):
        topo = Topology(
            positions=[(0, 0), (1, 0), (9, 9)],
            neighbors={0: [1], 1: [0], 2: []},
        )
        report = run_campaign(topo, BLOB, FaultPlan(), seed=1)
        assert report.unreachable == (2,)
        assert 2 in report.quarantined
        assert report.outcome == "partial"
        assert report.node_versions[1] == 1

    def test_corruption_is_caught_and_repaired(self):
        plan = FaultPlan(corrupt_prob=0.3, seed=5)
        report = run_campaign(grid(3, 3), BLOB, plan, seed=4)
        assert report.converged
        assert report.crc_rejections > 0

    def test_duplicates_are_deduplicated(self):
        plan = FaultPlan(duplicate_prob=0.4, seed=6)
        report = run_campaign(grid(3, 3), BLOB, plan, seed=4)
        assert report.converged
        assert report.duplicates > 0

    def test_empty_blob_converges_immediately(self):
        report = run_campaign(grid(3, 3), b"", FaultPlan(), seed=1)
        assert report.converged
        assert report.rounds == 0
        assert report.total_energy_j == 0.0

    def test_energy_ledgers_track_retransmission_overhead(self):
        clean = run_campaign(grid(3, 3), BLOB, FaultPlan(), seed=1)
        rough = run_campaign(
            grid(3, 3),
            BLOB,
            FaultPlan(corrupt_prob=0.25, seed=9),
            loss=0.2,
            seed=1,
        )
        assert rough.retransmissions > clean.retransmissions
        assert rough.total_energy_j > clean.total_energy_j
        assert rough.max_node_energy_j() > 0.0
        assert rough.max_node_energy_j(exclude_sink=False) >= (
            rough.max_node_energy_j()
        )


class TestCrashConsistency:
    """A crashed-mid-patch node never executes a torn image — checked
    against the sim executor differential oracle."""

    def _board(self):
        return DeviceBoard(timer=Timer(fire_every_polls=3))

    def test_quarantined_node_runs_golden_committed_nodes_run_new(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        result = plan_update(old, case.new_source)
        blob = result.diff.script.to_bytes() + result.data_script.to_bytes()
        # Crash node 3 early, never reboot: it dies mid-assembly/patch.
        plan = FaultPlan(crashes=(NodeCrash(node=3, round=2),))
        report = run_campaign(
            grid(3, 3),
            blob,
            plan,
            seed=7,
            payload_per_packet=result.packets.payload_per_packet,
            overhead_per_packet=result.packets.overhead_per_packet,
        )
        assert report.quarantined == (3,)

        # Map each node's final version onto the image it would boot.
        images = {0: old.image, 1: result.new.image}
        scratch = compile_source(case.new_source)
        scratch_run = run_image(
            scratch.image, devices=self._board(), max_cycles=4_000_000
        )
        golden_run = run_image(
            old.image, devices=self._board(), max_cycles=4_000_000
        )
        assert golden_run.halted
        for node, version in report.node_versions.items():
            if node == 0:
                continue
            image = images[version]
            run = run_image(
                image, devices=self._board(), max_cycles=4_000_000
            )
            assert run.halted, f"node {node} boots a hanging image"
            if version == 1:
                # Committed nodes behave exactly like a from-scratch
                # compile of the new source: no torn semantics.
                assert traces_equal(run, scratch_run) is None

    def test_crash_mid_patch_then_reboot_reaches_new_version(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        result = plan_update(old, case.new_source)
        blob = result.diff.script.to_bytes() + result.data_script.to_bytes()
        plan = FaultPlan(
            crashes=(NodeCrash(node=3, round=2, reboot_round=6),)
        )
        report = run_campaign(
            grid(3, 3),
            blob,
            plan,
            seed=7,
            payload_per_packet=result.packets.payload_per_packet,
            overhead_per_packet=result.packets.overhead_per_packet,
        )
        assert report.converged
        assert report.node_versions[3] == 1


class TestSessionCampaign:
    def test_push_campaign_converges_and_advances_version(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        session = UpdateSession(old, topology=grid(3, 3), loss=0.05)
        result = session.push_campaign({1: case.new_source}, plan=small_plan())
        assert result.converged
        assert result.nodes_patched == 8
        assert session.version == 1
        assert session.deployed is result.update.new

    def test_partial_campaign_does_not_advance_the_baseline(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        session = UpdateSession(old, topology=grid(3, 3))
        plan = FaultPlan(crashes=(NodeCrash(node=2, round=1),))
        result = session.push_campaign({1: case.new_source}, plan=plan)
        assert not result.converged
        assert result.report.quarantined == (2,)
        assert session.version == 0
        assert session.deployed is old

    def test_push_update_raises_structured_incomplete(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        session = UpdateSession(old, topology=line(8), loss=0.99, loss_seed=1)
        with pytest.raises(DisseminationIncomplete) as excinfo:
            session.push_update(case.new_source)
        error = excinfo.value
        assert error.rounds == 200
        assert error.missing  # per-node missing-packet counts
        assert all(count >= 1 for count in error.missing.values())
        assert isinstance(error, RuntimeError)  # legacy handlers survive


class TestFleetCampaign:
    def _job(self, **overrides):
        case = CASES["6"]
        spec = dict(
            old_source=case.old_source,
            new_source=case.new_source,
            topology=TopologySpec.grid(3, 3),
            loss=0.05,
            fault_plan=small_plan(),
        )
        spec.update(overrides)
        return FleetJob(**spec)

    def test_job_runs_campaign_and_reports_digest(self):
        outcome = execute_job(self._job())
        assert outcome.ok
        assert outcome.campaign_outcome == "converged"
        assert outcome.nodes_quarantined == 0
        assert outcome.nodes_patched == 8
        assert len(outcome.campaign_digest) == 64
        assert execute_job(self._job()).campaign_digest == (
            outcome.campaign_digest
        )

    def test_partial_fleet_returns_structured_outcome_not_exception(self):
        """The graceful-degradation acceptance criterion."""
        plan = FaultPlan(
            partitions=(PartitionWindow(start=1, end=10_000, nodes=(8,)),)
        )
        outcome = execute_job(self._job(fault_plan=plan, loss=0.0))
        assert outcome.ok  # no exception path
        assert outcome.campaign_outcome == "partial"
        assert outcome.nodes_quarantined == 1
        assert outcome.nodes_patched == 7

    def test_fault_plan_requires_topology(self):
        with pytest.raises(ValueError):
            self._job(topology=None)

    def test_fault_plan_changes_job_digest(self):
        with_faults = self._job()
        without = self._job(fault_plan=None)
        assert with_faults.digest() != without.digest()

    def test_lossy_job_failure_is_structured(self):
        case = CASES["6"]
        job = FleetJob(
            old_source=case.old_source,
            new_source=case.new_source,
            topology=TopologySpec.line(8),
            loss=0.99,
            loss_seed=1,
        )
        outcome = execute_job(job)
        assert not outcome.ok
        assert "DisseminationIncomplete" in outcome.error
        assert "missing" in outcome.error


class TestCampaignCli:
    def test_cli_converged_exits_zero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--case",
                "6",
                "--grid",
                "3",
                "--crash",
                "4@2:8",
                "--corrupt",
                "0.03",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        assert "fault log" in out

    def test_cli_partial_exits_one(self, capsys):
        from repro.cli import main

        code = main(
            ["campaign", "--case", "6", "--grid", "3",
             "--partition", "1-9999:8"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "quarantined: 8" in out

    def test_cli_bad_crash_spec_exits_two(self, capsys):
        from repro.cli import main

        code = main(["campaign", "--case", "6", "--crash", "nope"])
        assert code == 2
        assert "--crash" in capsys.readouterr().err

    def test_cli_negative_partition_node_exits_two(self, capsys):
        from repro.cli import main

        code = main(["campaign", "--case", "6", "--partition", "3-7:-1,5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad --partition" in err
        assert "must be >= 1" in err

    def test_cli_empty_fleet_exits_two(self, capsys):
        from repro.cli import main

        code = main(["campaign", "--case", "6", "--grid", "1"])
        assert code == 2
        assert "no sensor nodes" in capsys.readouterr().err


class TestFaultFuzzAcceptance:
    def test_fifty_case_seeded_sweep_passes(self):
        """The fuzz acceptance criterion: the convergence-or-quarantine
        oracle holds over a 50-case seeded campaign."""
        from repro.fuzz import run_fault_fuzz

        report = run_fault_fuzz(seed=2026, iters=50)
        assert report.ok, report.render()
        assert report.converged + report.partial == 50
        # The sweep must actually exercise the fault space.
        assert report.crashes_injected > 0
        assert report.partitions_injected > 0
        assert report.quarantined_total >= 0

    def test_sweep_digest_is_reproducible(self):
        from repro.fuzz import run_fault_fuzz

        a = run_fault_fuzz(seed=7, iters=6)
        b = run_fault_fuzz(seed=7, iters=6)
        assert a.digest == b.digest
        assert a.ok and b.ok
