"""Adversarial device profiles: Mica2 neutrality, LoRaWAN duty-cycle
budgets, battery-less brownout/resume, and the crash/brownout
exhaustive small-case regressions.

The contract under test (docs/SIMULATOR.md, "Device profiles"):

* the neutral ``MICA2`` profile is byte-identical to no profile at all;
* an airtime-limited fleet defers transmissions to the next legal slot
  and **never** violates the regulatory budget (violations pinned 0);
* an energy-limited fleet browns out mid-apply, keeps its nonvolatile
  page checkpoint, and resumes from the last completed page — the
  active bank is always the golden image or the fully applied one,
  never a torn hybrid.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import example, given, strategies as st

from repro.core.session import UpdateSession
from repro.fuzz.fault_fuzz import run_fault_fuzz
from repro.net import (
    BATTERYLESS_HARVEST,
    DeviceProfile,
    FaultPlan,
    LORAWAN_DR3,
    MICA2_PROFILE,
    NodeUpdateState,
    PROFILES,
    PowerTrace,
    ScriptPacket,
    generate_power_traces,
    get_profile,
    grid,
    packetise_blob,
    run_campaign,
)
from repro.energy.power_model import MICA2
from repro.net.coding import CodedTransferParams, run_coded_campaign
from repro.net.errors import NetConfigError
from repro.net.faults import NodeCrash, PartitionWindow
from repro.net.fleet_sim import FleetSim
from repro.net.gossip import run_gossip
from repro.net.kernel import ALWAYS_ON
from repro.net.trickle import run_trickle
from repro.obs import metrics
from repro.workloads import CASES

BLOB = bytes(range(256)) * 4  # 1024 B: 16 batteryless flash pages
HEAVY_BLOB = bytes(range(256)) * 8  # 2048 B: 32 pages, guaranteed brownouts


# ---------------------------------------------------------------------------
# DeviceProfile dataclass
# ---------------------------------------------------------------------------


class TestDeviceProfile:
    def test_registry_and_lookup(self):
        assert set(PROFILES) == {"mica2", "lorawan-dr3", "batteryless"}
        assert get_profile("mica2") is MICA2_PROFILE
        assert get_profile("lorawan-dr3") is LORAWAN_DR3
        assert get_profile("batteryless") is BATTERYLESS_HARVEST

    def test_unknown_profile_is_a_config_error(self):
        with pytest.raises(NetConfigError):
            get_profile("msp430")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "x", "mtu_bytes": -1},
            {"name": "x", "airtime_budget": 0.0},
            {"name": "x", "airtime_budget": 1.5},
            {"name": "x", "flash_page_bytes": -4},
            {"name": "x", "flash_write_j_per_page": -1e-3},
            {"name": "x", "storage_j": -0.1},
            {"name": "x", "harvest_w": -0.1},
            {"name": "x", "start_fraction": 0.0},
            {"name": "x", "restart_fraction": 1.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(NetConfigError):
            DeviceProfile(**kwargs)

    def test_capability_predicates(self):
        assert MICA2_PROFILE.is_neutral
        assert not MICA2_PROFILE.is_airtime_limited
        assert LORAWAN_DR3.is_airtime_limited and not LORAWAN_DR3.is_neutral
        assert BATTERYLESS_HARVEST.is_energy_limited
        assert BATTERYLESS_HARVEST.is_paged

    def test_effective_payload_fragments_to_mtu(self):
        assert LORAWAN_DR3.effective_payload(222) == 51
        assert LORAWAN_DR3.effective_payload(22) == 22
        assert MICA2_PROFILE.effective_payload(222) == 222

    def test_pages_for_rounds_up(self):
        assert BATTERYLESS_HARVEST.pages_for(64) == 1
        assert BATTERYLESS_HARVEST.pages_for(65) == 2
        assert BATTERYLESS_HARVEST.pages_for(2048) == 32
        assert MICA2_PROFILE.pages_for(2048) == 0

    def test_off_time_matches_duty_cycle(self):
        # 1% duty cycle: 1 s on air buys 99 s of enforced silence.
        assert LORAWAN_DR3.off_time_s(1.0) == pytest.approx(99.0)
        assert MICA2_PROFILE.off_time_s(1.0) == 0.0

    def test_profiles_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LORAWAN_DR3.mtu_bytes = 0


# ---------------------------------------------------------------------------
# Mica2 neutrality: profiled == profile-less, byte for byte
# ---------------------------------------------------------------------------


#: Every protocol x coding combination the campaign entry point runs.
NEUTRALITY_COMBOS = {
    "flood": ("flood", None),
    "flood-lt": ("flood", CodedTransferParams(scheme="lt")),
    "trickle": ("trickle", None),
    "trickle-xor": ("trickle", CodedTransferParams(scheme="xor")),
    "gossip": ("gossip", None),
    "gossip-xor": ("gossip", CodedTransferParams(scheme="xor")),
}

#: Crash + reboot, partition, corruption and duplication on a 4x4 grid.
NEUTRALITY_PLAN = FaultPlan(
    crashes=(NodeCrash(5, 2, reboot_round=6),),
    partitions=(PartitionWindow(3, 8, (10, 11, 14, 15)),),
    corrupt_prob=0.02,
    duplicate_prob=0.02,
    seed=11,
)


class TestMica2Neutrality:
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("combo", list(NEUTRALITY_COMBOS))
    def test_neutral_profile_byte_identical(self, combo, faulted):
        protocol, coding = NEUTRALITY_COMBOS[combo]
        plan = NEUTRALITY_PLAN if faulted else None
        kwargs = dict(loss=0.1, seed=7, protocol=protocol, coding=coding)
        plain = run_campaign(grid(4, 4), BLOB, plan, **kwargs)
        profiled = run_campaign(
            grid(4, 4), BLOB, plan, profile=MICA2_PROFILE, **kwargs
        )
        assert plain.converged
        assert any("crashed" in line for line in plain.fault_log) == faulted
        assert profiled.to_json() == plain.to_json()
        assert profiled.profile_stats is None


# ---------------------------------------------------------------------------
# LoRaWAN DR3: airtime budget enforced, violations structurally zero
# ---------------------------------------------------------------------------


class TestLorawanBudget:
    def test_campaign_defers_but_never_violates(self):
        report = run_campaign(
            grid(4, 4), BLOB, loss=0.1, seed=7, max_rounds=3000,
            profile=LORAWAN_DR3,
        )
        assert report.converged
        stats = report.profile_stats
        assert stats is not None and stats["name"] == "lorawan-dr3"
        assert stats["airtime_deferrals"] > 0
        assert stats["airtime_violations"] == 0
        assert json.loads(report.to_json())["profile"]["airtime_budget"] == 0.01

    def test_kernel_protocols_defer_but_never_violate(self):
        topo = grid(3, 3)
        for runner in (run_trickle, run_gossip):
            report = runner(
                topo, BLOB, loss=0.05, seed=5, max_time=40000.0,
                profile=LORAWAN_DR3,
            )
            assert report.converged
            stats = report.profile_stats
            assert stats["airtime_deferrals"] > 0
            assert stats["airtime_violations"] == 0

    @pytest.mark.parametrize("protocol", ["flood", "trickle"])
    def test_airtime_counters_match_the_report(self, protocol):
        names = ("net.profile.airtime_deferrals", "net.profile.airtime_violations")
        before = [metrics.counter(name).value for name in names]
        report = run_campaign(
            grid(4, 4), BLOB, loss=0.1, seed=7, max_rounds=3000,
            protocol=protocol, profile=LORAWAN_DR3,
        )
        after = [metrics.counter(name).value for name in names]
        stats = report.profile_stats
        assert stats["airtime_deferrals"] > 0
        assert [b - a for a, b in zip(before, after)] == [
            stats["airtime_deferrals"], stats["airtime_violations"],
        ]

    def test_oversized_payload_fragments_to_mtu(self):
        # A 222-byte requested payload must go on air as 51-byte frames.
        plain = run_campaign(
            grid(3, 3), BLOB, seed=7, payload_per_packet=222, max_rounds=3000
        )
        fragged = run_campaign(
            grid(3, 3), BLOB, seed=7, payload_per_packet=222, max_rounds=3000,
            profile=LORAWAN_DR3,
        )
        assert plain.packets == -(-len(BLOB) // 222)
        assert fragged.packets == -(-len(BLOB) // 51)

    def test_stalled_budget_outcome_is_resumable(self):
        starved = run_campaign(
            grid(4, 4), BLOB, loss=0.1, seed=7, max_rounds=60,
            profile=LORAWAN_DR3,
        )
        assert starved.outcome == "stalled-budget"
        assert not starved.converged
        assert starved.profile_stats["stalled_pending"]
        # Same campaign with a real budget: the fleet gets there — the
        # stall was airtime starvation, not a wedged node.
        rerun = run_campaign(
            grid(4, 4), BLOB, loss=0.1, seed=7, max_rounds=3000,
            profile=LORAWAN_DR3,
        )
        assert rerun.outcome == "converged"

    def test_replay_identity(self):
        a = run_campaign(
            grid(4, 4), BLOB, loss=0.1, seed=7, max_rounds=3000,
            profile=LORAWAN_DR3,
        )
        b = run_campaign(
            grid(4, 4), BLOB, loss=0.1, seed=7, max_rounds=3000,
            profile=LORAWAN_DR3,
        )
        assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# Batteryless harvest: brownout mid-apply, checkpoint, resume
# ---------------------------------------------------------------------------


class TestBatterylessHarvest:
    def test_flood_browns_out_and_resumes(self):
        report = run_campaign(
            grid(4, 4), HEAVY_BLOB, loss=0.1, seed=7, max_rounds=3000,
            profile=BATTERYLESS_HARVEST,
        )
        assert report.converged
        stats = report.profile_stats
        assert stats["brownouts"] > 0
        assert stats["resumed_applies"] > 0
        assert stats["pages_total"] == 32
        assert stats["first_node_death_s"] is not None
        assert any("browned out" in line for line in report.fault_log)
        assert any("resumed" in line for line in report.fault_log)

    def test_kernel_protocols_brown_out_and_resume(self):
        topo = grid(3, 3)
        for runner in (run_trickle, run_gossip):
            report = runner(
                topo, HEAVY_BLOB, loss=0.05, seed=5, max_time=4000.0,
                profile=BATTERYLESS_HARVEST,
            )
            assert report.converged
            stats = report.profile_stats
            assert stats["brownouts"] > 0
            assert any("browned out" in line for line in report.fault_log)

    def test_broadcast_debits_each_hearer_just_before_it_handles(self):
        """A broadcast walks its hearers once: each hearer's RX airtime
        is accrued, then its capacitor debit is taken, and only then
        does it handle the packet, before the next hearer's debit.  A
        debit can brown its hearer out and schedule a resume, so debits
        and handling must not be reordered."""
        order = []

        class Recording(FleetSim):
            def _debit_rx(self, node, bits):
                assert self.kernel.rx_s[node] > 0.0  # accrued first
                order.append(("debit", node))
                return super()._debit_rx(node, bits)

            def on_overhear_data(self, node, mask):
                order.append(("handle", node))

        topology = grid(3, 3)
        sim = Recording(
            topology, BLOB, None, loss=0.0, seed=1, power=MICA2,
            duty_cycle=ALWAYS_ON, payload_per_packet=22, overhead_per_packet=7,
            old_version=0, new_version=1, round_s=1.0, apply_s=1.0,
            component="test-rx-order", profile=BATTERYLESS_HARVEST,
        )
        sim.broadcast_data(4, [0, 1])  # from the centre: four hearers
        assert order == [
            (step, node)
            for node in topology.neighbors[4]
            for step in ("debit", "handle")
        ]

    def test_committed_bank_survives_every_brownout(self):
        # Golden-image invariant: at campaign end every node runs either
        # the old version (never flipped) or the new one (fully applied
        # and verified) — regardless of how many brownouts it took.
        report = run_campaign(
            grid(4, 4), HEAVY_BLOB, loss=0.1, seed=11, max_rounds=3000,
            profile=BATTERYLESS_HARVEST,
        )
        assert set(report.node_versions.values()) <= {0, 1}
        for node in report.quarantined:
            assert report.node_versions[node] == 0

    def test_lifetime_metrics_in_json(self):
        report = run_campaign(
            grid(4, 4), HEAVY_BLOB, loss=0.1, seed=7, max_rounds=3000,
            profile=BATTERYLESS_HARVEST,
        )
        block = json.loads(report.to_json())["profile"]
        for key in (
            "brownouts", "resumed_applies", "node_brownouts",
            "node_resumed_applies", "first_node_death_s", "network_death_s",
        ):
            assert key in block


# ---------------------------------------------------------------------------
# Scripted power traces
# ---------------------------------------------------------------------------


class TestPowerTraces:
    def test_traces_without_energy_profile_rejected(self):
        plan = FaultPlan(power_traces=(PowerTrace(node=3, brownout_at_j=(0.01,)),))
        with pytest.raises(NetConfigError):
            run_campaign(grid(3, 3), BLOB, plan, seed=7)
        with pytest.raises(NetConfigError):
            run_campaign(grid(3, 3), BLOB, plan, seed=7, profile=LORAWAN_DR3)

    def test_every_engine_refuses_traces_without_energy_profile(self):
        plan = FaultPlan(power_traces=(PowerTrace(node=3, brownout_at_j=(0.01,)),))
        for run in (run_coded_campaign, run_trickle, run_gossip):
            with pytest.raises(NetConfigError, match="power traces"):
                run(grid(3, 3), BLOB, plan, seed=7)

    def test_pinned_trace_fires_between_page_writes(self):
        plan = FaultPlan(
            power_traces=(PowerTrace(node=3, brownout_at_j=(0.001, 0.004)),)
        )
        report = run_campaign(
            grid(3, 3), HEAVY_BLOB, plan, seed=7, max_rounds=3000,
            profile=BATTERYLESS_HARVEST,
        )
        assert report.converged
        counts = report.profile_stats["node_brownouts"]
        assert counts.get("3", counts.get(3, 0)) >= 2

    def test_generated_traces_are_deterministic(self):
        a = generate_power_traces(random.Random("t"), 9, storage_j=0.05)
        b = generate_power_traces(random.Random("t"), 9, storage_j=0.05)
        assert a == b

    def test_generate_rejects_bad_scale(self):
        from repro.net.faults import FaultPlanError

        with pytest.raises(FaultPlanError):
            generate_power_traces(random.Random("t"), 9, storage_j=0.05, scale_j=0.0)

    def test_plan_digest_ignores_absent_traces(self):
        # Reports minted before power traces existed must keep their
        # digests: an empty trace tuple is not part of the identity.
        assert FaultPlan().digest() == FaultPlan(power_traces=()).digest()


# ---------------------------------------------------------------------------
# Session plumbing
# ---------------------------------------------------------------------------


class TestSessionProfile:
    def test_push_campaign_threads_the_profile(self):
        case = CASES["6"]
        from repro.api import compile_source

        session = UpdateSession(
            compile_source(case.old_source), topology=grid(3, 3)
        )
        result = session.push_campaign(
            {1: case.new_source}, max_rounds=3000, profile=LORAWAN_DR3
        )
        assert result.converged
        stats = result.report.profile_stats
        assert stats["name"] == "lorawan-dr3"
        assert stats["airtime_violations"] == 0

    @staticmethod
    def versioned_push(profile, coding=None):
        """Case 3 pushed from v3 to v5 and v6 on a 3x3 grid at 5 % loss;
        returns the result and the airtime metric deltas."""
        case = CASES["3"]
        v6 = case.new_source.replace("u8 am_type = 4;", "u8 am_type = 5;")
        from repro.api import compile_source

        session = UpdateSession(
            compile_source(case.old_source), topology=grid(3, 3),
            loss=0.05, version=3,
        )
        names = ("net.profile.airtime_deferrals", "net.profile.airtime_violations")
        before = [metrics.counter(name).value for name in names]
        result = session.push_campaign(
            {5: case.new_source, 6: v6}, coding=coding, profile=profile
        )
        after = [metrics.counter(name).value for name in names]
        return result, [b - a for a, b in zip(before, after)]

    def test_versioned_push_under_mica2_matches_no_profile(self):
        plain, _ = self.versioned_push(None)
        neutral, _ = self.versioned_push(MICA2_PROFILE)
        assert neutral.report.to_json() == plain.report.to_json()

    def test_versioned_push_under_lorawan_defers_and_never_violates(self):
        result, (deferrals, violations) = self.versioned_push(LORAWAN_DR3)
        assert result.converged
        assert result.report.replay_identical
        assert deferrals == 134
        assert violations == 0

    def test_versioned_push_under_batteryless_converges(self):
        result, _ = self.versioned_push(BATTERYLESS_HARVEST)
        assert result.converged
        assert result.report.replay_identical

    def test_versioned_lt_push_refuses_a_non_neutral_profile(self):
        with pytest.raises(NetConfigError):
            self.versioned_push(
                LORAWAN_DR3, coding=CodedTransferParams(scheme="lt")
            )


# ---------------------------------------------------------------------------
# The 100-case intermittent-power sweep (the ISSUE's acceptance oracle)
# ---------------------------------------------------------------------------


class TestIntermittentPowerSweep:
    def test_hundred_case_sweep_never_corrupts(self):
        report = run_fault_fuzz(seed=0, iters=100, profile="batteryless")
        assert report.ok, [f.render() for f in report.findings]
        assert report.profile == "batteryless"
        assert report.power_traces_injected > 0
        assert report.brownouts_observed > 0
        assert report.converged + report.partial == 100


# ---------------------------------------------------------------------------
# Satellite: crash() at every packet boundary and every apply step
# ---------------------------------------------------------------------------


def _three_packets():
    blob = bytes(range(60))
    return blob, packetise_blob(blob, 20)


class TestCrashEveryBoundary:
    def test_crash_after_each_packet_keeps_golden_image(self):
        blob, packets = _three_packets()
        for boundary in range(len(packets) + 1):
            state = NodeUpdateState(node=1, version=0)
            for packet in packets[:boundary]:
                state.receive(packet, len(packets))
            state.crash()
            # Pre-flip crash: staging gone, boot pointer untouched.
            assert state.version == 0
            assert not state.committed
            assert state.bank == {}
            state.reboot(round_no=boundary)
            # The rebooted node re-syncs from scratch and still commits.
            for packet in packets:
                state.receive(packet, len(packets))
            while not state.tick_apply(1):
                pass
            assert state.version == 1 and state.committed

    def test_crash_at_each_apply_step_is_golden_or_applied(self):
        blob, packets = _three_packets()
        apply_rounds = NodeUpdateState(node=1, version=0).apply_rounds
        for step in range(apply_rounds + 1):
            state = NodeUpdateState(node=1, version=0)
            for packet in packets:
                state.receive(packet, len(packets))
            flipped = False
            for _ in range(step):
                flipped = state.tick_apply(1) or flipped
            state.crash()
            if flipped:
                # Post-flip crash: the new image is the committed bank.
                assert state.version == 1 and state.committed
            else:
                # Pre-flip crash: rollback to golden is implicit.
                assert state.version == 0 and not state.committed
                assert state.bank == {}

    def test_brownout_between_every_page_write_resumes(self):
        blob, packets = _three_packets()
        pages = 6
        for cut in range(pages):
            state = NodeUpdateState(node=1, version=0)
            for packet in packets:
                state.receive(packet, len(packets))
            state.begin_pages(pages)
            for _ in range(cut):
                state.write_page()
            state.brownout()
            # Volatile staging lost; the nonvolatile checkpoint and the
            # golden image both survive.
            assert state.version == 0 and not state.committed
            assert state.bank == {}
            assert state.pages_done == cut
            state.resume(round_no=1)
            for packet in packets:
                state.receive(packet, len(packets))
            state.begin_pages(pages)
            assert state.resumed_applies == (1 if cut else 0)
            while not state.write_page():
                pass
            assert state.commit_pages(1)
            assert state.version == 1 and state.committed
            # No page was ever written twice: cut pages before the
            # brownout plus the remainder after the resume.
            assert state.pages_done == pages

    def test_commit_refused_until_every_page_is_down(self):
        blob, packets = _three_packets()
        state = NodeUpdateState(node=1, version=0)
        for packet in packets:
            state.receive(packet, len(packets))
        state.begin_pages(3)
        state.write_page()
        assert not state.commit_pages(1)
        assert state.version == 0
        state.write_page()
        state.write_page()
        assert state.commit_pages(1)

    def test_page_plan_conflict_is_a_config_error(self):
        blob, packets = _three_packets()
        state = NodeUpdateState(node=1, version=0)
        for packet in packets:
            state.receive(packet, len(packets))
        state.begin_pages(4)
        state.write_page()
        state.brownout()
        state.resume(round_no=1)
        for packet in packets:
            state.receive(packet, len(packets))
        with pytest.raises(NetConfigError):
            state.begin_pages(8)


# ---------------------------------------------------------------------------
# Satellite: fragmentation round-trips at every MTU
# ---------------------------------------------------------------------------


FRAG_BLOB = bytes((i * 37 + 11) % 256 for i in range(555))

blobs = st.binary(max_size=600)  # the empty blob included
mtus = st.integers(min_value=1, max_value=700)  # past the blob's length too
orders = st.randoms(use_true_random=False)
fragment_picks = st.integers(min_value=0)  # reduced modulo the count


def _order(mtu):
    return random.Random(f"repro-test-frag:{mtu}")


class TestFragmentationRoundTrip:
    """Fragmenting any blob at any MTU reassembles to the same blob, in
    any delivery order, and the per-fragment CRC rejects a corrupted
    fragment without blocking the genuine one.  The parametrized tests pin
    one 555-byte blob at four MTUs; the properties draw random blobs,
    MTUs, delivery orders and corrupted fragments."""

    @pytest.mark.parametrize("mtu", [8, 16, 51, 222])
    def test_packetise_reassemble_round_trip(self, mtu):
        packets = packetise_blob(FRAG_BLOB, mtu)
        assert len(packets) == -(-len(FRAG_BLOB) // mtu)
        assert all(len(p.payload) <= mtu for p in packets)
        state = NodeUpdateState(node=1, version=0)
        # Deliver out of order: reassembly must not depend on arrival.
        order = list(range(len(packets)))
        _order(mtu).shuffle(order)
        for index in order:
            assert state.receive(packets[index], len(packets)) == "accepted"
        assert state.holds_all(len(packets))
        assert state.assembled_blob() == FRAG_BLOB

    @pytest.mark.parametrize("mtu", [8, 16, 51, 222])
    def test_corrupted_fragment_rejected_by_crc(self, mtu):
        packets = packetise_blob(FRAG_BLOB, mtu)
        state = NodeUpdateState(node=1, version=0)
        bad = packets[1].corrupted(flip_at=3)
        assert state.receive(bad, len(packets)) == "corrupt"
        assert state.crc_rejections == 1
        assert 1 not in state.bank
        # The genuine fragment still goes through afterwards.
        assert state.receive(packets[1], len(packets)) == "accepted"
        for packet in packets:
            state.receive(packet, len(packets))
        assert state.assembled_blob() == FRAG_BLOB

    @given(
        blob=blobs, mtu=mtus, order=orders,
        corrupt=st.none() | st.tuples(fragment_picks, fragment_picks),
    )
    @example(blob=FRAG_BLOB, mtu=8, order=_order(8), corrupt=None)
    @example(blob=FRAG_BLOB, mtu=16, order=_order(16), corrupt=None)
    @example(blob=FRAG_BLOB, mtu=51, order=_order(51), corrupt=None)
    @example(blob=FRAG_BLOB, mtu=222, order=_order(222), corrupt=None)
    def test_round_trip_property(self, blob, mtu, order, corrupt):
        packets = packetise_blob(blob, mtu)
        assert len(packets) == -(-len(blob) // mtu)
        assert all(0 < len(p.payload) <= mtu for p in packets)
        deliveries = list(packets)
        order.shuffle(deliveries)
        corrupted = corrupt is not None and bool(packets)
        if corrupted:
            index, flip_at = corrupt
            bad = packets[index % len(packets)].corrupted(flip_at=flip_at)
            deliveries.insert(order.randrange(len(deliveries) + 1), bad)
        state = NodeUpdateState(node=1, version=0)
        outcomes = [state.receive(p, len(packets)) for p in deliveries]
        assert outcomes.count("corrupt") == int(corrupted)
        assert outcomes.count("accepted") == len(packets)
        assert state.holds_all(len(packets))
        assert state.assembled_blob() == blob

    @given(blob=blobs, mtu=mtus, order=orders, index=fragment_picks, flip_at=fragment_picks)
    @example(blob=FRAG_BLOB, mtu=8, order=_order(8), index=1, flip_at=3)
    @example(blob=FRAG_BLOB, mtu=16, order=_order(16), index=1, flip_at=3)
    @example(blob=FRAG_BLOB, mtu=51, order=_order(51), index=1, flip_at=3)
    @example(blob=FRAG_BLOB, mtu=222, order=_order(222), index=1, flip_at=3)
    def test_crc_rejection_property(self, blob, mtu, order, index, flip_at):
        packets = packetise_blob(blob, mtu)
        state = NodeUpdateState(node=1, version=0)
        if packets:
            index %= len(packets)
            bad = packets[index].corrupted(flip_at=flip_at)
            assert state.receive(bad, len(packets)) == "corrupt"
            assert state.crc_rejections == 1
            assert index not in state.bank
            # The genuine fragment still goes through afterwards.
            assert state.receive(packets[index], len(packets)) == "accepted"
        rest = list(packets)
        order.shuffle(rest)
        for packet in rest:
            state.receive(packet, len(packets))
        assert state.holds_all(len(packets))
        assert state.assembled_blob() == blob

    def test_zero_mtu_rejected(self):
        with pytest.raises(NetConfigError):
            packetise_blob(FRAG_BLOB, 0)

    def test_empty_tail_fragment_corruption_detected(self):
        packet = ScriptPacket.make(0, b"")
        assert packet.corrupted(flip_at=0).crc != packet.crc
