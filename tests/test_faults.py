"""Fault-plan and node update state machine tests."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.energy.power_model import MICA2
from repro.net import (
    FaultPlan,
    NodeCrash,
    NodeUpdateState,
    PartitionWindow,
    ScriptPacket,
    generate_fault_plan,
    packet_crc,
    packetise_blob,
)
from repro.net.errors import FaultPlanError
from repro.net.faults import LinkGate
from repro.net.fleet_sim import FleetSim
from repro.net.kernel import ALWAYS_ON
from repro.net.topology import Topology


class TestFaultPlan:
    def test_sink_never_crashes(self):
        with pytest.raises(ValueError):
            NodeCrash(node=0, round=3)

    def test_reboot_must_follow_crash(self):
        with pytest.raises(ValueError):
            NodeCrash(node=2, round=5, reboot_round=5)

    def test_partition_cannot_contain_sink(self):
        with pytest.raises(ValueError):
            PartitionWindow(start=1, end=4, nodes=(0, 2))

    def test_partition_rejects_negative_node_ids(self):
        with pytest.raises(FaultPlanError, match="must be >= 1"):
            PartitionWindow(start=3, end=7, nodes=(-1, 5))

    def test_partition_severs_only_across_the_cut(self):
        window = PartitionWindow(start=2, end=5, nodes=(3, 4))
        assert window.severs(3, 1, 2)  # across the cut, inside the window
        assert not window.severs(3, 4, 2)  # both inside the island
        assert not window.severs(1, 2, 3)  # both outside the island
        assert not window.severs(3, 1, 5)  # window is half-open: healed
        assert not window.severs(3, 1, 1)  # before the window opens

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(corrupt_prob=1.0)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_prob=-0.1)

    def test_one_crash_per_node(self):
        with pytest.raises(ValueError):
            FaultPlan(
                crashes=(
                    NodeCrash(node=2, round=1),
                    NodeCrash(node=2, round=9),
                )
            )

    def test_digest_is_content_addressed(self):
        a = FaultPlan(crashes=(NodeCrash(node=1, round=2),), seed=7)
        b = FaultPlan(crashes=(NodeCrash(node=1, round=2),), seed=7)
        c = FaultPlan(crashes=(NodeCrash(node=1, round=3),), seed=7)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_is_empty(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(corrupt_prob=0.1).is_empty

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan(
            crashes=(NodeCrash(node=4, round=2, reboot_round=9),),
            partitions=(PartitionWindow(start=3, end=8, nodes=(5, 6)),),
            corrupt_prob=0.05,
        )
        text = plan.describe()
        assert "node 4" in text
        assert "partition" in text
        assert "corrupt" in text

    def test_generated_plan_deterministic(self):
        a = generate_fault_plan(random.Random("plan:1"), 9)
        b = generate_fault_plan(random.Random("plan:1"), 9)
        assert a == b
        assert a.digest() == b.digest()

    def test_generated_plan_valid_for_fleet(self):
        for seed in range(20):
            plan = generate_fault_plan(random.Random(f"plan:{seed}"), 12)
            for crash in plan.crashes:
                assert 1 <= crash.node < 12
            for window in plan.partitions:
                assert all(1 <= node < 12 for node in window.nodes)


class TestScriptPackets:
    def test_crc_covers_index_and_payload(self):
        assert packet_crc(0, b"abc") != packet_crc(1, b"abc")
        assert packet_crc(0, b"abc") != packet_crc(0, b"abd")

    def test_packetise_round_trips(self):
        blob = bytes(range(256)) * 2
        packets = packetise_blob(blob, 22)
        assert b"".join(p.payload for p in packets) == blob
        assert [p.index for p in packets] == list(range(len(packets)))
        for packet in packets:
            assert packet.crc == packet_crc(packet.index, packet.payload)

    def test_corruption_breaks_the_crc(self):
        packet = ScriptPacket.make(3, b"payload")
        broken = packet.corrupted(flip_at=2)
        assert broken.payload != packet.payload
        assert packet_crc(broken.index, broken.payload) != broken.crc


class TestNodeUpdateState:
    def _packets(self, blob=b"0123456789", payload=4):
        return packetise_blob(blob, payload)

    def test_assembles_and_stages(self):
        packets = self._packets()
        state = NodeUpdateState(node=1, version=0)
        for packet in packets:
            assert state.receive(packet, len(packets)) == "accepted"
        assert state.state == "staged"
        assert state.assembled_blob() == b"0123456789"

    def test_corrupt_packet_rejected(self):
        packets = self._packets()
        state = NodeUpdateState(node=1, version=0)
        verdict = state.receive(packets[0].corrupted(1), len(packets))
        assert verdict == "corrupt"
        assert state.crc_rejections == 1
        assert 0 not in state.bank

    def test_duplicate_detected(self):
        packets = self._packets()
        state = NodeUpdateState(node=1, version=0)
        state.receive(packets[0], len(packets))
        assert state.receive(packets[0], len(packets)) == "duplicate"
        assert state.duplicates == 1

    def test_commit_flips_version_after_apply_rounds(self):
        packets = self._packets()
        state = NodeUpdateState(node=1, version=0, apply_rounds=2)
        for packet in packets:
            state.receive(packet, len(packets))
        assert not state.tick_apply(new_version=1)  # first write round
        assert state.state == "applying"
        assert state.version == 0  # boot pointer untouched mid-write
        assert state.tick_apply(new_version=1)  # commit round
        assert state.committed
        assert state.version == 1

    def test_crash_mid_patch_rolls_back(self):
        """The crash-consistency invariant: a mid-apply crash leaves the
        node on the golden image with no staging residue."""
        packets = self._packets()
        state = NodeUpdateState(node=1, version=0, apply_rounds=3)
        for packet in packets:
            state.receive(packet, len(packets))
        state.tick_apply(new_version=1)  # half-written inactive bank
        state.crash()
        assert state.version == 0  # golden image
        assert not state.committed
        assert state.bank == {}  # staging bank wiped
        state.reboot(round_no=9)
        assert state.version == 0
        assert state.state == "idle"  # re-syncs from scratch

    def test_crash_after_commit_keeps_new_image(self):
        packets = self._packets()
        state = NodeUpdateState(node=1, version=0, apply_rounds=1)
        for packet in packets:
            state.receive(packet, len(packets))
        assert state.tick_apply(new_version=1)
        state.crash()
        state.reboot(round_no=5)
        assert state.committed
        assert state.version == 1  # boots the fully verified new image

    def test_nack_backoff_doubles_and_resets(self):
        packets = self._packets()
        state = NodeUpdateState(node=1, version=0)
        assert state.should_nack(1, len(packets))
        state.note_nack(1, len(packets))
        assert state.advertised_missing == set(range(len(packets)))
        state.note_round(made_progress=False)
        state.note_nack(2, len(packets))
        assert not state.should_nack(3, len(packets))  # backed off
        state.note_round(made_progress=True)  # progress resets
        state.note_nack(4, len(packets))
        assert state.should_nack(5, len(packets))

    def test_dead_or_committed_nodes_ignore_traffic(self):
        packets = self._packets()
        state = NodeUpdateState(node=1, version=0)
        state.crash()
        assert state.receive(packets[0], len(packets)) == "ignored"
        done = NodeUpdateState(node=2, version=1, committed=True)
        assert done.receive(packets[0], len(packets)) == "ignored"


@st.composite
def partitioned_fleets(draw):
    """A random (not necessarily connected) topology and 0-3 partition
    windows over it.

    Rounds are drawn from a narrow range so windows overlap and open or
    close in the same round often; island ids run past the topology.
    """
    node_count = draw(st.integers(min_value=2, max_value=24))
    node = st.integers(min_value=0, max_value=node_count - 1)
    neighbors: dict = {n: [] for n in range(node_count)}
    for a, b in draw(st.lists(st.tuples(node, node), max_size=3 * node_count)):
        if a != b and b not in neighbors[a]:
            neighbors[a].append(b)
            neighbors[b].append(a)
    topology = Topology([(0.0, 0.0)] * node_count, neighbors)
    windows = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.integers(min_value=1, max_value=6))
        end = draw(st.integers(min_value=start + 1, max_value=start + 4))
        island = draw(
            st.lists(
                st.integers(min_value=1, max_value=node_count + 3),
                min_size=1,
                max_size=node_count + 3,
                unique=True,
            )
        )
        windows.append(PartitionWindow(start, end, tuple(sorted(island))))
    return topology, tuple(windows)


def _edges(topology):
    return [
        (a, b)
        for a in range(topology.node_count)
        for b in topology.neighbors.get(a, ())
    ]


def _severed(windows, a, b, round_no):
    return any(window.severs(a, b, round_no) for window in windows)


class TestLinkGate:
    """``LinkGate`` against the one-window definition it replaces."""

    @settings(max_examples=80, deadline=None)
    @given(partitioned_fleets())
    def test_gate_matches_severs(self, fleet):
        topology, windows = fleet
        gate = LinkGate(windows, topology.node_count)
        last = max((window.end for window in windows), default=0) + 1
        rounds = list(range(last + 1))
        # Ascending, then descending: the kept labels of the previous
        # round must never leak into another one.
        for round_no in rounds + rounds[::-1]:
            sides = gate.sides(round_no)
            for a, b in _edges(topology):
                up = sides is None or sides[a] == sides[b]
                assert up == (not _severed(windows, a, b, round_no)), (
                    a, b, round_no, windows,
                )

    def test_no_open_window_means_no_labels(self):
        gate = LinkGate((PartitionWindow(3, 5, (1, 2)),), 4)
        assert gate.sides(2) is None
        assert gate.sides(5) is None
        assert gate.sides(3) == [0, 1, 1, 0]

    @settings(max_examples=40, deadline=None)
    @given(partitioned_fleets(), st.sampled_from((1.0, 0.7, 0.1)))
    @example(  # opening event at t = 2.0999999999999996, still round 2
        (
            Topology([(0.0, 0.0)] * 3, {0: [1], 1: [0, 2], 2: [1]}),
            (PartitionWindow(3, 5, (2,)),),
        ),
        0.7,
    )
    def test_fleet_link_up_follows_the_kernel_round(self, fleet, round_s):
        """The kernel protocols take the round as ``int(now / round_s)``,
        also where a window boundary lands a float below the round."""
        topology, windows = fleet
        sim = FleetSim(
            topology, b"x" * 64, FaultPlan(partitions=windows),
            loss=0.0, seed=1, power=MICA2, duty_cycle=ALWAYS_ON,
            payload_per_packet=22, overhead_per_packet=7,
            old_version=0, new_version=1, round_s=round_s, apply_s=1.0,
            component="test-link-gate",
        )
        for window in windows:
            for now in (window.start * round_s, window.end * round_s):
                sim.kernel.now = now
                round_no = int(now / round_s)
                for a, b in _edges(topology):
                    assert sim.link_up(a, b) == (
                        not _severed(windows, a, b, round_no)
                    )
