"""Version-graph tests: replay identity, planning, versioned campaigns.

The acceptance criterion pinned here: **every** planned path — chained
step diffs, merged diff, full image — rebuilds a byte-identical target
image, including under crash/corruption fault plans, and the session's
typed API exposes the whole machinery.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CohortPlan
from repro.core.compiler import Compiler, compile_source
from repro.core.errors import PlanStateError
from repro.core.session import UpdateSession, VersionedCampaignResult
from repro.fuzz import generate_program, mutate
from repro.net.coding import CodedTransferParams
from repro.net.errors import NetConfigError
from repro.diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD, Packetisation
from repro.net.dissemination import disseminate
from repro.net.faults import FaultPlan, NodeCrash
from repro.net.topology import grid, random_geometric
from repro.versioning import (
    VersionGraph,
    build_version_graph,
    plan_cohorts,
    run_versioned_campaign,
)
from repro.versioning.graph import (
    VersionEdge,
    decode_plan_blob,
    encode_plan_blob,
)
from repro.versioning.planner import plan_edges, predicted_wave_energy_j
from repro.workloads import CASES

CASE = CASES["3"]
V3 = CASE.old_source
V5 = CASE.new_source
V6 = V5.replace("u8 am_type = 4;", "u8 am_type = 5;")
V7 = V5.replace("u8 am_type = 4;", "u8 am_type = 6;").replace(
    "cnt = cnt + 1;", "cnt = cnt + 2;"
)
RELEASES = {3: V3, 5: V5, 6: V6, 7: V7}


@pytest.fixture(scope="module")
def graph():
    return build_version_graph(RELEASES)


def target_image(graph):
    program = graph.programs[graph.target]
    return program.image.words(), program.image.data


class TestVersionGraph:
    def test_versions_and_target(self, graph):
        assert graph.versions == (3, 5, 6, 7)
        assert graph.target == 7

    def test_chain_edges_are_update_conscious_steps(self, graph):
        for src, dst in ((3, 5), (5, 6), (6, 7)):
            edge = graph.edge(src, dst)
            assert edge is not None
            assert edge.kind == "step"
            assert edge.script_bytes > 0

    def test_image_digests_are_distinct_and_stable(self, graph):
        digests = [graph.image_digest(v) for v in graph.versions]
        assert len(set(digests)) == len(digests)
        assert digests == [graph.image_digest(v) for v in graph.versions]

    def test_backwards_chain_is_rejected(self, graph):
        with pytest.raises(PlanStateError):
            graph.step_path(7, 3)
        with pytest.raises(PlanStateError):
            graph.step_path(3, 4)  # v4 was never released


class TestReplayIdentity:
    """Acceptance: every planned path yields the identical final image."""

    def test_every_pair_every_strategy(self, graph):
        words, data = target_image(graph)
        pairs = [
            (src, dst)
            for src in graph.versions
            for dst in graph.versions
            if src < dst
        ]
        for src, dst in pairs:
            expected_words = graph.programs[dst].image.words()
            expected_data = graph.programs[dst].image.data
            chain = graph.step_path(src, dst)
            outcomes = [
                graph.replay(chain, graph.step_edges(src, dst)),
                graph.replay([src, dst], [graph.merged_edge(src, dst)]),
                graph.replay([src, dst], [graph.full_edge(src, dst)]),
            ]
            for got_words, got_data in outcomes:
                assert got_words == expected_words
                assert got_data == expected_data
        assert (words, data) == (
            graph.programs[7].image.words(),
            graph.programs[7].image.data,
        )

    def test_replay_rejects_misordered_edges(self, graph):
        edges = graph.step_edges(3, 7)
        with pytest.raises(PlanStateError):
            graph.replay([3, 5, 6, 7], list(reversed(edges)))
        with pytest.raises(PlanStateError):
            graph.replay([3, 7], edges)


class TestPlanBlob:
    def test_roundtrip(self, graph):
        edges = graph.step_edges(3, 7)
        blob = encode_plan_blob(edges)
        steps = decode_plan_blob(blob)
        assert len(steps) == len(edges)
        for (code, data), edge in zip(steps, edges):
            assert code == edge.code_script.to_bytes()
            assert data == edge.data_script.to_bytes()

    def test_truncation_and_trailing_bytes_raise(self, graph):
        blob = encode_plan_blob(graph.step_edges(3, 5))
        with pytest.raises(PlanStateError):
            decode_plan_blob(blob[:-3])
        with pytest.raises(PlanStateError):
            decode_plan_blob(blob + b"\x00")
        with pytest.raises(PlanStateError):
            decode_plan_blob(b"")
        with pytest.raises(PlanStateError):
            encode_plan_blob([])


class TestCohortPlanner:
    def test_cohorts_grouped_by_version(self, graph):
        fleet = {0: 7, 1: 3, 2: 3, 3: 5, 4: 6, 5: 7}
        plans = plan_cohorts(graph, fleet)
        assert [p.from_version for p in plans] == [3, 5, 6]
        assert plans[0].nodes == (1, 2)
        assert all(p.to_version == 7 for p in plans)

    def test_nodes_at_target_need_no_plan(self, graph):
        assert plan_cohorts(graph, {0: 7, 1: 7, 2: 7}) == ()

    def test_unknown_or_ahead_versions_raise(self, graph):
        with pytest.raises(PlanStateError):
            plan_cohorts(graph, {1: 4})
        with pytest.raises(PlanStateError):
            plan_cohorts(graph, {1: 7}, target=5)

    def test_loss_outside_the_unit_interval_raises(self, graph):
        for loss in (-0.1, 1.0):
            with pytest.raises(PlanStateError):
                plan_cohorts(graph, {1: 3}, loss=loss)

    def test_diff_plans_beat_full_images(self, graph):
        """Acceptance direction: a tiny inter-version diff must always
        plan cheaper than shipping the whole image."""
        plans = plan_cohorts(graph, {1: 3, 2: 5, 3: 6})
        for plan in plans:
            assert plan.strategy in ("chain", "merged")
            full = graph.full_edge(plan.from_version, 7)
            full_energy = predicted_wave_energy_j(
                full.script_bytes, node_count=4, mean_degree=4.0,
            )
            assert plan.predicted_energy_j < full_energy

    @pytest.mark.parametrize("script_bytes", [1, 200, 515, 1659])
    @pytest.mark.parametrize(
        "make_topology",
        [
            lambda: grid(5, 5),
            lambda: grid(8, 8),
            lambda: random_geometric(40, radio_range=0.3, seed=2),
        ],
        ids=["grid5x5", "grid8x8", "geo40"],
    )
    def test_lossless_prediction_is_the_analytic_flood(
        self, make_topology, script_bytes
    ):
        """Cross-model identity: at loss 0 the planner's wave energy is
        the paper's hop model (every node broadcasts every packet once,
        every neighbour receives it) with the fleet's mean degree."""
        topology = make_topology()
        degrees = sum(
            len(topology.neighbors.get(node, ()))
            for node in range(topology.node_count)
        )
        predicted = predicted_wave_energy_j(
            script_bytes,
            node_count=topology.node_count,
            mean_degree=degrees / topology.node_count,
        )
        flood = disseminate(
            topology,
            Packetisation(
                script_bytes=script_bytes,
                payload_per_packet=DEFAULT_PAYLOAD,
                overhead_per_packet=DEFAULT_OVERHEAD,
            ),
        )
        assert math.isclose(
            predicted, flood.total_tx_j + flood.total_rx_j, rel_tol=1e-12
        )

    def test_plan_edges_match_the_strategy(self, graph):
        plans = plan_cohorts(graph, {1: 3})
        edges = plan_edges(graph, plans[0])
        assert [(e.src, e.dst) for e in edges] == list(
            zip(plans[0].path, plans[0].path[1:])
        )

    def test_frozen_plan_validation(self):
        with pytest.raises(ValueError):
            CohortPlan(
                from_version=3, to_version=7, nodes=(1,),
                strategy="teleport", path=(3, 7),
                script_bytes=1, predicted_energy_j=0.1,
            )
        with pytest.raises(ValueError):
            CohortPlan(
                from_version=3, to_version=7, nodes=(1,),
                strategy="full", path=(3, 5, 7),
                script_bytes=1, predicted_energy_j=0.1,
            )

    def test_version_spec_validation(self):
        with pytest.raises(PlanStateError):
            build_version_graph({-1: V3, 5: V5})
        with pytest.raises(PlanStateError):
            build_version_graph({1: "", 5: V5})
        with pytest.raises(PlanStateError):
            build_version_graph({5: V5}, base={-1: Compiler().compile(V3)})


class TestVersionedCampaign:
    def fleet(self, topology):
        versions = {0: 7}
        for node in range(1, topology.node_count):
            versions[node] = (3, 5, 6)[node % 3]
        return versions

    def test_heterogeneous_fleet_converges_and_replays(self, graph):
        topo = grid(3, 3)
        fleet = self.fleet(topo)
        plans = plan_cohorts(graph, fleet)
        report = run_versioned_campaign(
            graph, plans, topo, loss=0.1, seed=3
        )
        assert report.converged
        assert report.replay_identical
        assert report.target_digest == graph.image_digest(7)
        assert all(
            c.final_image_digest == report.target_digest
            for c in report.cohorts
        )
        versions = report.node_versions(fleet)
        assert all(v == 7 for n, v in versions.items() if n != 0)

    def test_deterministic_report_digest(self, graph):
        topo = grid(3, 3)
        plans = plan_cohorts(graph, self.fleet(topo))
        digests = {
            run_versioned_campaign(
                graph, plans, topo, loss=0.2, seed=9
            ).digest()
            for _ in range(2)
        }
        assert len(digests) == 1

    def test_replay_identity_under_faults(self, graph):
        plan = FaultPlan(
            crashes=(NodeCrash(node=4, round=2, reboot_round=8),),
            corrupt_prob=0.05,
            seed=13,
        )
        topo = grid(3, 3)
        plans = plan_cohorts(graph, self.fleet(topo))
        report = run_versioned_campaign(
            graph, plans, topo, loss=0.1, seed=5, fault_plan=plan,
            max_rounds=400,
        )
        assert report.replay_identical

    def test_coded_fountain_waves(self, graph):
        topo = grid(3, 3)
        plans = plan_cohorts(graph, self.fleet(topo))
        report = run_versioned_campaign(
            graph, plans, topo, loss=0.2, seed=4,
            coding=CodedTransferParams(scheme="lt"),
        )
        assert report.converged
        assert report.replay_identical

    def test_xor_parity_on_trickle_waves(self, graph):
        topo = grid(3, 3)
        plans = plan_cohorts(graph, self.fleet(topo))
        report = run_versioned_campaign(
            graph, plans, topo, loss=0.2, seed=4, protocol="trickle",
            coding=CodedTransferParams(scheme="xor"),
        )
        assert report.converged
        assert report.replay_identical

    def test_scheme_protocol_mismatch_raises(self, graph):
        topo = grid(3, 3)
        plans = plan_cohorts(graph, self.fleet(topo))
        with pytest.raises(NetConfigError):
            run_versioned_campaign(
                graph, plans, topo, protocol="trickle",
                coding=CodedTransferParams(scheme="lt"),
            )
        with pytest.raises(NetConfigError):
            run_versioned_campaign(
                graph, plans, topo, protocol="flood",
                coding=CodedTransferParams(scheme="xor"),
            )


class TestSessionVersionedPush:
    def session(self, version=0):
        old = Compiler().compile(V3)
        return UpdateSession(
            old, topology=grid(3, 3), loss=0.1, loss_seed=2, version=version
        )

    def test_multi_release_push_advances_history(self):
        session = self.session(version=3)
        result = session.push_campaign({5: V5, 6: V6, 7: V7})
        assert isinstance(result, VersionedCampaignResult)
        assert result.converged
        assert session.version == 7
        assert sorted(session.history) == [3, 5, 6, 7]
        assert session.deployed is session.history[7]

    def test_heterogeneous_fleet_versions(self):
        session = self.session(version=3)
        session.push_campaign({5: V5})
        fleet = {node: 3 if node % 2 else 5 for node in range(1, 9)}
        result = session.push_campaign({6: V6}, fleet_versions=fleet)
        assert isinstance(result, VersionedCampaignResult)
        assert {p.from_version for p in result.plans} == {3, 5}
        assert session.version == 6

    def test_single_next_release_stays_on_classic_path(self):
        session = self.session()
        result = session.push_campaign({1: V5})
        assert not isinstance(result, VersionedCampaignResult)
        assert result.converged
        assert session.version == 1

    def test_stale_release_labels_are_rejected(self):
        session = self.session(version=3)
        with pytest.raises(PlanStateError):
            session.push_campaign({3: V5})
        with pytest.raises(PlanStateError):
            session.push_campaign({})


class TestGraphConstruction:
    def test_needs_two_releases(self):
        with pytest.raises(PlanStateError):
            build_version_graph({7: V7})

    def test_base_must_precede_releases(self):
        deployed = Compiler().compile(V3)
        with pytest.raises(PlanStateError):
            build_version_graph({5: V5}, base={6: deployed})

    def test_base_anchor_labels_deployed_binary(self):
        deployed = Compiler().compile(V3)
        graph = build_version_graph({5: V5, 7: V7}, base={3: deployed})
        assert graph.versions == (3, 5, 7)
        assert graph.programs[3] is deployed
        assert isinstance(graph, VersionGraph)
        assert isinstance(graph.edge(3, 5), VersionEdge)


def release_chain(seed, count):
    """A generated program and ``count - 1`` semantic mutations of it,
    labelled v1..v{count}, drawn as the versioned fuzz sweep draws its
    release histories."""
    rng = random.Random(seed)
    program = generate_program(rng)
    releases = {1: program.render()}
    for label in range(2, count + 1):
        program, _edits = mutate(program, rng, rng.randrange(1, 3))
        releases[label] = program.render()
    return releases


class TestRandomHistories:
    """Replay identity on generated release chains: every edge kind and
    every cohort plan rebuilds the canonical image, and anchoring the
    chain on a compiled base changes nothing."""

    @settings(max_examples=settings.default.max_examples // 5, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(3, 4),
        fleet=st.lists(st.integers(1, 4), min_size=1, max_size=12),
    )
    def test_every_path_replays_to_the_canonical_image(
        self, seed, count, fleet
    ):
        releases = release_chain(seed, count)
        graph = build_version_graph(releases)
        assert graph.versions == tuple(range(1, count + 1))
        for src, dst in itertools.combinations(graph.versions, 2):
            image = graph.programs[dst].image
            expected = (image.words(), image.data)
            chain = graph.step_path(src, dst)
            assert graph.replay(chain, graph.step_edges(src, dst)) == expected
            assert graph.replay([src, dst], [graph.merged_edge(src, dst)]) == expected
            assert graph.replay([src, dst], [graph.full_edge(src, dst)]) == expected

        versions = {0: count}
        versions.update(
            (node, min(version, count))
            for node, version in enumerate(fleet, start=1)
        )
        target = graph.programs[count].image
        for plan in plan_cohorts(graph, versions):
            assert graph.replay(plan.path, plan_edges(graph, plan)) == (
                target.words(),
                target.data,
            )

        # Only the first step differs between the two forms: from v2 on,
        # both graphs plan from the same image.
        anchored = build_version_graph(
            {2: releases[2]}, base={1: compile_source(releases[1])}
        )
        for version in (1, 2):
            assert anchored.image_digest(version) == graph.image_digest(version)
        assert anchored.edge(1, 2).step_bytes() == graph.edge(1, 2).step_bytes()


class TestVersionedFuzz:
    def test_seeded_sweep_passes(self):
        """Version-heterogeneous fleets under random faults uphold the
        replay-identity + convergence-or-quarantine oracle battery."""
        from repro.fuzz import run_versioned_fuzz

        report = run_versioned_fuzz(seed=11, iters=10)
        assert report.ok, report.render()
        assert report.converged + report.partial == 10
        assert report.crashes_injected > 0

    def test_sweep_digest_is_reproducible(self):
        from repro.fuzz import run_versioned_fuzz

        a = run_versioned_fuzz(seed=5, iters=4)
        b = run_versioned_fuzz(seed=5, iters=4)
        assert a.digest == b.digest
        assert a.ok and b.ok
