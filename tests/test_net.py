"""Network substrate tests: topologies, dissemination, report model."""

import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diff import EditScript, packetize
from repro.energy import MICA2
from repro.net import (
    ReportModel,
    Topology,
    disseminate,
    grid,
    line,
    random_geometric,
)
from repro.net import topology as topology_module
from repro.net.errors import TopologyError


def script_of_bytes(n):
    script = EditScript()
    remaining = n
    while remaining > 0:
        take = min(remaining, 60)
        script.remove(take)  # 'take' one-byte primitives? no: one primitive
        remaining -= take
    return script


class TestTopologies:
    def test_line_hops(self):
        topo = line(71)
        assert topo.max_hops() == 70  # the paper's 70-hop report example

    def test_grid_connected(self):
        topo = grid(6, 5)
        assert topo.node_count == 30
        assert topo.is_connected()

    def test_grid_corner_distance(self):
        topo = grid(4, 4)
        assert topo.hops_from_sink()[15] == 6  # manhattan distance

    def test_random_geometric_connected_and_deterministic(self):
        a = random_geometric(40, radio_range=0.35, seed=3)
        b = random_geometric(40, radio_range=0.35, seed=3)
        assert a.is_connected()
        assert a.positions == b.positions

    def test_random_geometric_unreachable_raises(self):
        with pytest.raises(ValueError):
            random_geometric(50, radio_range=0.01, seed=1, max_attempts=3)

    def test_path_to_sink_descends(self):
        topo = grid(5, 5)
        path = topo.path_to_sink(24)
        hops = topo.hops_from_sink()
        for a, b in zip(path, path[1:]):
            assert hops[b] == hops[a] - 1
        assert path[-1] == 0


def all_pairs_geometric(node_count, radio_range, seed, area, max_attempts):
    """``random_geometric`` written as its contract: the same seeded
    placements, every pair tested, the first connected sample kept
    (None when no attempt connects)."""
    rng = random.Random(f"repro-topology:{seed}")
    for _ in range(max_attempts):
        positions = [
            (rng.uniform(0, area), rng.uniform(0, area)) for _ in range(node_count)
        ]
        neighbors = {i: [] for i in range(node_count)}
        for i in range(node_count):
            for j in range(i + 1, node_count):
                dx = positions[i][0] - positions[j][0]
                dy = positions[i][1] - positions[j][1]
                if math.hypot(dx, dy) <= radio_range:
                    neighbors[i].append(j)
                    neighbors[j].append(i)
        topo = Topology(positions=positions, neighbors=neighbors)
        if topo.is_connected():
            return topo
    return None


class TestRandomGeometricReference:
    """The grid-cell neighbour search links exactly the pairs the
    all-pairs loop links, from ranges far below the node spacing to
    ranges above the area's diagonal, including ranges equal to one
    pair's distance."""

    MAX_ATTEMPTS = 3

    @settings(max_examples=settings.default.max_examples // 5, deadline=None)
    @given(
        node_count=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
        area=st.sampled_from([1e-3, 0.5, 1.0, 7.0, 250.0]),
        scale=st.floats(1e-9, 1.6),
        tie=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_all_pairs_loop(self, node_count, seed, area, scale, tie, data):
        radio_range = area * scale
        if tie and node_count > 1:
            # The distance of one pair of the first sample: the ``<=``
            # boundary, where a rounded cell index would show.
            rng = random.Random(f"repro-topology:{seed}")
            first = [(rng.uniform(0, area), rng.uniform(0, area)) for _ in range(node_count)]
            i, j = data.draw(
                st.lists(st.integers(0, node_count - 1), min_size=2, max_size=2, unique=True)
            )
            radio_range = math.hypot(first[i][0] - first[j][0], first[i][1] - first[j][1])
        expected = all_pairs_geometric(node_count, radio_range, seed, area, self.MAX_ATTEMPTS)
        if expected is None:
            with pytest.raises(TopologyError):
                random_geometric(
                    node_count, radio_range, seed, area, max_attempts=self.MAX_ATTEMPTS
                )
            return
        topo = random_geometric(
            node_count, radio_range, seed, area, max_attempts=self.MAX_ATTEMPTS
        )
        assert topo.positions == expected.positions
        assert topo.neighbors == expected.neighbors

    @pytest.mark.parametrize(
        "radio_range, area, message",
        [
            (0.0, 1.0, "radio range must be > 0"),
            (-0.1, 1.0, "radio range must be > 0"),
            (math.nan, 1.0, "radio range must be > 0"),
            (0.1, math.inf, "area must be finite"),
            (0.1, math.nan, "area must be finite"),
        ],
    )
    def test_unusable_range_or_area_is_refused_before_sampling(
        self, monkeypatch, radio_range, area, message
    ):
        def no_sampling(*args):
            raise AssertionError("drew a placement")

        monkeypatch.setattr(topology_module, "random", types.SimpleNamespace(Random=no_sampling))
        with pytest.raises(TopologyError, match=message):
            random_geometric(1000, radio_range=radio_range, seed=3, area=area)


class TestDissemination:
    def _packets(self, script_bytes=40):
        script = EditScript()
        total = 0
        while total < script_bytes:
            script.remove(1)
            total += 1
        return packetize(script)

    def test_every_node_pays_energy(self):
        topo = grid(4, 4)
        result = disseminate(topo, self._packets())
        assert len(result.ledgers) == 16
        for node in range(1, 16):
            assert result.ledgers[node].total_j > 0

    def test_energy_scales_with_script_size(self):
        topo = grid(4, 4)
        small = disseminate(topo, self._packets(10))
        large = disseminate(topo, self._packets(200))
        assert large.total_energy_j > small.total_energy_j

    def test_energy_scales_with_network_size(self):
        packets = self._packets()
        small = disseminate(grid(3, 3), packets)
        large = disseminate(grid(6, 6), packets)
        assert large.total_energy_j > small.total_energy_j

    def test_rx_dominates_in_dense_networks(self):
        """With flooding, each node receives from every neighbour, so
        total Rx energy exceeds total Tx energy in any graph with more
        edges than nodes."""
        topo = grid(5, 5)
        result = disseminate(topo, self._packets())
        assert result.total_rx_j > result.total_tx_j

    def test_no_packets_no_radio_energy(self):
        topo = grid(3, 3)
        result = disseminate(topo, packetize(EditScript()))
        assert result.total_energy_j == 0.0

    def test_rounds_equal_network_depth(self):
        topo = line(10)
        result = disseminate(topo, self._packets())
        assert result.rounds == 9


class TestReportModel:
    def test_seventy_hop_example(self):
        """Paper §2.1: an event at 70 hops runs processing code once and
        transmission code 70 times."""
        topo = line(71)
        model = ReportModel(topo)
        weight = model.processing_vs_transmission_weight(70)
        assert weight == 70

    def test_report_cost_grows_with_distance(self):
        topo = line(20)
        model = ReportModel(topo)
        near, near_hops = model.report_cost(2, 1000, 500)
        far, far_hops = model.report_cost(19, 1000, 500)
        assert far > near
        assert far_hops > near_hops

    def test_transmission_cycles_weighted_by_hops(self):
        topo = line(11)
        model = ReportModel(topo)
        slow_tx, _ = model.report_cost(10, 1000, 2000)
        fast_tx, _ = model.report_cost(10, 1000, 1000)
        # 10 hops x 1000 extra cycles of transmission code
        expected_delta = 10 * 1000 * MICA2.cycle_energy_j
        assert slow_tx - fast_tx == pytest.approx(expected_delta)

    def test_processing_cycles_weighted_once(self):
        topo = line(11)
        model = ReportModel(topo)
        slow_p, _ = model.report_cost(10, 2000, 1000)
        fast_p, _ = model.report_cost(10, 1000, 1000)
        assert slow_p - fast_p == pytest.approx(1000 * MICA2.cycle_energy_j)
