"""WSN topologies for the dissemination simulator.

Multi-hop networks where the sink cannot reach every node directly —
the setting in which paper §1 argues updates must travel hop-by-hop.
Topologies are plain adjacency structures; determinism comes from
seeded generators.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import TopologyError


@dataclass
class Topology:
    """An undirected connected network; node 0 is the sink."""

    positions: list[tuple[float, float]]
    neighbors: dict[int, list[int]] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    def hops_from_sink(self) -> dict[int, int]:
        """BFS hop distance of every node from the sink (node 0)."""
        hops = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for node in frontier:
                for peer in self.neighbors.get(node, ()):
                    if peer not in hops:
                        hops[peer] = hops[node] + 1
                        nxt.append(peer)
            frontier = nxt
        return hops

    def is_connected(self) -> bool:
        return len(self.hops_from_sink()) == self.node_count

    def max_hops(self) -> int:
        return max(self.hops_from_sink().values())

    def path_to_sink(self, node: int) -> list[int]:
        """A shortest path node → sink (greedy descent over hop counts)."""
        hops = self.hops_from_sink()
        path = [node]
        current = node
        while current != 0:
            current = min(
                self.neighbors[current], key=lambda peer: (hops[peer], peer)
            )
            path.append(current)
        return path


def line(node_count: int, spacing: float = 1.0) -> Topology:
    """A chain: sink — n1 — n2 — ... (the paper's 70-hop report path)."""
    positions = [(i * spacing, 0.0) for i in range(node_count)]
    neighbors = {}
    for i in range(node_count):
        adjacent = []
        if i > 0:
            adjacent.append(i - 1)
        if i < node_count - 1:
            adjacent.append(i + 1)
        neighbors[i] = adjacent
    return Topology(positions=positions, neighbors=neighbors)


def grid(width: int, height: int, spacing: float = 1.0) -> Topology:
    """A width x height grid, 4-connected, sink at the corner."""
    positions = []
    for y in range(height):
        for x in range(width):
            positions.append((x * spacing, y * spacing))
    neighbors: dict[int, list[int]] = {}
    for y in range(height):
        for x in range(width):
            node = y * width + x
            adjacent = []
            if x > 0:
                adjacent.append(node - 1)
            if x < width - 1:
                adjacent.append(node + 1)
            if y > 0:
                adjacent.append(node - width)
            if y < height - 1:
                adjacent.append(node + width)
            neighbors[node] = adjacent
    return Topology(positions=positions, neighbors=neighbors)


def random_geometric(
    node_count: int,
    radio_range: float = 0.18,
    seed: int = 42,
    area: float = 1.0,
    max_attempts: int = 200,
) -> Topology:
    """Random uniform placement with a unit-disc radio model.

    Resamples until connected (raises after ``max_attempts``), so the
    returned network is always usable for dissemination experiments.
    Two nodes are linked when ``math.hypot(dx, dy) <= radio_range``;
    only the nodes in nearby grid cells are tested (see
    :func:`_unit_disc`).
    """
    if not radio_range > 0:
        raise TopologyError("random", f"radio range must be > 0, got {radio_range}")
    if not math.isfinite(area):
        raise TopologyError("random", f"area must be finite, got {area}")
    rng = random.Random(f"repro-topology:{seed}")
    for _ in range(max_attempts):
        positions = [
            (rng.uniform(0, area), rng.uniform(0, area)) for _ in range(node_count)
        ]
        topo = Topology(positions=positions, neighbors=_unit_disc(positions, radio_range))
        if topo.is_connected():
            return topo
    raise TopologyError(
        "random",
        f"could not sample a connected network of {node_count} nodes with "
        f"range {radio_range}",
    )


def _unit_disc(
    positions: list[tuple[float, float]], radio_range: float
) -> dict[int, list[int]]:
    """Ascending neighbour lists of the unit-disc graph on ``positions``.

    Nodes are bucketed into square cells at least ``radio_range`` wide,
    so two linked nodes sit in the same or adjacent cells.  Each node is
    tested against the later nodes of the 5x5 block of cells around its
    own: the outer ring keeps a pair whose cell index rounded the other
    way, and the test is the pair loop's ``hypot(dx, dy) <= radio_range``.
    """
    span = max((abs(c) for point in positions for c in point), default=0.0)
    # A cell floor of span / 2**20 keeps every index finite for a tiny range.
    cell = max(radio_range, span / 2**20)
    keys = [(math.floor(x / cell), math.floor(y / cell)) for x, y in positions]
    cells: dict[tuple[int, int], list[int]] = {}
    for node, key in enumerate(keys):
        cells.setdefault(key, []).append(node)
    blocks = {
        (cx, cy): sorted(
            node
            for gx in range(cx - 2, cx + 3)
            for gy in range(cy - 2, cy + 3)
            for node in cells.get((gx, gy), ())
        )
        for cx, cy in cells
    }
    neighbors: dict[int, list[int]] = {i: [] for i in range(len(positions))}
    hypot = math.hypot
    for i, (x, y) in enumerate(positions):
        block = blocks[keys[i]]
        # Visiting i in ascending order keeps both lists ascending.
        for j in block[bisect_right(block, i):]:
            xj, yj = positions[j]
            if hypot(x - xj, y - yj) <= radio_range:
                neighbors[i].append(j)
                neighbors[j].append(i)
    return neighbors


def build_topology(
    kind: str,
    width: int = 5,
    height: int = 5,
    nodes: int = 8,
    spacing: float = 1.0,
    radio_range: float = 0.18,
    seed: int = 42,
) -> Topology:
    """Materialise a topology from a declarative recipe.

    The keyword surface matches :class:`repro.config.TopologySpec`,
    which is how batch jobs describe their fleets without shipping
    adjacency structures between processes.
    """
    if kind == "grid":
        return grid(width, height, spacing)
    if kind == "line":
        return line(nodes, spacing)
    if kind == "random":
        return random_geometric(nodes, radio_range=radio_range, seed=seed)
    raise TopologyError(
        kind, f"unknown topology kind {kind!r}; expected grid/line/random"
    )
