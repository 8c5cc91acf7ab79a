"""Cohort planner: cheapest dissemination plan per stale version.

Given the fleet's advertised versions, group the stale nodes into
cohorts (one per distinct version) and pick for each the cheapest way
to reach the target:

* ``"chain"``  — the released step diffs v3→v4→…→v7, smallest bytes
  per hop;
* ``"merged"`` — one direct diff v3→v7, whose script grows with the
  span;
* ``"full"``   — the whole target image, span-independent and big.

Cost model (documented in docs/VERSIONING.md): one dissemination wave
of ``B`` payload bytes over a fleet of ``n`` nodes with mean radio
degree ``d`` and per-link loss ``p`` costs approximately::

    E(B) = packets(B) * bits/packet * (tx_bit + d * rx_bit) * n / (1 - p)

— every node forwards the wave once (flood/Trickle both converge to
O(n) transmissions under suppression), each transmission is overheard
by ``d`` neighbours, and loss inflates air time by the expected
repair factor.  Packets carry ``DEFAULT_PAYLOAD`` bytes behind
``DEFAULT_OVERHEAD`` bytes of header, the geometry every wave uses.
A chain is priced as the sum of its hops' waves, although
:func:`repro.versioning.campaign.run_versioned_campaign` ships every
plan, chains included, as one framed blob in one wave.  The model's
job is *ranking*, not joule-accurate prediction — the bench pins the
realised ratio.

The chain candidate is found by Dijkstra over every edge already in
the graph (step edges plus any cached merged edges), so a previously
materialised shortcut v3→v5 is considered alongside the pure chain.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Tuple

from ..config import CohortPlan
from ..core.errors import PlanStateError
from ..diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD
from ..energy.power_model import MICA2, PowerModel
from ..obs import metrics, trace
from .graph import VersionGraph

#: The longest chained plan (in hops) the planner considers.
MAX_CHAIN = 16


def predicted_wave_energy_j(
    script_bytes: int,
    *,
    node_count: int,
    mean_degree: float,
    loss: float = 0.0,
    power: PowerModel = MICA2,
) -> float:
    """Cost-model energy of one dissemination wave of ``script_bytes``."""
    packets = max(1, -(-script_bytes // DEFAULT_PAYLOAD))
    bits = packets * 8 * (DEFAULT_PAYLOAD + DEFAULT_OVERHEAD)
    per_tx = power.tx_bit_energy_j + mean_degree * power.rx_bit_energy_j
    return bits * per_tx * node_count / (1.0 - loss)


def _cheapest_chain(
    graph: VersionGraph,
    src: int,
    dst: int,
    *,
    node_count: int,
    mean_degree: float,
    loss: float,
    power: PowerModel,
) -> "Optional[Tuple[List[int], float, int]]":
    """Dijkstra over the graph's existing edges; returns
    ``(path, energy, bytes)`` or ``None`` when no path fits
    :data:`MAX_CHAIN`."""
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for (a, b), edge in graph._edges.items():
        adjacency.setdefault(a, []).append((b, edge.script_bytes))
    best: Dict[int, float] = {src: 0.0}
    back: Dict[int, Tuple[int, int]] = {}
    queue: List[Tuple[float, int, int]] = [(0.0, src, 0)]
    while queue:
        cost, here, hops = heapq.heappop(queue)
        if here == dst:
            break
        if cost > best.get(here, float("inf")) or hops >= MAX_CHAIN:
            continue
        for peer, size in adjacency.get(here, ()):
            if peer > dst:
                continue
            step = predicted_wave_energy_j(
                size,
                node_count=node_count,
                mean_degree=mean_degree,
                loss=loss,
                power=power,
            )
            if cost + step < best.get(peer, float("inf")):
                best[peer] = cost + step
                back[peer] = (here, size)
                heapq.heappush(queue, (cost + step, peer, hops + 1))
    if dst not in best:
        return None
    path = [dst]
    total_bytes = 0
    while path[-1] != src:
        prev, size = back[path[-1]]
        total_bytes += size
        path.append(prev)
    path.reverse()
    return path, best[dst], total_bytes


def plan_cohorts(
    graph: VersionGraph,
    fleet_versions: Mapping[int, int],
    target: Optional[int] = None,
    *,
    loss: float = 0.0,
    mean_degree: float = 4.0,
    power: PowerModel = MICA2,
) -> Tuple[CohortPlan, ...]:
    """Choose the cheapest plan for every stale cohort in the fleet.

    ``fleet_versions`` maps node ids to their advertised versions
    (node 0, the sink, is assumed current and ignored); ``target``
    defaults to the graph's newest version.  ``loss`` is the
    planning-time per-link loss the cost model inflates air time by;
    the campaign's actual loss is set where it runs.  Returns one
    frozen :class:`repro.config.CohortPlan` per distinct stale
    version, ordered by version.  Nodes already at the target need no
    plan; nodes advertising a version the graph does not know raise —
    an unknown image cannot be diffed against.
    """
    if not 0.0 <= loss < 1.0:
        raise PlanStateError("plan", f"loss must be in [0, 1), got {loss}")
    goal = target if target is not None else graph.target
    if goal not in graph.programs:
        raise PlanStateError(
            "plan", f"target v{goal} is not in the version graph"
        )
    cohorts: Dict[int, List[int]] = {}
    for node, version in fleet_versions.items():
        if node == 0 or version == goal:
            continue
        if version not in graph.programs:
            raise PlanStateError(
                "plan",
                f"node {node} advertises v{version}, which is not in "
                f"the version graph",
            )
        if version > goal:
            raise PlanStateError(
                "plan",
                f"node {node} is ahead of the target "
                f"(v{version} > v{goal})",
            )
        cohorts.setdefault(version, []).append(node)

    node_count = len(fleet_versions)
    plans: List[CohortPlan] = []
    with trace.span(
        "versioning.plan",
        cohorts=len(cohorts),
        target=goal,
        nodes=node_count,
    ):
        for version in sorted(cohorts):
            nodes = tuple(sorted(cohorts[version]))
            candidates: List[Tuple[float, str, Tuple[int, ...], int]] = []

            chain = _cheapest_chain(
                graph, version, goal,
                node_count=node_count, mean_degree=mean_degree, loss=loss,
                power=power,
            )
            if chain is not None:
                path, energy, size = chain
                strategy = "chain" if len(path) > 2 else "merged"
                candidates.append((energy, strategy, tuple(path), size))

            merged = graph.merged_edge(version, goal)
            merged_energy = predicted_wave_energy_j(
                merged.script_bytes,
                node_count=node_count, mean_degree=mean_degree,
                loss=loss, power=power,
            )
            candidates.append(
                (merged_energy, "merged", (version, goal), merged.script_bytes)
            )

            full = graph.full_edge(version, goal)
            full_energy = predicted_wave_energy_j(
                full.script_bytes,
                node_count=node_count, mean_degree=mean_degree,
                loss=loss, power=power,
            )
            candidates.append(
                (full_energy, "full", (version, goal), full.script_bytes)
            )

            energy, strategy, path, size = min(
                candidates, key=lambda entry: (entry[0], len(entry[2]))
            )
            plans.append(
                CohortPlan(
                    from_version=version,
                    to_version=goal,
                    nodes=nodes,
                    strategy=strategy,
                    path=path,
                    script_bytes=size,
                    predicted_energy_j=energy,
                )
            )
    metrics.counter("versioning.plans").inc(len(plans))
    return tuple(plans)


def plan_edges(graph: VersionGraph, plan: CohortPlan):
    """Materialise the edges a :class:`CohortPlan` traverses."""
    if plan.strategy == "full":
        return [graph.full_edge(plan.from_version, plan.to_version)]
    if plan.strategy == "merged":
        return [graph.merged_edge(plan.from_version, plan.to_version)]
    edges = []
    for a, b in zip(plan.path, plan.path[1:]):
        edge = graph.edge(a, b)
        if edge is None:
            edge = graph.merged_edge(a, b)
        edges.append(edge)
    return edges


__all__ = [
    "MAX_CHAIN",
    "plan_cohorts",
    "plan_edges",
    "predicted_wave_energy_j",
]
