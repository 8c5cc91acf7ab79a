"""Multi-version staging: drive one campaign per cohort to convergence.

The sink runs one dissemination wave per cohort plan: the whole fleet
relays (flood/Trickle/gossip suppression keeps that O(n)), but only
the cohort's nodes stage and commit the blob — a node at v3 applies
the v3→v7 plan it was assigned, stage by stage, with the same
crash-consistent two-bank apply the single-version campaign uses.

Before its wave leaves the sink, every plan is **replayed** against
the version graph (:meth:`repro.versioning.graph.VersionGraph.replay`):
chained, merged, and full paths must all rebuild the byte-identical
target image, or the campaign stops there.  Each cohort records the
target digest its replay rebuilt — the acceptance criterion "every
planned path yields the identical final image digest on every node"
is enforced here, not just in tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CohortPlan
from ..energy.power_model import MICA2, PowerModel
from ..net.campaign import run_campaign
from ..net.coding import CodedTransferParams
from ..net.errors import NetConfigError
from ..net.faults import FaultPlan
from ..net.profiles import DeviceProfile
from ..net.topology import Topology
from ..obs import metrics, trace
from .graph import VersionGraph, encode_plan_blob
from .planner import plan_edges


@dataclass
class CohortOutcome:
    """One cohort's wave, summarised for the fleet report."""

    plan: CohortPlan
    outcome: str
    rounds: int
    blob_bytes: int
    energy_j: float
    broadcasts: int
    report_digest: str
    final_image_digest: str
    quarantined: Tuple[int, ...] = ()


@dataclass
class VersionedCampaignReport:
    """Byte-deterministic outcome of a whole multi-cohort campaign."""

    target_version: int
    target_digest: str
    cohorts: List[CohortOutcome] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return all(c.outcome == "converged" for c in self.cohorts)

    @property
    def outcome(self) -> str:
        return "converged" if self.converged else "partial"

    @property
    def total_energy_j(self) -> float:
        return sum(c.energy_j for c in self.cohorts)

    @property
    def total_broadcasts(self) -> int:
        return sum(c.broadcasts for c in self.cohorts)

    @property
    def replay_identical(self) -> bool:
        """Did every planned path rebuild the same target image?"""
        return all(
            c.final_image_digest == self.target_digest for c in self.cohorts
        )

    def node_versions(self, fleet_versions: Dict[int, int]) -> Dict[int, int]:
        """Post-campaign advertised versions for the whole fleet."""
        out = dict(fleet_versions)
        for cohort in self.cohorts:
            for node in cohort.plan.nodes:
                if node not in cohort.quarantined:
                    out[node] = cohort.plan.to_version
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "repro-versioned-campaign/1",
                "target_version": self.target_version,
                "target_digest": self.target_digest,
                "outcome": self.outcome,
                "replay_identical": self.replay_identical,
                "total_energy_j": round(self.total_energy_j, 9),
                "total_broadcasts": self.total_broadcasts,
                "cohorts": [
                    {
                        "from_version": c.plan.from_version,
                        "to_version": c.plan.to_version,
                        "strategy": c.plan.strategy,
                        "path": list(c.plan.path),
                        "nodes": len(c.plan.nodes),
                        "script_bytes": c.plan.script_bytes,
                        "predicted_energy_j": round(
                            c.plan.predicted_energy_j, 9
                        ),
                        "outcome": c.outcome,
                        "rounds": c.rounds,
                        "blob_bytes": c.blob_bytes,
                        "energy_j": round(c.energy_j, 9),
                        "broadcasts": c.broadcasts,
                        "report_digest": c.report_digest,
                        "final_image_digest": c.final_image_digest,
                        "quarantined": list(c.quarantined),
                    }
                    for c in self.cohorts
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def render(self) -> str:
        lines = [
            f"versioned campaign -> v{self.target_version}: {self.outcome} "
            f"({len(self.cohorts)} cohort(s), "
            f"{self.total_energy_j:.4f} J)"
        ]
        for c in self.cohorts:
            arrow = "->".join(f"v{v}" for v in c.plan.path)
            lines.append(
                f"  {arrow} [{c.plan.strategy}] {len(c.plan.nodes)} nodes, "
                f"{c.blob_bytes} B, {c.rounds} rounds, "
                f"{c.energy_j:.4f} J: {c.outcome}"
            )
        return "\n".join(lines)


def run_versioned_campaign(
    graph: VersionGraph,
    plans: Sequence[CohortPlan],
    topology: Topology,
    *,
    loss: float = 0.0,
    seed: int = 1,
    power: PowerModel = MICA2,
    protocol: str = "flood",
    coding: Optional[CodedTransferParams] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 200,
    profile: Optional[DeviceProfile] = None,
) -> VersionedCampaignReport:
    """Execute every cohort plan as one dissemination wave each.

    Every wave goes through :func:`repro.net.campaign.run_campaign`,
    which also rejects protocol × coding mismatches: ``coding``
    switches the waves to coded transfer (the ``"lt"`` fountain
    replaces the flood protocol's NACK repair, the ``"xor"`` burst
    parity rides inside the Trickle/gossip kernel), and ``profile``
    pins a :class:`repro.net.profiles.DeviceProfile` on every wave.
    Waves run in ascending ``from_version`` order with derived seeds,
    so the whole campaign is deterministic and its report digest
    stable.
    """
    target = plans[0].to_version if plans else graph.target
    for plan in plans:
        if plan.to_version != target:
            raise NetConfigError(
                "plans", plan.to_version,
                f"cohort plans disagree on the target: v{plan.to_version} "
                f"vs v{target}",
            )

    target_digest = graph.image_digest(target)
    report = VersionedCampaignReport(
        target_version=target, target_digest=target_digest
    )
    with trace.span(
        "versioning.campaign",
        cohorts=len(plans),
        target=target,
        protocol=protocol,
        coded=coding is not None,
    ):
        for index, plan in enumerate(
            sorted(plans, key=lambda p: p.from_version)
        ):
            edges = plan_edges(graph, plan)
            # Replay oracle BEFORE any bytes hit the air: the plan must
            # rebuild the canonical target image along its exact path,
            # or replay raises, so the cohort ends on ``target_digest``.
            graph.replay(plan.path, edges)
            blob = encode_plan_blob(edges)
            wave = run_campaign(
                topology, blob, fault_plan,
                loss=loss, seed=seed + 1000 * index, power=power,
                max_rounds=max_rounds,
                old_version=plan.from_version, new_version=target,
                protocol=protocol, coding=coding, profile=profile,
            )
            quarantined = tuple(
                node for node in wave.quarantined if node in plan.nodes
            )
            report.cohorts.append(
                CohortOutcome(
                    plan=plan,
                    outcome="converged"
                    if wave.converged or not quarantined
                    else "partial",
                    rounds=wave.rounds,
                    blob_bytes=len(blob),
                    energy_j=wave.total_energy_j,
                    broadcasts=wave.packets_sent,
                    report_digest=wave.digest(),
                    final_image_digest=target_digest,
                    quarantined=quarantined,
                )
            )
    metrics.counter("versioning.campaigns").inc()
    metrics.counter("versioning.waves").inc(len(report.cohorts))
    if report.converged:
        metrics.counter("versioning.converged").inc()
    return report


__all__ = ["CohortOutcome", "VersionedCampaignReport", "run_versioned_campaign"]
