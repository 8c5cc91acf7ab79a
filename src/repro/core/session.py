"""End-to-end update session: sink compile → network → sensor patch.

Ties the whole reproduction together (paper Figures 1 and 2):

1. the sink recompiles the modified source update-consciously,
2. the edit script is packetised and flooded through a topology,
3. every sensor interprets the script against its resident image,
4. the reconstructed binary is verified and can be executed in the
   node simulator.

Returns joule-level energy figures from the Mica2 power model alongside
the normalised compiler-side metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..config import UpdateConfig
from ..diff.patcher import patched_words
from ..energy.power_model import MICA2, PowerModel
from ..net.campaign import run_campaign
from ..net.fleet_base import FleetReport
from ..net.dissemination import DisseminationResult, disseminate
from ..net.errors import DisseminationIncomplete
from ..net.faults import FaultPlan
from ..net.lossy import disseminate_lossy
from ..net.profiles import DeviceProfile
from ..net.topology import Topology, grid
from ..obs import trace
from .compiler import CompiledProgram
from .errors import EmptyFleetError, PatchDivergenceError, PlanStateError
from .update import UpdatePlanner, UpdateResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..config import CohortPlan
    from ..net.coding import CodedTransferParams
    from ..versioning import VersionedCampaignReport, VersionGraph


@dataclass
class SessionResult:
    """Outcome of one full OTA update campaign."""

    update: UpdateResult
    dissemination: DisseminationResult
    nodes_patched: int

    @property
    def network_energy_j(self) -> float:
        return self.dissemination.total_energy_j

    @property
    def per_node_energy_j(self) -> float:
        if self.nodes_patched == 0:
            raise EmptyFleetError(
                0,
                "per_node_energy_j is undefined for an empty fleet "
                "(nodes_patched == 0)",
            )
        return self.network_energy_j / self.nodes_patched


@dataclass
class CampaignResult:
    """Outcome of one fault-tolerant OTA campaign.

    Unlike :class:`SessionResult` this is never an exception path: an
    unconverged fleet comes back as ``report.outcome == "partial"``
    with the converged subset and the quarantined nodes enumerated.
    """

    update: UpdateResult
    report: FleetReport
    nodes_patched: int

    @property
    def converged(self) -> bool:
        return self.report.converged

    @property
    def network_energy_j(self) -> float:
        return self.report.total_energy_j


@dataclass
class VersionedCampaignResult:
    """Outcome of a multi-cohort, version-graph campaign.

    Returned by :meth:`UpdateSession.push_campaign` when the push
    spans several releases or a heterogeneous fleet.  Same contract as
    :class:`CampaignResult`: never an exception path; a partial fleet
    comes back with the stragglers quarantined per cohort.
    """

    graph: "VersionGraph"
    plans: "tuple[CohortPlan, ...]"
    report: "VersionedCampaignReport"
    nodes_patched: int

    @property
    def converged(self) -> bool:
        return self.report.converged

    @property
    def network_energy_j(self) -> float:
        return self.report.total_energy_j


class UpdateSession:
    """Drives OTA updates of one deployed program across a network."""

    def __init__(
        self,
        deployed: CompiledProgram,
        topology: Topology | None = None,
        power: PowerModel = MICA2,
        loss: float = 0.0,
        loss_seed: int = 1,
        config: UpdateConfig | None = None,
        version: int = 0,
    ):
        """``loss`` switches dissemination to the lossy NACK-repair
        model with that per-link drop probability.

        ``config`` carries the planning strategy and every planner knob
        (``k``, ``expected_runs``, ``space_threshold``) for each push;
        a push may pass its own.  ``version`` labels the deployed
        program (a fleet mid-history starts above 0).
        """
        if version < 0:
            raise PlanStateError(
                "session", f"version label must be >= 0, got {version}"
            )
        self.deployed = deployed
        self.topology = topology or grid(8, 8)
        if self.topology.node_count < 2:
            raise EmptyFleetError(
                self.topology.node_count,
                f"fleet has no sensor nodes to update: topology holds "
                f"{self.topology.node_count} node(s) and node 0 is the sink",
            )
        self.power = power
        self.loss = loss
        self.loss_seed = loss_seed
        self.config = config if config is not None else UpdateConfig()
        #: fleet-wide version counter advanced by successful pushes
        self.version = version
        #: compiled program of every version this session has deployed
        self.history: dict[int, CompiledProgram] = {version: deployed}

    def push_update(
        self, new_source: str, config: UpdateConfig | None = None
    ) -> SessionResult:
        """Compile, disseminate, and patch one update.

        Every sensor applies the script to its resident image; the
        reconstruction is checked word-for-word against the sink's new
        binary (any mismatch raises).  On success the session's deployed
        program advances to the new version, so successive calls model a
        long-lived maintenance campaign.

        Strategy and knobs come from ``config``, falling back to the
        session's config.
        """
        cfg = config if config is not None else self.config
        with trace.span(
            "session.push_update", ra=cfg.ra, da=cfg.da, loss=self.loss
        ):
            return self._push_update(new_source, cfg)

    def _push_update(self, new_source: str, cfg: UpdateConfig) -> SessionResult:
        update = UpdatePlanner(self.deployed, config=cfg).plan(new_source)

        if self.loss > 0.0:
            dissemination = disseminate_lossy(
                self.topology,
                update.packets,
                loss=self.loss,
                seed=self.loss_seed,
                power=self.power,
            )
            if not dissemination.complete:
                raise DisseminationIncomplete(
                    missing=dissemination.missing,
                    rounds=dissemination.rounds,
                    packets=dissemination.packets,
                )
        else:
            dissemination = disseminate(self.topology, update.packets, self.power)

        # Sensor-side reconstruction on every node (identical images, so
        # one verification covers all; we still count the nodes).
        rebuilt = patched_words(self.deployed.image, update.diff.script)
        if rebuilt != update.new.image.words():
            raise PatchDivergenceError(
                "session", "sensor-side patch diverged from sink binary"
            )
        nodes = self.topology.node_count - 1  # exclude the sink

        self.deployed = update.new
        self.version += 1
        self.history[self.version] = self.deployed
        return SessionResult(
            update=update, dissemination=dissemination, nodes_patched=nodes
        )

    def push_campaign(
        self,
        payloads: "Mapping[int, str]",
        plan: FaultPlan | None = None,
        config: UpdateConfig | None = None,
        max_rounds: int = 200,
        protocol: str = "flood",
        coding: "CodedTransferParams | None" = None,
        fleet_versions: "Mapping[int, int] | None" = None,
        profile: "DeviceProfile | None" = None,
    ) -> "CampaignResult | VersionedCampaignResult":
        """Drive one or more releases to fleet convergence under a
        fault plan.

        ``payloads`` maps version labels to program sources — the
        canonical shape since the version-graph planner landed.  One
        entry for the next version (``{session.version + 1: source}``)
        is the classic single-release campaign: the wire blob (code
        script + data script) is packetised with per-packet CRCs and
        disseminated through the campaign controller, and a
        :class:`CampaignResult` comes back.  Several entries, or a
        ``fleet_versions`` map placing cohorts at older versions, run
        the version-graph planner instead: the releases are compiled
        into a :class:`repro.versioning.VersionGraph`, each stale
        cohort gets its cheapest plan (chained diffs, merged diff, or
        full image), and a :class:`VersionedCampaignResult` comes
        back.

        Never raises for an unconverged fleet — inspect
        ``result.report.outcome``.  The session's deployed program
        (and version counter) advances only when the whole fleet
        converged, matching what the sink would consider the fleet
        baseline.

        ``protocol`` selects the dissemination machinery (``"flood"``,
        ``"trickle"``, or ``"gossip"`` — see
        :data:`repro.net.campaign.PROTOCOLS`); ``coding`` switches the
        waves to coded transfer (:class:`repro.net.coding
        .CodedTransferParams` — the ``"lt"`` fountain with flood, the
        ``"xor"`` burst parity with the kernel protocols);
        ``profile`` pins a :class:`repro.net.profiles.DeviceProfile`
        (radio draws, MTU fragmentation, airtime budget, capacitor
        brownout model) on every wave of the campaign.
        """
        releases = {int(v): source for v, source in payloads.items()}
        if not releases:
            raise PlanStateError(
                "push_campaign", "payloads mapping is empty — nothing to push"
            )
        for version in releases:
            if version <= self.version:
                raise PlanStateError(
                    "push_campaign",
                    f"release v{version} is not ahead of the deployed "
                    f"v{self.version}",
                )
        cfg = config if config is not None else self.config
        single = (
            len(releases) == 1
            and fleet_versions is None
            and next(iter(releases)) == self.version + 1
        )
        with trace.span(
            "session.push_campaign",
            ra=cfg.ra,
            da=cfg.da,
            loss=self.loss,
            target=max(releases),
            releases=len(releases),
            faults=(plan or FaultPlan()).describe(),
        ):
            if single:
                return self._push_single_campaign(
                    releases[self.version + 1], plan, cfg, max_rounds,
                    protocol, coding, profile,
                )
            return self._push_versioned_campaign(
                releases, plan, cfg, max_rounds, protocol, coding,
                fleet_versions, profile,
            )

    def _push_single_campaign(
        self,
        new_source: str,
        plan: FaultPlan | None,
        cfg: UpdateConfig,
        max_rounds: int,
        protocol: str,
        coding: "CodedTransferParams | None",
        profile: "DeviceProfile | None" = None,
    ) -> CampaignResult:
        update = UpdatePlanner(self.deployed, config=cfg).plan(new_source)

        # Sink-side check that the script reconstructs the new image
        # — the same verification each committed node's staged bank
        # has passed packet-by-packet before its boot-pointer flip.
        rebuilt = patched_words(self.deployed.image, update.diff.script)
        if rebuilt != update.new.image.words():
            raise PatchDivergenceError(
                "session", "sensor-side patch diverged from sink binary"
            )

        blob = (
            update.diff.script.to_bytes() + update.data_script.to_bytes()
        )
        report = run_campaign(
            self.topology,
            blob,
            plan,
            loss=self.loss,
            seed=self.loss_seed,
            power=self.power,
            max_rounds=max_rounds,
            payload_per_packet=update.packets.payload_per_packet,
            overhead_per_packet=update.packets.overhead_per_packet,
            old_version=self.version,
            new_version=self.version + 1,
            protocol=protocol,
            coding=coding,
            profile=profile,
        )
        if report.converged:
            self.deployed = update.new
            self.version += 1
            self.history[self.version] = self.deployed
        return CampaignResult(
            update=update,
            report=report,
            nodes_patched=len(report.converged_nodes),
        )

    def _push_versioned_campaign(
        self,
        releases: "dict[int, str]",
        plan: FaultPlan | None,
        cfg: UpdateConfig,
        max_rounds: int,
        protocol: str,
        coding: "CodedTransferParams | None",
        fleet_versions: "Mapping[int, int] | None",
        profile: "DeviceProfile | None",
    ) -> "VersionedCampaignResult":
        from ..versioning import (
            build_version_graph,
            plan_cohorts,
            run_versioned_campaign,
        )

        target = max(releases)
        fleet = (
            {int(n): int(v) for n, v in fleet_versions.items()}
            if fleet_versions is not None
            else {
                node: self.version
                for node in range(self.topology.node_count)
            }
        )
        fleet.setdefault(0, target)
        # Anchor the graph on every historical version the fleet still
        # advertises (plus the deployed baseline) so stragglers several
        # releases behind can be diffed against their canonical images.
        anchors = {self.version: self.deployed}
        for version in set(fleet.values()):
            if version < self.version and version in self.history:
                anchors[version] = self.history[version]
        graph = build_version_graph(
            releases,
            update_config=cfg,
            base=anchors,
        )
        plans = plan_cohorts(graph, fleet, target)
        report = run_versioned_campaign(
            graph,
            plans,
            self.topology,
            loss=self.loss,
            seed=self.loss_seed,
            power=self.power,
            protocol=protocol,
            coding=coding,
            fault_plan=plan,
            max_rounds=max_rounds,
            profile=profile,
        )
        patched = sum(
            len(c.plan.nodes) - len(c.quarantined) for c in report.cohorts
        )
        if report.converged:
            for version, program in graph.programs.items():
                if version > self.version:
                    self.history[version] = program
            self.deployed = graph.programs[target]
            self.version = target
        return VersionedCampaignResult(
            graph=graph,
            plans=plans,
            report=report,
            nodes_patched=patched,
        )
