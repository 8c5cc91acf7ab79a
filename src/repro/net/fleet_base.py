"""Fleet plumbing shared by the flood engine and the event-kernel fleet.

The flood campaign (``campaign._CampaignEngine``, with the LT fountain
on top) and :class:`~repro.net.fleet_sim.FleetSim` (Trickle, gossip)
keep apart only the five rules that move answers: the clock (rounds or
the kernel), the node model (``NodeUpdateState`` or the ``FleetNode``
bitmask), the airtime rule (a per-round cap or the ETSI off-time),
harvest timing (per round or continuous) and who pays to receive.
Everything else lives here once: :class:`FleetEngine` (the constructor
prologue, the fault-event log and the ``profile_stats`` block),
:class:`Capacitor` (the brownout model's charge and its debit rule) and
:class:`FleetReport` (the fields, canonical JSON and rendering every
report shares).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, fields
from typing import Optional

from ..energy.power_model import PowerModel
from ..obs import metrics
from .dissemination import PATCH_CYCLES_PER_BYTE, NodeLedger
from .errors import NetConfigError
from .faults import FaultPlan, LinkGate
from .node_state import packetise_blob
from .profiles import DeviceProfile, check_power_traces
from .topology import Topology


class Capacitor:
    """Per-node stored energy under an energy-limited profile.

    ``spent`` is the cumulative debit that scripted power traces fire
    on; ``harvest_w`` is each node's income (a trace may scale it).
    When the income is credited is the engine's rule.
    """

    def __init__(self, profile: DeviceProfile, plan: FaultPlan, node_count: int):
        self.storage_j = profile.storage_j
        self.restart_j = profile.restart_fraction * profile.storage_j
        self.stored = [profile.storage_j * profile.start_fraction] * node_count
        self.spent = [0.0] * node_count
        self.harvest_w = [profile.harvest_w] * node_count
        self.cuts: dict[int, tuple[float, ...]] = {}
        self.cut_pos: dict[int, int] = {}
        for trace_ in plan.power_traces:
            if trace_.node >= node_count:
                continue
            self.cuts[trace_.node] = trace_.brownout_at_j
            self.cut_pos[trace_.node] = 0
            self.harvest_w[trace_.node] = profile.harvest_w * trace_.harvest_scale

    def charge(self, node: int, joules: float) -> None:
        """Credit harvested energy, up to the capacity."""
        self.stored[node] = min(self.storage_j, self.stored[node] + joules)

    def debit(self, node: int, joules: float) -> bool:
        """Take ``joules``; False means the charge ran out or a scripted
        power trace fired, and the node must brown out."""
        self.spent[node] += joules
        self.stored[node] -= joules
        powered = True
        cuts = self.cuts.get(node)
        if cuts is not None:
            position = self.cut_pos[node]
            while position < len(cuts) and self.spent[node] >= cuts[position]:
                position += 1
                powered = False
            self.cut_pos[node] = position
        if self.stored[node] <= 0.0:
            self.stored[node] = 0.0
            powered = False
        return powered


class FleetEngine:
    """Prologue, fault-event log and profile block of one fleet run.

    Subclasses own the clock: :meth:`stamp` prefixes each fault-log
    line with it and :meth:`now_s` reads it in simulated seconds.
    """

    #: What a crash destroys on a node that has not committed yet.
    CRASH_LOSS = "staging bank lost"

    def __init__(
        self,
        topology: Topology,
        blob: bytes,
        plan: Optional[FaultPlan],
        *,
        loss: float,
        seed: int,
        power: PowerModel,
        payload_per_packet: int,
        overhead_per_packet: int,
        old_version: int,
        new_version: int,
        profile: Optional[DeviceProfile],
        stream: str,
    ):
        if not 0.0 <= loss < 1.0:
            raise NetConfigError(
                "loss", loss, f"loss probability {loss} out of [0, 1)"
            )
        plan = plan if plan is not None else FaultPlan()
        check_power_traces(plan, profile)
        self.topology = topology
        self.blob = blob
        self.plan = plan
        self.loss = loss
        self.power = power
        self.overhead_per_packet = overhead_per_packet
        self.old_version = old_version
        self.new_version = new_version
        # A neutral profile (MICA2) is dropped here so every profile
        # code path is gated on ``self.profile is not None`` and the
        # report stays byte-identical to a profile-less run.
        if profile is not None and profile.is_neutral:
            profile = None
        self.profile = profile
        if profile is not None:
            payload_per_packet = profile.effective_payload(payload_per_packet)
        self.payload_per_packet = payload_per_packet

        node_count = topology.node_count
        self.node_count = node_count
        self.packets = packetise_blob(blob, payload_per_packet)
        self.count = len(self.packets)
        self.patch_j = PATCH_CYCLES_PER_BYTE * len(blob) * power.cycle_energy_j
        # Derived string seeds (RNG001): deterministic across platforms.
        self.rng_link = random.Random(f"repro-{stream}-link:{seed}")
        self.rng_fault = random.Random(f"repro-{stream}-fault:{plan.seed}")
        hops = topology.hops_from_sink()
        self.unreachable = tuple(
            sorted(node for node in range(node_count) if node not in hops)
        )
        #: Non-sink nodes the sink reaches, ascending.
        self.reachable = tuple(node for node in range(1, node_count) if node in hops)
        self.link_gate = LinkGate(plan.partitions, node_count)

        self.pages_total = 0 if profile is None else profile.pages_for(len(blob))
        self.flash_page_j = 0.0 if profile is None else profile.flash_write_j_per_page
        self.capacitor = (
            Capacitor(profile, plan, node_count)
            if profile is not None and profile.is_energy_limited
            else None
        )
        self.fault_log: list[str] = []
        self.first_death_s: float | None = None
        self.network_death_s: float | None = None
        self._partition_open: set[int] = set()
        self.drops = 0
        self.crc_rejections = 0
        self.duplicates = 0

    def stamp(self) -> str:
        raise NotImplementedError

    def now_s(self) -> float:
        raise NotImplementedError

    # -- the fault-event log ---------------------------------------------

    def log_crash(self, node: int, committed: bool) -> None:
        metrics.counter("net.fault.crashes").inc()
        detail = "after commit" if committed else self.CRASH_LOSS
        self.fault_log.append(f"{self.stamp()}: node {node} crashed ({detail})")

    def log_reboot(self, node: int, committed: bool) -> None:
        metrics.counter("net.fault.reboots").inc()
        if committed:
            image, version = "new image", self.new_version
        else:
            image, version = "golden image", self.old_version
        self.fault_log.append(
            f"{self.stamp()}: node {node} rebooted ({image} v{version})"
        )

    def log_partition(self, index: int, opening: bool) -> None:
        """Partition window ``index`` opens or closes; a window already
        in that state logs nothing."""
        if opening == (index in self._partition_open):
            return
        island = ",".join(str(node) for node in self.plan.partitions[index].nodes)
        if opening:
            self._partition_open.add(index)
            metrics.counter("net.fault.partitions").inc()
            self.fault_log.append(f"{self.stamp()}: partition {{{island}}} isolated")
        else:
            self._partition_open.discard(index)
            self.fault_log.append(f"{self.stamp()}: partition {{{island}}} healed")

    def log_brownout(self, node: int, where: str, pages_done: int, nodes) -> None:
        """``node`` browned out (already marked dead in ``nodes``, the
        engine's per-node states); keeps the first- and network-death
        instants."""
        metrics.counter("net.profile.brownouts").inc()
        self.fault_log.append(
            f"{self.stamp()}: node {node} browned out during {where} "
            f"(checkpoint {pages_done}/{self.pages_total} pages)"
        )
        if self.first_death_s is None:
            self.first_death_s = self.now_s()
        if self.network_death_s is None and not any(
            nodes[peer].alive for peer in self.reachable
        ):
            self.network_death_s = self.now_s()

    def log_resume(self, node: int, pages_done: int) -> None:
        metrics.counter("net.profile.resumes").inc()
        self.fault_log.append(
            f"{self.stamp()}: node {node} resumed "
            f"(checkpoint {pages_done}/{self.pages_total} pages)"
        )

    # -- reporting -------------------------------------------------------

    def profile_stats(
        self, deferrals: int, violations: int, brownouts: list[int],
        resumed: list[int],
    ) -> dict:
        """The report's device-profile block; ``brownouts`` and
        ``resumed`` count per node, indexed by node id."""
        return {
            "name": self.profile.name,
            "airtime_budget": self.profile.airtime_budget,
            "airtime_deferrals": deferrals,
            "airtime_violations": violations,
            "brownouts": sum(brownouts),
            "resumed_applies": sum(resumed),
            "node_brownouts": {
                str(node): count for node, count in enumerate(brownouts) if count
            },
            "node_resumed_applies": {
                str(node): count for node, count in enumerate(resumed) if count
            },
            "pages_total": self.pages_total,
            "first_node_death_s": self.first_death_s,
            "network_death_s": self.network_death_s,
        }

    def report_fields(self) -> dict:
        """The :class:`FleetReport` fields every engine fills alike."""
        return dict(
            packets=self.count,
            script_bytes=len(self.blob),
            old_version=self.old_version,
            new_version=self.new_version,
            unreachable=self.unreachable,
            drops=self.drops,
            crc_rejections=self.crc_rejections,
            duplicates=self.duplicates,
            fault_log=self.fault_log,
            plan_digest=self.plan.digest(),
        )


@dataclass
class FleetReport:
    """Structured outcome of one fleet run, whichever engine ran it.

    Never an exception path: an unconverged fleet comes back
    ``"partial"`` with its stragglers quarantined.  Subclasses add
    their own counters and the head of :meth:`render`.
    """

    outcome: str  # "converged" | "partial" | "stalled-budget"
    rounds: int
    packets: int
    script_bytes: int
    old_version: int
    new_version: int
    node_versions: dict[int, int]
    quarantined: tuple[int, ...]
    unreachable: tuple[int, ...]
    ledgers: dict[int, NodeLedger]
    drops: int = 0
    crc_rejections: int = 0
    duplicates: int = 0
    fault_log: list[str] = field(default_factory=list)
    plan_digest: str = ""
    #: Device-profile outcome block (airtime deferrals, brownout/resume
    #: counts, lifetime metrics).  ``None`` for profile-less runs and for
    #: the neutral ``MICA2`` profile, which keeps their ``to_json``
    #: byte-identical to every report minted before profiles existed.
    profile_stats: dict | None = None

    #: The ledger fields :meth:`to_json` writes per node.
    LEDGER_KEYS = ("tx_j", "rx_j", "cpu_j", "packets_sent", "packets_received")

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    @property
    def converged_nodes(self) -> tuple[int, ...]:
        """Non-sink nodes running the new version at the end."""
        return tuple(
            node
            for node, version in sorted(self.node_versions.items())
            if node != 0 and version == self.new_version
        )

    @property
    def total_energy_j(self) -> float:
        return sum(ledger.total_j for ledger in self.ledgers.values())

    @property
    def packets_sent(self) -> int:
        """Data packets the fleet put on the air."""
        return sum(ledger.packets_sent for ledger in self.ledgers.values())

    def max_node_energy_j(self, exclude_sink: bool = True) -> float:
        """Energy at the hottest node (the lifetime limiter; the sink
        is mains-powered, so it is excluded by default)."""
        candidates = [
            ledger
            for node, ledger in self.ledgers.items()
            if not (exclude_sink and node == 0)
        ]
        return max(ledger.total_j for ledger in candidates)

    def to_json(self) -> str:
        """Canonical JSON of every field — byte-identical across runs
        with the same inputs (pinned by tests).  Per-node maps are keyed
        by the node's decimal string and the profile block by
        ``"profile"``."""
        payload = {item.name: getattr(self, item.name) for item in fields(self)}
        payload["node_versions"] = {
            str(node): version for node, version in self.node_versions.items()
        }
        payload["ledgers"] = {
            str(node): {key: getattr(ledger, key) for key in self.LEDGER_KEYS}
            for node, ledger in self.ledgers.items()
        }
        stats = payload.pop("profile_stats")
        if stats is not None:
            payload["profile"] = stats
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def _head(self) -> list[str]:
        """The engine-specific first lines of :meth:`render`."""
        raise NotImplementedError

    def render(self) -> str:
        """Human-readable summary."""
        lines = self._head()
        if self.profile_stats is not None:
            stats = self.profile_stats
            line = (
                f"profile  : {stats['name']} — "
                f"{stats['airtime_deferrals']} airtime deferrals "
                f"({stats['airtime_violations']} violations), "
                f"{stats['brownouts']} brownouts, "
                f"{stats['resumed_applies']} resumed applies"
            )
            if stats.get("first_node_death_s") is not None:
                line += f", first death {stats['first_node_death_s']:g}s"
            lines.append(line)
        if self.quarantined:
            nodes = ", ".join(str(node) for node in self.quarantined)
            lines.append(f"quarantined: {nodes}")
        if self.fault_log:
            lines.append("fault log:")
            lines.extend(f"  {entry}" for entry in self.fault_log)
        return "\n".join(lines)


__all__ = ["Capacitor", "FleetEngine", "FleetReport"]
