"""Campaign controller: drive an OTA update to fleet convergence under faults.

Where :func:`repro.net.lossy.disseminate_lossy` models exactly one
failure mode (independent packet loss), a *campaign* drives the real
thing: per-node :class:`~repro.net.node_state.NodeUpdateState` machines
assembling the actual script bytes into CRC-verified staging banks,
crash/reboot/partition/corruption/duplicate faults injected from a
deterministic :class:`~repro.net.faults.FaultPlan`, exponential NACK
backoff, and bounded retry rounds.  The controller never raises for an
unconverged fleet — it returns a structured
:class:`CampaignReport` with the converged subset, the quarantined
nodes, per-node final versions, joule ledgers (retransmission and
aborted-write overhead included), and the fault log.

Determinism: identical ``(topology, blob, plan, seed)`` inputs produce
a byte-identical report (``CampaignReport.to_json``), which is what
the fuzz layer's replay guarantee and the regression tests pin.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD
from ..energy.power_model import MICA2, PowerModel
from ..obs import metrics, trace
from .dissemination import PATCH_CYCLES_PER_BYTE, NodeLedger
from .errors import NetConfigError
from .faults import FaultPlan, LinkGate
from .lossy import NACK_BYTES
from .node_state import APPLY_ROUNDS, NodeUpdateState, packetise_blob
from .profiles import DeviceProfile, check_power_traces
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .coding import CodedTransferParams

#: Rounds without any fleet progress (and no scheduled fault event
#: still to come) after which the controller stops retrying and
#: quarantines the stragglers.
DEFAULT_STALL_LIMIT = 24


@dataclass
class CampaignReport:
    """Structured outcome of one update campaign."""

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
    broadcasts: int = 0
    retransmissions: int = 0
    nacks: int = 0
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

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    @property
    def converged_nodes(self) -> tuple[int, ...]:
        """Non-sink nodes running the new version at campaign end."""
        return tuple(
            node
            for node, version in sorted(self.node_versions.items())
            if node != 0 and version == self.new_version
        )

    @property
    def total_energy_j(self) -> float:
        return sum(ledger.total_j for ledger in self.ledgers.values())

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
        """Canonical JSON rendering — byte-identical across runs with
        the same seed and fault plan (pinned by tests)."""
        payload = {
            "outcome": self.outcome,
            "rounds": self.rounds,
            "packets": self.packets,
            "script_bytes": self.script_bytes,
            "old_version": self.old_version,
            "new_version": self.new_version,
            "node_versions": {
                str(node): version
                for node, version in sorted(self.node_versions.items())
            },
            "quarantined": list(self.quarantined),
            "unreachable": list(self.unreachable),
            "broadcasts": self.broadcasts,
            "retransmissions": self.retransmissions,
            "nacks": self.nacks,
            "drops": self.drops,
            "crc_rejections": self.crc_rejections,
            "duplicates": self.duplicates,
            "fault_log": list(self.fault_log),
            "plan_digest": self.plan_digest,
            "ledgers": {
                str(node): {
                    "tx_j": ledger.tx_j,
                    "rx_j": ledger.rx_j,
                    "cpu_j": ledger.cpu_j,
                    "packets_sent": ledger.packets_sent,
                    "packets_received": ledger.packets_received,
                }
                for node, ledger in sorted(self.ledgers.items())
            },
        }
        if self.profile_stats is not None:
            payload["profile"] = self.profile_stats
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def render(self) -> str:
        """Human-readable summary."""
        fleet = len(self.node_versions) - 1  # exclude the sink
        lines = [
            f"campaign : {self.outcome} after {self.rounds} rounds "
            f"({len(self.converged_nodes)}/{fleet} nodes on v{self.new_version})",
            f"script   : {self.script_bytes} B in {self.packets} packets",
            f"radio    : {self.broadcasts} broadcasts "
            f"({self.retransmissions} retransmissions), {self.nacks} NACKs, "
            f"{self.drops} drops, {self.crc_rejections} CRC rejections, "
            f"{self.duplicates} duplicates",
            f"energy   : {self.total_energy_j * 1e3:.2f} mJ network total, "
            f"hottest node {self.max_node_energy_j() * 1e6:.1f} uJ",
        ]
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


#: Seconds of simulated time one campaign round occupies (fault-plan
#: rounds map to kernel time at this rate for the trickle/gossip
#: protocols).
ROUND_S = 1.0

#: Dissemination protocols :func:`run_campaign` can drive.
PROTOCOLS = ("flood", "trickle", "gossip")


def run_campaign(
    topology: Topology,
    blob: bytes,
    plan: FaultPlan | None = None,
    *,
    loss: float = 0.0,
    seed: int = 1,
    power: PowerModel = MICA2,
    max_rounds: int = 200,
    payload_per_packet: int = DEFAULT_PAYLOAD,
    overhead_per_packet: int = DEFAULT_OVERHEAD,
    old_version: int = 0,
    new_version: int = 1,
    apply_rounds: int = APPLY_ROUNDS,
    stall_limit: int = DEFAULT_STALL_LIMIT,
    protocol: str = "flood",
    coding: "CodedTransferParams | None" = None,
    profile: DeviceProfile | None = None,
):
    """Disseminate ``blob`` to every reachable node under ``plan``.

    Never raises for an unconverged fleet: nodes the campaign cannot
    update within the budget (dead forever, partitioned past the stall
    limit, beyond ``max_rounds``) come back quarantined in a
    ``"partial"`` report.  Deterministic given ``(seed, plan)``.

    ``protocol`` selects the dissemination machinery: ``"flood"`` (the
    default) is the synchronous NACK-repair flood returning a
    :class:`CampaignReport`; ``"trickle"`` and ``"gossip"`` run the
    event-kernel protocols (:func:`repro.net.trickle.run_trickle`,
    :func:`repro.net.gossip.run_gossip`) with a time budget of
    ``max_rounds * ROUND_S`` seconds and return a
    :class:`~repro.net.kernel.KernelReport` (same consumer surface:
    ``converged`` / ``outcome`` / ``render`` / ``digest``).

    ``profile`` applies a :class:`~repro.net.profiles.DeviceProfile`:
    its power model replaces ``power``, payloads are fragmented to its
    MTU, airtime budgets are enforced (a node out of budget defers TX to
    its next legal slot — never violates), and energy-limited profiles
    get the capacitor brownout model with page-granular checkpointed
    apply.  The neutral ``MICA2`` profile (or ``None``) leaves every
    byte of the report identical to a profile-less run.  An
    airtime-starved fleet that stops short of convergence comes back as
    ``outcome="stalled-budget"`` with the still-pending nodes listed in
    ``profile_stats["stalled_pending"]`` — resume by re-running with a
    larger ``max_rounds``.
    """
    if not 0.0 <= loss < 1.0:
        raise NetConfigError(
            "loss", loss, f"loss probability {loss} out of [0, 1)"
        )
    if protocol not in PROTOCOLS:
        raise NetConfigError(
            "protocol", protocol,
            f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}",
        )
    plan = plan if plan is not None else FaultPlan()
    if profile is not None:
        power = profile.power
    if coding is not None and coding.scheme == "lt":
        if profile is not None and not profile.is_neutral:
            raise NetConfigError(
                "coding", coding.scheme,
                "the 'lt' fountain path does not model device-profile "
                "constraints; use the flood/trickle/gossip protocols",
            )
        if protocol != "flood":
            raise NetConfigError(
                "coding", coding.scheme,
                "the 'lt' fountain replaces the flood protocol's NACK "
                "repair; use scheme='xor' with trickle/gossip",
            )
        from .coding import run_coded_campaign

        return run_coded_campaign(
            topology,
            blob,
            plan,
            params=coding,
            loss=loss,
            seed=seed,
            power=power,
            max_rounds=max_rounds,
            payload_per_packet=payload_per_packet,
            overhead_per_packet=overhead_per_packet,
            old_version=old_version,
            new_version=new_version,
            stall_limit=stall_limit,
        )
    if protocol != "flood":
        from .gossip import run_gossip
        from .trickle import run_trickle

        runner = run_trickle if protocol == "trickle" else run_gossip
        return runner(
            topology,
            blob,
            plan,
            loss=loss,
            seed=seed,
            power=power,
            max_time=max_rounds * ROUND_S,
            payload_per_packet=payload_per_packet,
            overhead_per_packet=overhead_per_packet,
            old_version=old_version,
            new_version=new_version,
            round_s=ROUND_S,
            coding=coding,
            profile=profile,
        )
    if coding is not None:
        raise NetConfigError(
            "coding", coding.scheme,
            "the 'xor' burst-parity scheme rides the trickle/gossip "
            "kernel; the flood protocol takes the 'lt' fountain",
        )
    with trace.span(
        "campaign.run",
        nodes=topology.node_count,
        bytes=len(blob),
        loss=loss,
        faults=plan.describe(),
    ):
        report = _CampaignEngine(
            topology,
            blob,
            plan,
            loss=loss,
            seed=seed,
            power=power,
            max_rounds=max_rounds,
            payload_per_packet=payload_per_packet,
            overhead_per_packet=overhead_per_packet,
            old_version=old_version,
            new_version=new_version,
            apply_rounds=apply_rounds,
            stall_limit=stall_limit,
            profile=profile,
        ).run()
    metrics.counter("campaign.runs").inc()
    metrics.histogram("campaign.rounds").observe(report.rounds)
    metrics.counter("campaign.broadcasts").inc(report.broadcasts)
    metrics.counter("campaign.retransmissions").inc(report.retransmissions)
    metrics.counter("campaign.nacks").inc(report.nacks)
    metrics.counter("campaign.drops").inc(report.drops)
    metrics.counter("campaign.energy_j").inc(report.total_energy_j)
    metrics.counter("net.fault.duplicates").inc(report.duplicates)
    if report.converged:
        metrics.counter("campaign.converged").inc()
    else:
        metrics.counter("campaign.partial").inc()
        metrics.counter("campaign.quarantined_nodes").inc(len(report.quarantined))
    if report.profile_stats is not None:
        stats = report.profile_stats
        metrics.counter("net.profile.airtime_deferrals").inc(
            stats["airtime_deferrals"]
        )
        metrics.counter("net.profile.airtime_violations").inc(
            stats["airtime_violations"]
        )
        if report.outcome == "stalled-budget":
            metrics.counter("net.profile.stalled_budget").inc()
    return report


class _CampaignEngine:
    """State, fault bookkeeping and round loop of one flood campaign.

    :meth:`run` is the only round loop: each round it checks termination
    (:meth:`advance_round`), fires the round's fault-plan entries
    (:meth:`apply_faults`), then runs the round body
    (:meth:`run_phases`: NACK, broadcast and apply phases).  A transfer
    mode replaces only the round body and the two class constants
    below; the LT fountain (:mod:`repro.net.coding`) is one, so crash,
    reboot and partition handling, the stall rule and the report exist
    once.  Reports are pinned by ``tests/golden/campaign_digests.json``.
    """

    #: Stream name of the link and fault RNGs
    #: (``repro-<stream>-link:<seed>``, ``repro-<stream>-fault:<plan seed>``).
    RNG_STREAM = "campaign"
    #: What a crash destroys on a node that has not committed yet.
    CRASH_LOSS = "staging bank lost"

    def __init__(
        self,
        topology: Topology,
        blob: bytes,
        plan: FaultPlan,
        *,
        loss: float,
        seed: int,
        power: PowerModel,
        max_rounds: int,
        payload_per_packet: int,
        overhead_per_packet: int,
        old_version: int,
        new_version: int,
        apply_rounds: int,
        stall_limit: int,
        profile: DeviceProfile | None = None,
    ):
        check_power_traces(plan, profile)
        self.topology = topology
        self.blob = blob
        self.plan = plan
        self.loss = loss
        self.power = power
        self.max_rounds = max_rounds
        self.overhead_per_packet = overhead_per_packet
        self.old_version = old_version
        self.new_version = new_version
        self.apply_rounds = apply_rounds
        self.stall_limit = stall_limit
        # A neutral profile (MICA2) is dropped here so every profile
        # code path below is gated on ``self.profile is not None`` and
        # the report stays byte-identical to a profile-less run.
        self.profile = (
            profile if profile is not None and not profile.is_neutral else None
        )
        if self.profile is not None:
            payload_per_packet = self.profile.effective_payload(
                payload_per_packet
            )

        node_count = topology.node_count
        self.node_count = node_count
        self.packets = packetise_blob(blob, payload_per_packet)
        self.count = len(self.packets)
        self.blob_crc = zlib.crc32(blob) & 0xFFFFFFFF
        self.nack_bits = 8 * NACK_BYTES
        self.patch_j = PATCH_CYCLES_PER_BYTE * len(blob) * power.cycle_energy_j

        # String seeding: deterministic across platforms (see fuzz.runner).
        self.rng_link = random.Random(f"repro-{self.RNG_STREAM}-link:{seed}")
        self.rng_fault = random.Random(f"repro-{self.RNG_STREAM}-fault:{plan.seed}")

        hops = topology.hops_from_sink()
        self.unreachable = tuple(
            sorted(node for node in range(node_count) if node not in hops)
        )

        self.states = {
            node: NodeUpdateState(
                node=node, version=old_version, apply_rounds=apply_rounds
            )
            for node in range(node_count)
        }
        sink = self.states[0]
        sink.commit(new_version)
        sink.bank = {pkt.index: pkt.payload for pkt in self.packets}

        if self.count == 0:
            # Nothing to ship: every reachable node trivially holds the
            # (empty) script and commits at once.
            for node in range(1, node_count):
                if node not in self.unreachable:
                    self.states[node].commit(new_version)

        self.ledgers = {node: NodeLedger() for node in range(node_count)}
        self.crashes_by_round: dict[int, list] = {}
        self.reboots_by_round: dict[int, list] = {}
        self.event_rounds: set[int] = set()
        for crash in plan.crashes:
            if crash.node >= node_count:
                continue
            self.crashes_by_round.setdefault(crash.round, []).append(crash)
            if crash.round <= max_rounds:
                self.event_rounds.add(crash.round)
            if crash.reboot_round is not None:
                self.reboots_by_round.setdefault(
                    crash.reboot_round, []
                ).append(crash)
                if crash.reboot_round <= max_rounds:
                    self.event_rounds.add(crash.reboot_round)
        for window in plan.partitions:
            # Events past the round budget can never fire; keeping them
            # out of the stall bookkeeping lets a hopeless run stop early.
            if window.start <= max_rounds:
                self.event_rounds.add(window.start)
            if window.end <= max_rounds:
                self.event_rounds.add(window.end)

        self.fault_log: list[str] = []
        self.broadcasts = 0
        self.nacks = 0
        self.drops = 0
        self.duplicates = 0
        self.crc_rejections = 0
        self.tx_counts: dict[tuple[int, int], int] = {}
        self.rounds = 0
        self.last_progress = 0
        self.round_progress: dict[int, bool] = {}
        self.partition_open: set[int] = set()
        self.link_gate = LinkGate(plan.partitions, node_count)

        # -- device-profile state (all inert without an active profile) --
        # Airtime: cumulative on-air seconds per node against a cap that
        # grows by ``ROUND_S * budget`` every round, so the long-run duty
        # cycle can never exceed the regulatory budget.
        self.air_budget = (
            self.profile.airtime_budget
            if self.profile is not None and self.profile.is_airtime_limited
            else None
        )
        self.air_s = [0.0] * node_count
        self.airtime_deferrals = 0
        self.airtime_violations = 0
        self.last_budget_block = -1
        # Capacitor charge model: per-node stored energy, cumulative
        # spend (what scripted power traces trigger on), and the set of
        # browned-out nodes waiting on a recharge.
        self.pages_total = 0
        self.flash_page_j = 0.0
        self.stored: list[float] | None = None
        self.browned: set[int] = set()
        self.first_death_round: int | None = None
        self.network_death_round: int | None = None
        if self.profile is not None and self.profile.is_paged:
            self.pages_total = self.profile.pages_for(len(blob))
            self.flash_page_j = self.profile.flash_write_j_per_page
        if self.profile is not None and self.profile.is_energy_limited:
            prof = self.profile
            self.storage_j = prof.storage_j
            self.restart_j = prof.restart_fraction * prof.storage_j
            self.stored = [prof.storage_j * prof.start_fraction] * node_count
            self.spent = [0.0] * node_count
            self.harvest_round_j = [prof.harvest_w * ROUND_S] * node_count
            self.trace_cuts: dict[int, tuple[float, ...]] = {}
            self.trace_pos: dict[int, int] = {}
            for trace_ in plan.power_traces:
                if trace_.node >= node_count:
                    continue
                self.trace_cuts[trace_.node] = trace_.brownout_at_j
                self.trace_pos[trace_.node] = 0
                self.harvest_round_j[trace_.node] = (
                    prof.harvest_w * ROUND_S * trace_.harvest_scale
                )

    # -- the round loop --------------------------------------------------

    def run(self) -> CampaignReport:
        """Run rounds until the campaign is done, then report."""
        while self.rounds < self.max_rounds and self.advance_round():
            self.apply_faults()
            self.run_phases()
        metrics.counter("net.fault.corruptions").inc(self.crc_rejections)
        return self.build_report()

    # -- predicates ------------------------------------------------------

    def can_recover(self, node: int) -> bool:
        """Will a browned-out node ever recharge to its restart level?"""
        if self.stored is None or node not in self.browned:
            return False
        return (
            self.harvest_round_j[node] > 0.0
            or self.stored[node] >= self.restart_j
        )

    def pending_nodes(self) -> list[int]:
        """Reachable nodes not yet committed that can still recover."""
        out = []
        for node in range(1, self.node_count):
            if node in self.unreachable or self.states[node].committed:
                continue
            if self.states[node].alive:
                out.append(node)
            elif self.can_recover(node):
                out.append(node)
            elif any(
                crash.node == node and crash.reboot_round is not None
                and crash.reboot_round > self.rounds
                for crash in self.plan.crashes
            ):
                out.append(node)
        return out

    def advance_round(self) -> bool:
        """The round tick: termination checks, then the round counter.

        Returns ``False`` (without advancing) when the campaign is done
        — fleet converged, or stalled with no scheduled fault event
        still to come (bounded retry: such a fleet will never make
        progress, so stop burning rounds).  Two profile-driven waits
        count as scheduled events: an airtime budget that blocked a
        transmission since the last progress (the cap grows every
        round, so the deferred TX has a legal slot coming), and a
        browned-out node still recharging toward its restart level.
        """
        if not self.pending_nodes():
            return False
        if self.rounds - self.last_progress >= self.stall_limit and not any(
            event > self.rounds for event in self.event_rounds
        ):
            waiting_budget = (
                self.air_budget is not None
                and self.last_budget_block >= self.last_progress
            )
            waiting_power = any(
                self.can_recover(node) for node in self.browned
            )
            if not waiting_budget and not waiting_power:
                return False
        self.rounds += 1
        self.round_progress = {}
        return True

    # -- device-profile machinery ---------------------------------------

    def tx_allowed(self, node: int, airtime_s: float) -> bool:
        """May ``node`` put ``airtime_s`` seconds on the air this round
        without busting its cumulative duty-cycle cap?"""
        if self.air_budget is None:
            return True
        cap = self.rounds * ROUND_S * self.air_budget
        return self.air_s[node] + airtime_s <= cap + 1e-12

    def note_tx_airtime(self, node: int, airtime_s: float) -> None:
        self.air_s[node] += airtime_s
        if self.air_budget is None:
            return
        cap = self.rounds * ROUND_S * self.air_budget
        if self.air_s[node] > cap + 1e-9:  # unreachable by construction
            self.airtime_violations += 1
            metrics.counter("net.profile.airtime_violations").inc()

    def defer_tx(self, node: int, packets: int = 1) -> None:
        """Budget exhausted: the node stays silent and retries in a
        later round once the cap has grown — never a violation."""
        self.airtime_deferrals += packets
        self.last_budget_block = self.rounds
        metrics.counter("net.profile.airtime_deferrals").inc(packets)

    def spend(self, node: int, joules: float) -> bool:
        """Debit the node's capacitor; False means the energy ran out
        (or a scripted power trace fired) and the node must brown out."""
        if self.stored is None or node == 0:
            return True
        self.spent[node] += joules
        self.stored[node] -= joules
        powered = True
        cuts = self.trace_cuts.get(node)
        if cuts is not None:
            position = self.trace_pos[node]
            while position < len(cuts) and self.spent[node] >= cuts[position]:
                position += 1
                powered = False
            self.trace_pos[node] = position
        if self.stored[node] <= 0.0:
            self.stored[node] = 0.0
            powered = False
        return powered

    def fire_brownout(self, node: int, where: str) -> None:
        """Power loss mid-operation: volatile staging state is gone, the
        nonvolatile page checkpoint and the committed bank survive."""
        state = self.states[node]
        state.brownout()
        self.browned.add(node)
        metrics.counter("net.profile.brownouts").inc()
        self.fault_log.append(
            f"r{self.rounds}: node {node} browned out during {where} "
            f"(checkpoint {state.pages_done}/{self.pages_total} pages)"
        )
        if self.first_death_round is None:
            self.first_death_round = self.rounds
        if self.network_death_round is None and all(
            not self.states[peer].alive
            for peer in range(1, self.node_count)
            if peer not in self.unreachable
        ):
            self.network_death_round = self.rounds

    def power_round(self) -> None:
        """Harvest income and recharge-driven resumes, at round start."""
        if self.stored is None:
            return
        for node in range(1, self.node_count):
            if node in self.unreachable:
                continue
            self.stored[node] = min(
                self.storage_j, self.stored[node] + self.harvest_round_j[node]
            )
            if node in self.browned and self.stored[node] >= self.restart_j:
                self.browned.discard(node)
                state = self.states[node]
                state.resume(self.rounds)
                metrics.counter("net.profile.resumes").inc()
                self.fault_log.append(
                    f"r{self.rounds}: node {node} resumed "
                    f"(checkpoint {state.pages_done}/{self.pages_total} pages)"
                )
                self.last_progress = self.rounds

    # -- fault events ----------------------------------------------------

    def fire_crash(self, crash) -> None:
        self.states[crash.node].crash()
        metrics.counter("net.fault.crashes").inc()
        detail = (
            "after commit" if self.states[crash.node].committed else self.CRASH_LOSS
        )
        self.fault_log.append(
            f"r{self.rounds}: node {crash.node} crashed ({detail})"
        )

    def fire_reboot(self, crash) -> None:
        state = self.states[crash.node]
        state.reboot(self.rounds)
        metrics.counter("net.fault.reboots").inc()
        image = "new image" if state.committed else "golden image"
        self.fault_log.append(
            f"r{self.rounds}: node {crash.node} rebooted "
            f"({image} v{state.version})"
        )

    def fire_partition(self, index: int, opening: bool) -> None:
        window = self.plan.partitions[index]
        island = ",".join(str(n) for n in window.nodes)
        if opening:
            if index in self.partition_open:
                return
            self.partition_open.add(index)
            metrics.counter("net.fault.partitions").inc()
            self.fault_log.append(
                f"r{self.rounds}: partition {{{island}}} isolated"
            )
        else:
            if index not in self.partition_open:
                return
            self.partition_open.discard(index)
            self.fault_log.append(
                f"r{self.rounds}: partition {{{island}}} healed"
            )

    def apply_faults(self) -> None:
        """This round's fault-plan entries, in the pinned order:
        crashes (plan order), reboots (plan order), partition
        open/close (window order)."""
        for crash in self.crashes_by_round.get(self.rounds, ()):
            self.fire_crash(crash)
        for crash in self.reboots_by_round.get(self.rounds, ()):
            self.fire_reboot(crash)
        for index, window in enumerate(self.plan.partitions):
            if window.start == self.rounds:
                self.fire_partition(index, True)
            if window.end == self.rounds:
                self.fire_partition(index, False)

    # -- the round body --------------------------------------------------

    def run_phases(self) -> None:
        """One round's NACK, broadcast, and apply phases."""
        topology = self.topology
        states = self.states
        ledgers = self.ledgers
        plan = self.plan
        power = self.power
        count = self.count
        rounds = self.rounds
        node_count = self.node_count
        round_progress = self.round_progress
        # Partition labels of this round: a link is up iff the labels of
        # its ends are equal (``None``: no window open, every link is up).
        side = self.link_gate.sides(rounds)
        tx_bit_j = power.tx_bit_energy_j
        rx_bit_j = power.rx_bit_energy_j

        # -- power phase (harvest income, recharge-driven resumes) -------
        self.power_round()

        # -- NACK phase (backoff-gated version/missing advertisement) ----
        nack_airtime = self.nack_bits / power.radio_bps
        nack_tx_j = self.nack_bits * tx_bit_j
        nack_rx_j = self.nack_bits * rx_bit_j
        for node in range(1, node_count):
            state = states[node]
            if not state.should_nack(rounds, count):
                continue
            if not self.tx_allowed(node, nack_airtime):
                self.defer_tx(node)
                continue
            self.nacks += 1
            state.note_nack(rounds, count)
            self.note_tx_airtime(node, nack_airtime)
            ledgers[node].tx_j += nack_tx_j
            if not self.spend(node, nack_tx_j):
                self.fire_brownout(node, "NACK tx")
                continue
            for peer in topology.neighbors.get(node, ()):
                if states[peer].alive and (side is None or side[node] == side[peer]):
                    ledgers[peer].rx_j += nack_rx_j
                    if not self.spend(peer, nack_rx_j):
                        self.fire_brownout(peer, "NACK rx")

        # -- broadcast phase (snapshot: hop-by-hop progression) ----------
        snapshot = {
            node: frozenset(states[node].bank) for node in range(node_count)
        }
        for sender in range(node_count):
            state = states[sender]
            if not state.alive or not snapshot[sender]:
                continue
            neighbours = [
                peer
                for peer in topology.neighbors.get(sender, ())
                if states[peer].alive
                and (side is None or side[sender] == side[peer])
            ]
            if not neighbours:
                continue
            wanted: set[int] = set()
            for peer in neighbours:
                wanted |= states[peer].advertised_missing
            sendable = sorted(snapshot[sender] & wanted)
            for slot, index in enumerate(sendable):
                packet = self.packets[index]
                bits = 8 * (len(packet.payload) + self.overhead_per_packet)
                airtime = bits / power.radio_bps
                if not self.tx_allowed(sender, airtime):
                    # Duty-cycle budget exhausted: the node falls silent
                    # for the rest of the round and retries once the cap
                    # has grown — TX is deferred, never illegal.
                    self.defer_tx(sender, len(sendable) - slot)
                    break
                self.broadcasts += 1
                key = (sender, index)
                self.tx_counts[key] = self.tx_counts.get(key, 0) + 1
                self.note_tx_airtime(sender, airtime)
                tx_j = bits * tx_bit_j
                rx_j = bits * rx_bit_j
                ledgers[sender].tx_j += tx_j
                ledgers[sender].packets_sent += 1
                sender_powered = self.spend(sender, tx_j)
                for peer in neighbours:
                    peer_state = states[peer]
                    if not peer_state.alive:
                        continue
                    if peer_state.committed or index in peer_state.bank:
                        continue
                    deliveries = 1
                    if (
                        plan.duplicate_prob
                        and self.rng_fault.random() < plan.duplicate_prob
                    ):
                        deliveries = 2
                    for _ in range(deliveries):
                        ledgers[peer].rx_j += rx_j
                        if not self.spend(peer, rx_j):
                            self.fire_brownout(peer, "packet rx")
                            break
                        if self.rng_link.random() < self.loss:
                            self.drops += 1
                            continue
                        delivered = packet
                        if (
                            plan.corrupt_prob
                            and self.rng_fault.random() < plan.corrupt_prob
                        ):
                            delivered = packet.corrupted(
                                self.rng_fault.randrange(1 << 16)
                            )
                        verdict = peer_state.receive(delivered, count)
                        if verdict == "accepted":
                            ledgers[peer].packets_received += 1
                            round_progress[peer] = True
                            self.last_progress = rounds
                        elif verdict == "corrupt":
                            self.crc_rejections += 1
                        elif verdict == "duplicate":
                            self.duplicates += 1
                if not sender_powered:
                    self.fire_brownout(sender, "packet tx")
                    break

        # -- apply phase (two-bank write, commit = boot-pointer flip) ----
        pages_per_round = (
            -(-self.pages_total // max(1, self.apply_rounds))
            if self.pages_total
            else 0
        )
        for node in range(1, node_count):
            state = states[node]
            if state.state not in ("staged", "applying"):
                continue
            if state.state == "staged" and (
                zlib.crc32(state.assembled_blob()) & 0xFFFFFFFF
            ) != self.blob_crc:
                # Whole-script verification failed: discard and re-sync.
                # Unreachable with per-packet CRCs, but the state machine
                # never flips the boot pointer on an unverified bank.
                state.bank.clear()
                state.state = "idle"
                continue
            if self.pages_total:
                # Page-granular apply: each flash page costs real energy
                # and the capacitor is checked *between* page writes —
                # a brownout leaves the completed-page checkpoint intact
                # and the boot pointer on the golden image.
                if state.state == "staged":
                    state.begin_pages(self.pages_total)
                page_j = self.flash_page_j + self.patch_j / self.pages_total
                done = state.pages_done >= self.pages_total
                for _ in range(pages_per_round):
                    if done or not state.alive:
                        break
                    ledgers[node].cpu_j += page_j
                    if not self.spend(node, page_j):
                        # The in-flight page write tears: it is *not*
                        # checkpointed, so resume restarts this page.
                        self.fire_brownout(node, "flash page write")
                        break
                    done = state.write_page()
                if done and state.commit_pages(self.new_version):
                    round_progress[node] = True
                    self.last_progress = rounds
                continue
            ledgers[node].cpu_j += self.patch_j / max(1, self.apply_rounds)
            if self.stored is not None and not self.spend(
                node, self.patch_j / max(1, self.apply_rounds)
            ):
                self.fire_brownout(node, "patch apply")
                continue
            if state.tick_apply(self.new_version):
                round_progress[node] = True
                self.last_progress = rounds

        for node in range(1, node_count):
            if states[node].alive and not states[node].committed:
                states[node].note_round(round_progress.get(node, False))

    # -- reporting -------------------------------------------------------

    def build_report(self) -> CampaignReport:
        quarantined = tuple(
            sorted(
                node
                for node in range(1, self.node_count)
                if not self.states[node].committed
            )
        )
        retransmissions = sum(
            c - 1 for c in self.tx_counts.values() if c > 1
        )
        outcome = "converged" if not quarantined else "partial"
        profile_stats = None
        if self.profile is not None:
            if (
                outcome == "partial"
                and self.air_budget is not None
                and self.airtime_deferrals
                and self.last_budget_block >= self.last_progress
            ):
                # The fleet ran out of legal airtime, not out of luck:
                # the report is resumable (same plan, larger
                # ``max_rounds`` — the duty-cycle cap keeps growing).
                outcome = "stalled-budget"
            node_brownouts = {
                str(node): self.states[node].brownouts
                for node in range(self.node_count)
                if self.states[node].brownouts
            }
            node_resumed = {
                str(node): self.states[node].resumed_applies
                for node in range(self.node_count)
                if self.states[node].resumed_applies
            }
            profile_stats = {
                "name": self.profile.name,
                "airtime_budget": self.profile.airtime_budget,
                "airtime_deferrals": self.airtime_deferrals,
                "airtime_violations": self.airtime_violations,
                "brownouts": sum(node_brownouts.values()),
                "resumed_applies": sum(node_resumed.values()),
                "node_brownouts": node_brownouts,
                "node_resumed_applies": node_resumed,
                "pages_total": self.pages_total,
                "first_node_death_s": (
                    None
                    if self.first_death_round is None
                    else self.first_death_round * ROUND_S
                ),
                "network_death_s": (
                    None
                    if self.network_death_round is None
                    else self.network_death_round * ROUND_S
                ),
            }
            if outcome == "stalled-budget":
                profile_stats["stalled_pending"] = self.pending_nodes()
        return CampaignReport(
            outcome=outcome,
            rounds=self.rounds,
            packets=self.count,
            script_bytes=len(self.blob),
            old_version=self.old_version,
            new_version=self.new_version,
            node_versions={
                node: self.states[node].version
                for node in range(self.node_count)
            },
            quarantined=quarantined,
            unreachable=self.unreachable,
            ledgers=self.ledgers,
            broadcasts=self.broadcasts,
            retransmissions=retransmissions,
            nacks=self.nacks,
            drops=self.drops,
            crc_rejections=self.crc_rejections,
            duplicates=self.duplicates,
            fault_log=self.fault_log,
            plan_digest=self.plan.digest(),
            profile_stats=profile_stats,
        )


__all__ = [
    "CampaignReport",
    "DEFAULT_STALL_LIMIT",
    "PROTOCOLS",
    "ROUND_S",
    "run_campaign",
]
