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

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD
from ..energy.power_model import MICA2, PowerModel
from ..obs import metrics, trace
from .dissemination import NodeLedger
from .errors import NetConfigError
from .faults import FaultPlan
from .fleet_base import FleetEngine, FleetReport
from .lossy import NACK_BYTES
from .node_state import APPLY_ROUNDS, NodeUpdateState
from .profiles import DeviceProfile
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .coding import CodedTransferParams

#: Rounds without any fleet progress (and no scheduled fault event
#: still to come) after which the controller stops retrying and
#: quarantines the stragglers.
DEFAULT_STALL_LIMIT = 24


@dataclass
class CampaignReport(FleetReport):
    """Outcome of one flood (or LT fountain) campaign: the shared
    :class:`~repro.net.fleet_base.FleetReport` plus its radio counters."""

    broadcasts: int = 0
    retransmissions: int = 0
    nacks: int = 0

    def _head(self) -> list[str]:
        fleet = len(self.node_versions) - 1  # exclude the sink
        return [
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
    protocol: str = "flood",
    coding: "CodedTransferParams | None" = None,
    profile: DeviceProfile | None = None,
) -> FleetReport:
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
    :class:`~repro.net.kernel.KernelReport`.  Both report types
    subclass :class:`~repro.net.fleet_base.FleetReport`.

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


class _CampaignEngine(FleetEngine):
    """Node model, airtime rule, harvest timing and round loop of one
    flood campaign; the rest of its plumbing is
    :class:`~repro.net.fleet_base.FleetEngine`'s.

    :meth:`run` is the only round loop: each round it checks termination
    (:meth:`advance_round`), fires the round's fault-plan entries
    (:meth:`apply_faults`), then runs the round body
    (:meth:`run_phases`: NACK, broadcast and apply phases).  A transfer
    mode replaces only the round body and the two class constants
    ``RNG_STREAM`` and ``CRASH_LOSS``; the LT fountain
    (:mod:`repro.net.coding`) is one, so crash, reboot and partition
    handling, the stall rule and the report exist once.  Reports are
    pinned by ``tests/golden/campaign_digests.json``.
    """

    #: Stream name of the link and fault RNGs
    #: (``repro-<stream>-link:<seed>``, ``repro-<stream>-fault:<plan seed>``).
    RNG_STREAM = "campaign"

    def __init__(
        self,
        topology: Topology,
        blob: bytes,
        plan: FaultPlan | None,
        *,
        loss: float,
        seed: int,
        power: PowerModel,
        max_rounds: int,
        payload_per_packet: int,
        overhead_per_packet: int,
        old_version: int,
        new_version: int,
        profile: DeviceProfile | None = None,
    ):
        super().__init__(
            topology, blob, plan,
            loss=loss, seed=seed, power=power,
            payload_per_packet=payload_per_packet,
            overhead_per_packet=overhead_per_packet,
            old_version=old_version, new_version=new_version,
            profile=profile, stream=self.RNG_STREAM,
        )
        self.max_rounds = max_rounds
        node_count = self.node_count
        self.blob_crc = zlib.crc32(blob) & 0xFFFFFFFF
        self.nack_bits = 8 * NACK_BYTES

        self.states = {
            node: NodeUpdateState(node=node, version=old_version)
            for node in range(node_count)
        }
        sink = self.states[0]
        sink.commit(new_version)
        sink.bank = {pkt.index: pkt.payload for pkt in self.packets}

        if self.count == 0:
            # Nothing to ship: every reachable node trivially holds the
            # (empty) script and commits at once.
            for node in self.reachable:
                self.states[node].commit(new_version)

        self.ledgers = {node: NodeLedger() for node in range(node_count)}
        #: Non-sink nodes not committed yet, ascending.  A node never
        #: un-commits, so :meth:`advance_round` prunes it once a round
        #: and every per-node loop of the round body walks it.
        self.uncommitted = [
            node for node in range(1, node_count) if not self.states[node].committed
        ]
        #: The senders whose neighbour list holds each node: the nodes
        #: that can serve it (``neighbors`` may be one-way).
        self.listed_by: list[list[int]] = [[] for _ in range(node_count)]
        for sender in range(node_count):
            for peer in topology.neighbors.get(sender, ()):
                self.listed_by[peer].append(sender)
        self.crashes_by_round: dict[int, list] = {}
        self.reboots_by_round: dict[int, list] = {}
        self.event_rounds: set[int] = set()
        for crash in self.plan.crashes:
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
        for window in self.plan.partitions:
            # Events past the round budget can never fire; keeping them
            # out of the stall bookkeeping lets a hopeless run stop early.
            if window.start <= max_rounds:
                self.event_rounds.add(window.start)
            if window.end <= max_rounds:
                self.event_rounds.add(window.end)

        self.broadcasts = 0
        self.nacks = 0
        self.tx_counts: dict[tuple[int, int], int] = {}
        self.rounds = 0
        self.last_progress = 0
        self.round_progress: dict[int, bool] = {}

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
        #: browned-out nodes waiting on a recharge
        self.browned: set[int] = set()

    def stamp(self) -> str:
        return f"r{self.rounds}"

    def now_s(self) -> float:
        return self.rounds * ROUND_S

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
        capacitor = self.capacitor
        if capacitor is None or node not in self.browned:
            return False
        return (
            capacitor.harvest_w[node] > 0.0
            or capacitor.stored[node] >= capacitor.restart_j
        )

    def pending_nodes(self) -> list[int]:
        """Reachable nodes not yet committed that can still recover."""
        return [
            node
            for node in self.uncommitted
            if not self.states[node].committed
            and node not in self.unreachable
            and (
                self.states[node].alive
                or self.can_recover(node)
                or any(
                    crash.node == node and crash.reboot_round is not None
                    and crash.reboot_round > self.rounds
                    for crash in self.plan.crashes
                )
            )
        ]

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
        states = self.states
        self.uncommitted = [
            node for node in self.uncommitted if not states[node].committed
        ]
        if not self.pending_nodes():
            return False
        if self.rounds - self.last_progress >= DEFAULT_STALL_LIMIT and not any(
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
        """Debit the node's capacitor; False means the node must brown
        out.  The sink is mains-powered."""
        if self.capacitor is None or node == 0:
            return True
        return self.capacitor.debit(node, joules)

    def fire_brownout(self, node: int, where: str) -> None:
        """Power loss mid-operation: volatile staging state is gone, the
        nonvolatile page checkpoint and the committed bank survive."""
        state = self.states[node]
        state.brownout()
        self.browned.add(node)
        self.log_brownout(node, where, state.pages_done, self.states)

    def power_round(self) -> None:
        """Harvest income and recharge-driven resumes, at round start."""
        capacitor = self.capacitor
        if capacitor is None:
            return
        for node in self.reachable:
            capacitor.charge(node, capacitor.harvest_w[node] * ROUND_S)
            if node in self.browned and capacitor.stored[node] >= capacitor.restart_j:
                self.browned.discard(node)
                state = self.states[node]
                state.resume(self.rounds)
                self.log_resume(node, state.pages_done)
                self.last_progress = self.rounds

    def apply_faults(self) -> None:
        """This round's fault-plan entries, in the pinned order:
        crashes (plan order), reboots (plan order), partition
        open/close (window order)."""
        for crash in self.crashes_by_round.get(self.rounds, ()):
            state = self.states[crash.node]
            state.crash()
            self.log_crash(crash.node, state.committed)
        for crash in self.reboots_by_round.get(self.rounds, ()):
            state = self.states[crash.node]
            state.reboot(self.rounds)
            self.log_reboot(crash.node, state.committed)
        for index, window in enumerate(self.plan.partitions):
            if window.start == self.rounds:
                self.log_partition(index, True)
            if window.end == self.rounds:
                self.log_partition(index, False)

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
        round_progress = self.round_progress
        # Partition labels of this round: a link is up iff the labels of
        # its ends are equal (``None``: no window open, every link is up).
        side = self.link_gate.sides(rounds)
        tx_bit_j = power.tx_bit_energy_j
        rx_bit_j = power.rx_bit_energy_j
        uncommitted = self.uncommitted
        # Without a capacitor every debit succeeds: skip the calls.
        metered = self.capacitor is not None

        # -- power phase (harvest income, recharge-driven resumes) -------
        self.power_round()

        # -- NACK phase (backoff-gated version/missing advertisement) ----
        nack_airtime = self.nack_bits / power.radio_bps
        nack_tx_j = self.nack_bits * tx_bit_j
        nack_rx_j = self.nack_bits * rx_bit_j
        for node in uncommitted:
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
            if metered and not self.spend(node, nack_tx_j):
                self.fire_brownout(node, "NACK tx")
                continue
            for peer in topology.neighbors.get(node, ()):
                if states[peer].alive and (side is None or side[node] == side[peer]):
                    ledgers[peer].rx_j += nack_rx_j
                    if metered and not self.spend(peer, nack_rx_j):
                        self.fire_brownout(peer, "NACK rx")

        # -- broadcast phase (snapshot: hop-by-hop progression) ----------
        # Only an alive, loaded sender that lists a node with an
        # advertised need can find anything wanted: advertised sets only
        # shrink within the phase, and no node comes back alive in it.
        listed_by = self.listed_by
        listers: set[int] = set()
        for node in uncommitted:
            if states[node].advertised_missing:
                listers.update(listed_by[node])
        snapshot = {
            sender: frozenset(states[sender].bank)
            for sender in sorted(listers)
            if states[sender].alive and states[sender].bank
        }
        for sender, held in snapshot.items():
            state = states[sender]
            if not state.alive:
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
            sendable = sorted(held & wanted)
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
                sender_powered = not metered or self.spend(sender, tx_j)
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
                        if metered and not self.spend(peer, rx_j):
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
        pages_per_round = -(-self.pages_total // APPLY_ROUNDS)
        for node in uncommitted:
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
                    if metered and not self.spend(node, page_j):
                        # The in-flight page write tears: it is *not*
                        # checkpointed, so resume restarts this page.
                        self.fire_brownout(node, "flash page write")
                        break
                    done = state.write_page()
                if done and state.commit_pages(self.new_version):
                    round_progress[node] = True
                    self.last_progress = rounds
                continue
            ledgers[node].cpu_j += self.patch_j / APPLY_ROUNDS
            if metered and not self.spend(node, self.patch_j / APPLY_ROUNDS):
                self.fire_brownout(node, "patch apply")
                continue
            if state.tick_apply(self.new_version):
                round_progress[node] = True
                self.last_progress = rounds

        for node in uncommitted:
            if states[node].alive and not states[node].committed:
                states[node].note_round(round_progress.get(node, False))

    # -- reporting -------------------------------------------------------

    def build_report(self) -> CampaignReport:
        states = list(self.states.values())
        quarantined = tuple(
            node for node in range(1, self.node_count) if not states[node].committed
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
            profile_stats = self.profile_stats(
                self.airtime_deferrals,
                self.airtime_violations,
                [state.brownouts for state in states],
                [state.resumed_applies for state in states],
            )
            if outcome == "stalled-budget":
                profile_stats["stalled_pending"] = self.pending_nodes()
        return CampaignReport(
            **self.report_fields(),
            outcome=outcome,
            rounds=self.rounds,
            node_versions={node: state.version for node, state in enumerate(states)},
            quarantined=quarantined,
            ledgers=self.ledgers,
            broadcasts=self.broadcasts,
            retransmissions=sum(c - 1 for c in self.tx_counts.values() if c > 1),
            nacks=self.nacks,
            profile_stats=profile_stats,
        )


__all__ = [
    "CampaignReport",
    "DEFAULT_STALL_LIMIT",
    "PROTOCOLS",
    "ROUND_S",
    "run_campaign",
]
