"""Shared fleet machinery for kernel-based dissemination protocols.

:class:`FleetSim` is the substrate :mod:`repro.net.trickle` and
:mod:`repro.net.gossip` build on: lightweight per-node state (a
bitmask staging bank instead of per-packet byte buffers, which is what
keeps 100k-node fleets in memory), fault-plan events scheduled on the
:class:`~repro.net.kernel.SimKernel` clock (crash/reboot/partition
windows fire as kernel events, logged exactly once), the per-delivery
fault coins (loss, corruption, duplication) in a fixed draw order, the
crash-consistent apply/commit step, and the
:class:`~repro.net.kernel.KernelReport` finalisation with idle-listen
and sleep energy from the kernel's duty-cycle ledger.

Fault-plan *rounds* map to kernel time as ``round * round_s`` — a plan
authored for the synchronous flood campaign drives the continuous-time
protocols unchanged.

Determinism: every ``random.Random`` stream is seeded with a derived
``"repro-<component>...:<seed>"`` string (``RNG001``) and drawn only
from inside kernel event handlers, whose order the kernel pins.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import TYPE_CHECKING, Iterable, List, Optional

from ..energy.power_model import PowerModel
from ..obs import metrics
from .errors import NetConfigError
from .faults import FaultPlan
from .fleet_base import FleetEngine
from .kernel import DutyCycle, KernelReport, SimKernel, rounds_equivalent
from .profiles import DeviceProfile
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .coding import CodedTransferParams


class FleetNode:
    """Per-node protocol state, sized for 100k-node fleets.

    The staging bank is an integer bitmask over packet indices (the
    packet payloads themselves are global — every node would stage the
    same bytes), so a node costs a few hundred bytes regardless of
    script size.
    """

    __slots__ = (
        "held",
        "alive",
        "committed",
        "interval",
        "c",
        "timer",
        "respond",
        "request_evt",
        "pending",
        "apply_evt",
        "pages_done",
    )

    def __init__(self) -> None:
        self.held = 0
        self.alive = True
        self.committed = False
        self.interval = 0.0
        self.c = 0
        self.timer = None
        self.respond = None
        self.request_evt = None
        self.pending = 0
        self.apply_evt = None
        #: nonvolatile flash-page checkpoint (page-granular apply only)
        self.pages_done = 0


class FleetSim(FleetEngine):
    """One protocol run over a fleet: nodes, faults, energy, report.

    Subclasses implement :meth:`start` (schedule the initial per-node
    timers) and may override the :meth:`on_reboot` /
    :meth:`on_overhear_data` / :meth:`on_commit` hooks; everything else
    — fault events, delivery coins, apply/commit, report building — is
    shared so flood-era fault plans behave identically under every
    kernel protocol.  The plumbing that does not depend on the clock is
    :class:`~repro.net.fleet_base.FleetEngine`'s, shared with the flood.
    """

    protocol = "kernel"

    def __init__(
        self,
        topology: Topology,
        blob: bytes,
        plan: Optional[FaultPlan],
        *,
        loss: float,
        seed: int,
        power: PowerModel,
        duty_cycle: DutyCycle,
        payload_per_packet: int,
        overhead_per_packet: int,
        old_version: int,
        new_version: int,
        round_s: float,
        apply_s: float,
        component: str,
        coding: "Optional[CodedTransferParams]" = None,
        profile: Optional[DeviceProfile] = None,
    ):
        super().__init__(
            topology, blob, plan,
            loss=loss, seed=seed, power=power,
            payload_per_packet=payload_per_packet,
            overhead_per_packet=overhead_per_packet,
            old_version=old_version, new_version=new_version,
            profile=profile, stream=component,
        )
        if not (math.isfinite(round_s) and round_s > 0.0):
            raise NetConfigError(
                "round_s", round_s,
                f"round_s must be positive and finite, got {round_s}",
            )
        if coding is not None and coding.scheme != "xor":
            raise NetConfigError(
                "coding", coding.scheme,
                "the event-kernel protocols speak the 'xor' burst-parity "
                "scheme; the 'lt' fountain runs as a flood campaign "
                "(repro.net.coding.run_coded_campaign)",
            )
        self.round_s = round_s
        self.apply_s = apply_s
        self.coding = coding
        self.repairs = 0

        node_count = self.node_count
        self.kernel = SimKernel(
            node_count,
            power=power,
            duty_cycle=duty_cycle,
            airtime_budget=(
                self.profile.airtime_budget if self.profile is not None else 1.0
            ),
        )
        # One more derived string seed (RNG001), for protocol timer jitter.
        self.rng = random.Random(f"repro-{component}:{seed}")

        self.full_mask = (1 << self.count) - 1
        self.packet_bits = [
            8 * (len(pkt.payload) + overhead_per_packet) for pkt in self.packets
        ]
        neighbors = topology.neighbors
        #: Per-node neighbour tuples, built once for the hearer filter.
        self._neighbours = [
            tuple(neighbors.get(node, ())) for node in range(node_count)
        ]

        self.nodes: List[FleetNode] = [FleetNode() for _ in range(node_count)]
        sink = self.nodes[0]
        sink.held = self.full_mask
        sink.committed = True

        self.cpu_j = [0.0] * node_count
        self.sent = [0] * node_count
        self.received = [0] * node_count
        self.transmissions = 0
        self.beacons = 0
        self.requests = 0
        self.suppressed = 0
        self.resets = 0

        self.remaining = len(self.reachable)
        if self.count == 0:
            # Nothing to ship: every reachable node trivially holds the
            # (empty) script and commits at time zero.
            for node in self.reachable:
                self.nodes[node].committed = True
            self.remaining = 0

        self.node_brownouts = [0] * node_count
        self.node_resumed = [0] * node_count
        #: when each node's harvest income was last credited
        self.last_energy_t = [0.0] * node_count
        self._schedule_faults()

    def stamp(self) -> str:
        return f"t{self.kernel.now:g}"

    def now_s(self) -> float:
        return self.kernel.now

    # -- fault plan as kernel events ------------------------------------

    def _schedule_faults(self) -> None:
        for crash in self.plan.crashes:
            if crash.node >= self.node_count:
                continue
            self.kernel.schedule_at(
                crash.round * self.round_s,
                crash.node,
                partial(self._crash, crash.node),
            )
            if crash.reboot_round is not None:
                self.kernel.schedule_at(
                    crash.reboot_round * self.round_s,
                    crash.node,
                    partial(self._reboot, crash.node),
                )
        for index, window in enumerate(self.plan.partitions):
            self.kernel.schedule_at(
                window.start * self.round_s,
                0,
                partial(self.log_partition, index, True),
            )
            self.kernel.schedule_at(
                window.end * self.round_s,
                0,
                partial(self.log_partition, index, False),
            )

    def _power_off(self, state: FleetNode) -> None:
        """The node goes down: its pending events are cancelled and,
        until it commits, its volatile staging bank is lost (the boot
        pointer never moved, so the resident golden image survives)."""
        state.alive = False
        if not state.committed:
            state.held = 0
        for handle in (
            state.timer, state.respond, state.request_evt, state.apply_evt
        ):
            if handle is not None:
                handle.cancel()
        state.timer = state.respond = state.request_evt = state.apply_evt = None
        state.pending = 0

    def _crash(self, node: int) -> None:
        state = self.nodes[node]
        if state.alive:
            self._power_off(state)
            self.log_crash(node, state.committed)

    def _reboot(self, node: int) -> None:
        state = self.nodes[node]
        if not state.alive:
            state.alive = True
            self.log_reboot(node, state.committed)
            self.on_reboot(node)

    def link_sides(self) -> "list[int] | None":
        """Partition labels at the current kernel time: the ``a``—``b``
        link is up iff ``sides is None or sides[a] == sides[b]``.

        The round is ``int(now / round_s)``, not the open set the
        partition events keep: at float boundaries the two disagree
        (``round_s=0.7``, ``start=3`` fires at ``t=2.0999999999999996``,
        still round 2), and the links follow the round.
        """
        return self.link_gate.sides(int(self.kernel.now / self.round_s))

    def link_up(self, a: int, b: int) -> bool:
        """Is the ``a``—``b`` link usable at the current kernel time?"""
        sides = self.link_sides()
        return sides is None or sides[a] == sides[b]

    def _hearers(self, sender: int) -> "list[int]":
        """Who hears a broadcast from ``sender`` now, in neighbour order:
        every alive neighbour on ``sender``'s side of every active
        partition.  These are the nodes that pay to receive it
        (docs/SIMULATOR.md, *Who pays to receive*)."""
        nodes = self.nodes
        sides = self.link_sides()
        if sides is None:
            return [peer for peer in self._neighbours[sender] if nodes[peer].alive]
        side = sides[sender]
        return [
            peer
            for peer in self._neighbours[sender]
            if nodes[peer].alive and sides[peer] == side
        ]

    # -- device-profile machinery ---------------------------------------

    def tx_gate(self, node: int, retry=None) -> bool:
        """Airtime-budget gate: True when ``node`` may transmit now.

        When the node's regulatory off-time has not elapsed the TX is
        *deferred* — counted, never violated — and ``retry`` (when
        given) is rescheduled at the node's next legal slot.
        """
        if self.kernel.tx_allowed(node):
            return True
        self.kernel.note_deferral(node)
        if retry is not None:
            delay = self.kernel.next_tx_time(node) - self.kernel.now
            self.kernel.schedule(max(delay, 1e-9), node, retry)
        return False

    def spend(self, node: int, joules: float) -> bool:
        """Debit the node's capacitor; False means the node must brown
        out.  The sink is mains-powered.

        Harvest income accrues continuously, so it is credited up to
        the current kernel time before the debit."""
        capacitor = self.capacitor
        if capacitor is None or node == 0:
            return True
        now = self.kernel.now
        income = capacitor.harvest_w[node]
        if income > 0.0:
            capacitor.charge(node, income * (now - self.last_energy_t[node]))
        self.last_energy_t[node] = now
        return capacitor.debit(node, joules)

    def _brownout(self, node: int, where: str) -> None:
        """Power loss mid-operation: volatile staging state is gone, the
        nonvolatile page checkpoint and the committed bank survive."""
        state = self.nodes[node]
        if not state.alive:
            return
        self._power_off(state)
        self.node_brownouts[node] += 1
        self.log_brownout(node, where, state.pages_done, self.nodes)
        capacitor = self.capacitor
        income = capacitor.harvest_w[node]
        if income > 0.0:
            # Deterministic recharge: the capacitor reaches the restart
            # level after deficit/income seconds of harvest.
            deficit = max(capacitor.restart_j - capacitor.stored[node], 0.0)
            self.kernel._schedule_handler(deficit / income, node, self._resume)

    def _resume(self, node: int) -> None:
        """Capacitor recharged to the restart level: boot the resident
        image and rejoin the protocol."""
        state = self.nodes[node]
        capacitor = self.capacitor
        if state.alive or capacitor is None:
            return
        state.alive = True
        capacitor.stored[node] = max(capacitor.stored[node], capacitor.restart_j)
        self.last_energy_t[node] = self.kernel.now
        self.log_resume(node, state.pages_done)
        self.on_reboot(node)

    def transmit(self, node: int, bits: int) -> "bool | None":
        """Gate and bill one ``bits``-long transmission by ``node``.

        None means the airtime budget deferred it (:meth:`tx_gate`,
        nothing billed).  Otherwise the TX is billed, kernel airtime
        first, then the capacitor, and the result is whether ``node``
        is still powered; on False the caller fires the brownout once
        the packet is out."""
        if self.kernel.airtime_budget < 1.0 and not self.tx_gate(node):
            return None
        return self.account_tx(node, bits)

    def account_tx(self, node: int, bits: int) -> bool:
        """Kernel TX accounting plus the capacitor debit; returns False
        when the transmission browned the sender out."""
        self.kernel.account_tx(node, bits)
        if self.capacitor is None:
            return True
        return self.spend(node, bits * self.power.tx_bit_energy_j)

    def account_rx(self, node: int, bits: int) -> bool:
        """Kernel RX accounting plus the capacitor debit; returns False
        when the reception browned the receiver out."""
        self.kernel.account_rx(node, bits)
        return self.capacitor is None or self._debit_rx(node, bits)

    def _debit_rx(self, node: int, bits: int) -> bool:
        """The capacitor half of :meth:`account_rx`."""
        if not self.spend(node, bits * self.power.rx_bit_energy_j):
            self._brownout(node, "packet rx")
            return False
        return True

    # -- data delivery (shared coin order) ------------------------------

    def broadcast_data(self, sender: int, batch: "list[int]") -> int:
        """Broadcast the packets in ``batch`` from ``sender`` to every
        alive, connected neighbour; returns the batch's bitmask."""
        return self._deliver(sender, self._hearers(sender), batch, True)

    def unicast_data(self, sender: int, receiver: int, batch: "list[int]") -> None:
        """Point-to-point transfer of ``batch`` (gossip push/pull leg)."""
        self._deliver(sender, (receiver,), batch, False)

    def _deliver(
        self, sender: int, hearers: "Iterable[int]", batch: "list[int]",
        broadcast: bool,
    ) -> int:
        """Send ``batch`` (distinct packet indices) from ``sender`` to
        ``hearers`` in one burst; returns the batch's bitmask.

        Under XOR coding one parity packet follows every ``group`` data
        packets, sized like the widest packet it covers, so parity rides
        every protocol's bursts.  Each hearer is handled in one pass, in
        order: accrue its RX airtime, take its capacitor debit (a debit
        can brown the hearer out and schedule its resume, so debits and
        handling stay interleaved), tell a broadcast's hearer what it
        overheard, then draw the coins and stage.  Per packet copy the
        coins fall in a fixed order, duplication (once per packet), then
        loss, then corruption, as in the flood campaign, so a fault plan
        stresses every protocol the same way.
        """
        packet_bits = self.packet_bits
        bits = sum(map(packet_bits.__getitem__, batch))
        masks = [1 << index for index in batch]
        parity: "list[int]" = []  # one member mask per parity packet
        if self.coding is not None:
            group = self.coding.group
            for start in range(0, len(batch), group):
                bits += max(map(packet_bits.__getitem__, batch[start : start + group]))
                parity.append(sum(masks[start : start + group]))
        self.transmissions += len(masks) + len(parity)
        self.sent[sender] += len(masks) + len(parity)
        # The sender's capacitor is debited first but a resulting
        # brownout fires only after the hearer loop: the packets were
        # already in flight when the supply collapsed.
        sender_powered = self.account_tx(sender, bits)
        mask = sum(masks)
        airtime = bits / self.power.radio_bps
        rx_s = self.kernel.rx_s
        metered = self.capacitor is not None
        overhear = self.on_overhear_data if broadcast else None
        nodes = self.nodes
        full_mask = self.full_mask
        duplicate_prob = self.plan.duplicate_prob
        corrupt_prob = self.plan.corrupt_prob
        link_coin = self.rng_link.random
        fault_coin = self.rng_fault.random
        loss = self.loss
        drops = crc_rejections = duplicates = repairs = 0
        for peer in hearers:
            rx_s[peer] += airtime
            if metered and not self._debit_rx(peer, bits):
                continue
            if overhear is not None:
                overhear(peer, mask)
            state = nodes[peer]
            if state.committed:
                continue
            held = state.held
            staged = 0
            for bit in masks:
                # The duplication coin sends a second copy; the usual
                # single copy leaves after one pass.
                again = duplicate_prob and fault_coin() < duplicate_prob
                while True:
                    if link_coin() < loss:
                        drops += 1
                    elif corrupt_prob and fault_coin() < corrupt_prob:
                        # A flipped payload byte fails the per-packet
                        # CRC; the bank never stages it.
                        crc_rejections += 1
                    elif held & bit:
                        duplicates += 1
                    else:
                        held |= bit
                        staged += 1
                    if not again:
                        break
                    again = False
            for members in parity:
                # The parity packet rides the same link, so it draws the
                # same fault coins in the same order; when it lands and
                # exactly one member of its group is still missing, the
                # receiver XORs the loss back locally — no ADV/REQ round
                # trip and no fresh Trickle interval.
                again = duplicate_prob and fault_coin() < duplicate_prob
                arrived = False
                while True:
                    if link_coin() < loss:
                        drops += 1
                    elif corrupt_prob and fault_coin() < corrupt_prob:
                        crc_rejections += 1
                    elif arrived:
                        duplicates += 1
                    else:
                        arrived = True
                    if not again:
                        break
                    again = False
                missing = members & ~held
                if arrived and missing and not missing & (missing - 1):
                    repairs += 1
                    held |= missing
                    staged += 1
            if staged:
                state.held = held
                self.received[peer] += staged
                if held == full_mask:
                    self._stage_apply(peer)
        self.drops += drops
        self.crc_rejections += crc_rejections
        self.duplicates += duplicates
        self.repairs += repairs
        if not sender_powered:
            self._brownout(sender, "packet tx")
        return mask

    # -- crash-consistent apply -----------------------------------------

    def _stage_apply(self, node: int) -> None:
        state = self.nodes[node]
        if state.committed or state.apply_evt is not None:
            return
        state.apply_evt = self.kernel._schedule_handler(
            self.apply_s, node, self._commit
        )

    def _commit(self, node: int) -> None:
        state = self.nodes[node]
        state.apply_evt = None
        if not state.alive or state.committed or state.held != self.full_mask:
            return
        if self.pages_total:
            # Page-granular apply: each flash page is paid for before it
            # is written, so a brownout between two pages leaves the
            # checkpoint at the last *completed* page — the torn page is
            # re-written on resume, and the boot pointer only flips once
            # every page is down.
            if state.pages_done:
                self.node_resumed[node] += 1
            page_cpu_j = self.patch_j / self.pages_total
            while state.pages_done < self.pages_total:
                self.cpu_j[node] += page_cpu_j
                if not self.spend(node, self.flash_page_j + page_cpu_j):
                    self._brownout(node, "flash page write")
                    return
                state.pages_done += 1
        else:
            self.cpu_j[node] += self.patch_j
            if self.capacitor is not None and not self.spend(node, self.patch_j):
                self._brownout(node, "patch apply")
                return
        state.committed = True
        self.remaining -= 1
        if self.remaining <= 0:
            self.kernel.stop()
        self.on_commit(node)

    # -- protocol hooks --------------------------------------------------

    def start(self) -> None:
        """Schedule the protocol's initial per-node timers."""
        raise NotImplementedError

    def on_reboot(self, node: int) -> None:
        """A crashed node came back; restart its timers."""

    def on_overhear_data(self, node: int, mask: int) -> None:
        """``node`` overheard a data broadcast covering ``mask``."""

    def on_commit(self, node: int) -> None:
        """``node`` flipped its boot pointer to the new image."""

    # -- driving and reporting -------------------------------------------

    def run(self, max_time: float) -> KernelReport:
        """Drive the fleet to convergence or the time budget."""
        if self.remaining > 0:
            self.start()
            self.kernel.run(max_time=max_time)
        if self.coding is not None:
            metrics.counter("net.coding.repairs").inc(self.repairs)
        metrics.counter("net.fault.corruptions").inc(self.crc_rejections)
        return self.build_report()

    def build_report(self) -> KernelReport:
        nodes = self.nodes
        ledgers = self.kernel.ledgers()
        for node, ledger in ledgers.items():
            ledger.cpu_j = self.cpu_j[node]
            ledger.packets_sent = self.sent[node]
            ledger.packets_received = self.received[node]
        quarantined = tuple(
            node for node in range(1, self.node_count) if not nodes[node].committed
        )
        profile_stats = None
        if self.profile is not None:
            profile_stats = self.profile_stats(
                self.kernel.airtime_deferrals,
                self.kernel.airtime_violations,
                self.node_brownouts,
                self.node_resumed,
            )
        return KernelReport(
            **self.report_fields(),
            protocol=self.protocol,
            outcome="converged" if not quarantined else "partial",
            time_s=self.kernel.now,
            rounds=rounds_equivalent(self.kernel.now, self.round_s),
            events=self.kernel.events_dispatched,
            node_versions={
                node: self.new_version if state.committed else self.old_version
                for node, state in enumerate(nodes)
            },
            quarantined=quarantined,
            ledgers=ledgers,
            transmissions=self.transmissions,
            beacons=self.beacons,
            requests=self.requests,
            suppressed=self.suppressed,
            resets=self.resets,
            duty_cycle=self.kernel.duty_cycle.name,
            listen_fraction=self.kernel.duty_cycle.listen_fraction,
            sleep_fraction=self.kernel.sleep_fraction(),
            profile_stats=profile_stats,
        )


__all__ = ["FleetNode", "FleetSim"]
