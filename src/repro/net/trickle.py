"""Trickle dissemination on the event kernel (polite-gossip flooding).

Implements the Trickle algorithm (RFC 6206 / Levis et al., the
mechanism under Deluge-style code dissemination) on
:class:`~repro.net.kernel.SimKernel`:

* every node runs an interval timer that **doubles** from ``imin_s``
  up to ``imax_s`` while the neighbourhood is consistent, so a
  converged network beacons at a vanishing rate;
* at a jittered point ``t ∈ [I/2, I)`` of each interval the node
  broadcasts a metadata *beacon* (version + held-packet bitmap) —
  unless it already overheard ``k`` consistent beacons this interval
  (**polite suppression**);
* an *inconsistent* beacon (a neighbour with different data) **resets**
  the listener's interval to ``imin_s``, so news travels at the fast
  rate while it is news;
* data moves **receiver-driven**, Deluge-style (ADV/REQ/DATA): a node
  that hears a beacon advertising packets it lacks *requests* them
  from that one holder, which answers with a jittered burst — and
  **politely suppresses** its pending burst when it overhears another
  neighbour already sending those packets.  Because beacon suppression
  leaves ~one advertiser per neighbourhood and requests converge on
  it, a neighbourhood's needs collapse into ~one burst per interval
  instead of one response per holder.

Compared to the flood campaign this trades a steady trickle of tiny
beacons for the elimination of redundant data broadcasts — the pinned
``dissemination`` benchmark area records the transmission and joule
ratio on a dense lossy 1k-node fleet, and ``docs/SIMULATOR.md``
documents every parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD
from ..energy.power_model import MICA2, PowerModel
from ..obs import metrics, trace
from .errors import NetConfigError
from .faults import FaultPlan
from .fleet_sim import FleetSim
from .kernel import LPL_1, DutyCycle, KernelReport
from .node_state import APPLY_ROUNDS
from .profiles import DeviceProfile
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .coding import CodedTransferParams


@dataclass(frozen=True)
class TrickleParams:
    """Trickle timing and suppression constants (see docs/SIMULATOR.md).

    ``imin_s``/``imax_s`` bound the interval doubling; ``k`` is the
    redundancy constant (beacon only if fewer than ``k`` consistent
    beacons were overheard since the node last fired); ``burst`` caps
    the data packets per response; ``response_wait_s`` is the jitter
    window before answering a needy beacon — the window in which
    overhearing another answer suppresses ours.
    """

    imin_s: float = 1.0
    imax_s: float = 64.0
    k: int = 1
    burst: int = 8
    response_wait_s: float = 0.5

    def __post_init__(self) -> None:
        for name in ("imin_s", "imax_s", "response_wait_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NetConfigError(
                    name, value, f"{name} must be finite, got {value}"
                )
        if self.imin_s <= 0.0:
            raise NetConfigError(
                "imin_s", self.imin_s, f"imin_s must be positive, got {self.imin_s}"
            )
        if self.imax_s < self.imin_s:
            raise NetConfigError(
                "imax_s", self.imax_s,
                f"imax_s {self.imax_s} must be >= imin_s {self.imin_s}",
            )
        if self.k < 1:
            raise NetConfigError(
                "k", self.k, f"redundancy constant k must be >= 1, got {self.k}"
            )
        if self.burst < 1:
            raise NetConfigError(
                "burst", self.burst, f"burst must be >= 1, got {self.burst}"
            )
        if self.response_wait_s <= 0.0:
            raise NetConfigError(
                "response_wait_s", self.response_wait_s,
                f"response_wait_s must be positive, got {self.response_wait_s}",
            )


#: Bytes of beacon payload ahead of the held-packet bitmap (version
#: word + packet count).
BEACON_HEADER_BYTES = 4


class TrickleSim(FleetSim):
    """One Trickle run; see :func:`run_trickle` for the public entry."""

    protocol = "trickle"

    def __init__(self, *args, params: TrickleParams, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = params
        self.beacon_bits = 8 * (
            BEACON_HEADER_BYTES
            + (self.count + 7) // 8
            + self.overhead_per_packet
        )

    # -- the Trickle timer ----------------------------------------------

    def start(self) -> None:
        for node in range(self.topology.node_count):
            self._start_interval(node, self.params.imin_s)

    def on_reboot(self, node: int) -> None:
        self._start_interval(node, self.params.imin_s)

    def _start_interval(self, node: int, interval: float) -> None:
        state = self.nodes[node]
        state.interval = interval
        state.c = 0
        half = interval / 2.0
        state.timer = self.kernel._schedule_handler(
            half + self.rng.random() * half, node, self._fire
        )

    def _fire(self, node: int) -> None:
        state = self.nodes[node]
        state.timer = None
        if not state.alive:
            return
        if state.c < self.params.k:
            self._beacon(node)
        else:
            self.suppressed += 1
        self._start_interval(
            node, min(state.interval * 2.0, self.params.imax_s)
        )

    # -- beacons ---------------------------------------------------------

    def _beacon(self, node: int) -> None:
        bits = self.beacon_bits
        sender_powered = self.transmit(node, bits)
        if sender_powered is None:
            # Regulatory off-time not elapsed: skip this interval's
            # beacon (a deferral, never a violation).  The Trickle
            # timer itself supplies the retry.
            return
        self.beacons += 1
        # A hearer pays to hear the beacon before its link coin decides
        # whether it decodes it (docs/SIMULATOR.md, *Who pays to receive*).
        airtime = bits / self.power.radio_bps
        rx_s = self.kernel.rx_s
        metered = self.capacitor is not None
        link_coin = self.rng_link.random
        loss = self.loss
        nodes = self.nodes
        sstate = nodes[node]
        imin_s = self.params.imin_s
        drops = 0
        for peer in self._hearers(node):
            rx_s[peer] += airtime
            if metered and not self._debit_rx(peer, bits):
                continue
            if link_coin() < loss:
                drops += 1
                continue
            lstate = nodes[peer]
            # ``sstate.held`` is read per hearer: a hearer's request can
            # brown the sender out and empty its bank mid-loop.
            if lstate.held == sstate.held and lstate.committed == sstate.committed:
                lstate.c += 1
                continue
            # Inconsistency: reset to the fast rate so news spreads fast.
            if lstate.interval > imin_s:
                self.resets += 1
                if lstate.timer is not None:
                    lstate.timer.cancel()
                self._start_interval(peer, imin_s)
            want = sstate.held & ~lstate.held
            if want and not lstate.committed and lstate.request_evt is None:
                self._request(peer, node, want)
        self.drops += drops
        if not sender_powered:
            self._brownout(node, "packet tx")

    # -- receiver-driven transfer (ADV / REQ / DATA) ---------------------

    def _request(self, node: int, holder: int, want: int) -> None:
        """REQ leg: solicit the ``want`` packets from the one ``holder``
        whose (suppression-surviving) beacon we just heard.

        Receiver-driven soliciting is what keeps the data plane quiet:
        every needy listener of that beacon converges on the *same*
        holder, whose pending mask consolidates their needs into one
        jittered burst.  The request itself rides the radio (and the
        loss coin), and the node holds off further requests for a
        response window either way — a lost REQ costs silence, never a
        storm.
        """
        requester_powered = self.transmit(node, self.beacon_bits)
        if requester_powered is None:
            # Budget-gated REQ: stay silent; a later beacon re-triggers.
            return
        self.requests += 1
        holder_powered = self.account_rx(holder, self.beacon_bits)
        if requester_powered:
            state = self.nodes[node]
            state.request_evt = self.kernel._schedule_handler(
                2.0 * self.params.response_wait_s, node, self._request_timeout
            )
        else:
            self._brownout(node, "packet tx")
        if not holder_powered:
            return
        if self.rng_link.random() < self.loss:
            self.drops += 1
            return
        hstate = self.nodes[holder]
        hstate.pending |= want
        if hstate.respond is None:
            delay = self.rng.random() * self.params.response_wait_s
            hstate.respond = self.kernel._schedule_handler(
                delay, holder, self._respond
            )

    def _request_timeout(self, node: int) -> None:
        self.nodes[node].request_evt = None

    # -- data responses with polite suppression --------------------------

    def _respond(self, node: int) -> None:
        state = self.nodes[node]
        state.respond = None
        if not state.alive:
            state.pending = 0
            return
        if state.pending & state.held and not self.tx_gate(node):
            # Keep the pending mask and retry the burst at the node's
            # next legal TX slot (polite suppression still applies).
            delay = self.kernel.next_tx_time(node) - self.kernel.now
            state.respond = self.kernel._schedule_handler(
                max(delay, 1e-9), node, self._respond
            )
            return
        send = state.pending & state.held
        state.pending = 0
        if not send:
            self.suppressed += 1
            return
        batch = []
        mask = send
        while mask and len(batch) < self.params.burst:
            low = mask & -mask
            batch.append(low.bit_length() - 1)
            mask ^= low
        self.broadcast_data(node, batch)
        if not state.alive:
            # The burst browned the sender out mid-transmission.
            state.pending = 0
            return
        if mask:
            # More than one burst owed: re-queue the remainder.
            state.pending |= mask
            delay = self.rng.random() * self.params.response_wait_s
            state.respond = self.kernel._schedule_handler(
                delay, node, self._respond
            )

    def on_overhear_data(self, node: int, mask: int) -> None:
        state = self.nodes[node]
        if not state.pending:
            return
        # Polite suppression: a neighbour is already sending these.
        state.pending &= ~mask
        if not state.pending and state.respond is not None:
            state.respond.cancel()
            state.respond = None
            self.suppressed += 1


def run_trickle(
    topology: Topology,
    blob: bytes,
    plan: Optional[FaultPlan] = None,
    *,
    loss: float = 0.0,
    seed: int = 1,
    power: PowerModel = MICA2,
    params: Optional[TrickleParams] = None,
    duty_cycle: DutyCycle = LPL_1,
    max_time: float = 600.0,
    payload_per_packet: int = DEFAULT_PAYLOAD,
    overhead_per_packet: int = DEFAULT_OVERHEAD,
    old_version: int = 0,
    new_version: int = 1,
    round_s: float = 1.0,
    coding: "Optional[CodedTransferParams]" = None,
    profile: Optional[DeviceProfile] = None,
) -> KernelReport:
    """Disseminate ``blob`` with Trickle; never raises for an
    unconverged fleet.

    Nodes still missing packets when ``max_time`` simulated seconds
    elapse come back quarantined in a ``"partial"``
    :class:`~repro.net.kernel.KernelReport`.  Fault-plan rounds map to
    kernel time as ``round * round_s``.  Deterministic given
    ``(topology, blob, plan, seed, params)`` — same inputs, byte-equal
    ``report.to_json()``.
    """
    trickle_params = params if params is not None else TrickleParams()
    with trace.span(
        "net.trickle.run",
        nodes=topology.node_count,
        bytes=len(blob),
        loss=loss,
    ):
        sim = TrickleSim(
            topology,
            blob,
            plan,
            loss=loss,
            seed=seed,
            power=power,
            duty_cycle=duty_cycle,
            payload_per_packet=payload_per_packet,
            overhead_per_packet=overhead_per_packet,
            old_version=old_version,
            new_version=new_version,
            round_s=round_s,
            apply_s=APPLY_ROUNDS * round_s,
            coding=coding,
            profile=profile,
            component="net-trickle",
            params=trickle_params,
        )
        report = sim.run(max_time)
    metrics.counter("net.trickle.runs").inc()
    metrics.counter("net.trickle.beacons").inc(report.beacons)
    metrics.counter("net.trickle.requests").inc(report.requests)
    metrics.counter("net.trickle.transmissions").inc(report.transmissions)
    metrics.counter("net.trickle.suppressed").inc(report.suppressed)
    metrics.counter("net.trickle.resets").inc(report.resets)
    metrics.gauge("net.kernel.sleep_fraction").set(report.sleep_fraction)
    metrics.counter("net.energy_j").inc(report.total_energy_j)
    return report


__all__ = ["BEACON_HEADER_BYTES", "TrickleParams", "TrickleSim", "run_trickle"]
