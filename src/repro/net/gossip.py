"""Push-pull anti-entropy gossip dissemination on the event kernel.

The GCP-style alternative to Trickle for mobile or partition-prone
fleets: every node wakes on an independent jittered period, picks one
reachable neighbour, and runs a *push-pull exchange* — the pair swap
metadata summaries (version + held-packet bitmap) and then each side
forwards up to ``burst`` packets the other is missing.  No suppression
and no shared timer state means a healed partition re-synchronises as
soon as any cross-boundary exchange fires, at the price of a constant
background message rate (the period never backs off, unlike Trickle's
interval doubling).

Runs on :class:`~repro.net.kernel.SimKernel` with the same fault
plans, delivery coins, duty-cycle energy ledger, and
:class:`~repro.net.kernel.KernelReport` as Trickle (summary messages
are counted in ``report.beacons``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
class GossipParams:
    """Anti-entropy timing constants (see docs/SIMULATOR.md).

    A node fires every ``period_s`` plus up to ``jitter_s`` of fresh
    jitter, exchanges ``summary_bytes``-byte metadata with one random
    neighbour, and each side then forwards at most ``burst`` missing
    packets.
    """

    period_s: float = 2.0
    jitter_s: float = 1.0
    burst: int = 8
    summary_bytes: int = 8

    def __post_init__(self) -> None:
        for name in ("period_s", "jitter_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NetConfigError(
                    name, value, f"{name} must be finite, got {value}"
                )
        if self.period_s <= 0.0:
            raise NetConfigError(
                "period_s", self.period_s,
                f"period_s must be positive, got {self.period_s}",
            )
        if self.jitter_s < 0.0:
            raise NetConfigError(
                "jitter_s", self.jitter_s,
                f"jitter_s must be >= 0, got {self.jitter_s}",
            )
        if self.burst < 1:
            raise NetConfigError(
                "burst", self.burst, f"burst must be >= 1, got {self.burst}"
            )
        if self.summary_bytes < 1:
            raise NetConfigError(
                "summary_bytes", self.summary_bytes,
                f"summary_bytes must be >= 1, got {self.summary_bytes}",
            )


class GossipSim(FleetSim):
    """One gossip run; see :func:`run_gossip` for the public entry."""

    protocol = "gossip"

    def __init__(self, *args, params: GossipParams, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = params
        self.summary_bits = 8 * (
            params.summary_bytes + self.overhead_per_packet
        )
        self.exchanges = 0

    def start(self) -> None:
        for node in range(self.topology.node_count):
            self._start_timer(node)

    def on_reboot(self, node: int) -> None:
        self._start_timer(node)

    def _start_timer(self, node: int) -> None:
        delay = self.rng.random() * self.params.period_s
        self.nodes[node].timer = self.kernel._schedule_handler(
            delay, node, self._fire
        )

    def _fire(self, node: int) -> None:
        state = self.nodes[node]
        state.timer = None
        if not state.alive:
            return
        delay = self.params.period_s + self.rng.random() * self.params.jitter_s
        state.timer = self.kernel._schedule_handler(delay, node, self._fire)
        if not self.tx_gate(node):
            # Regulatory off-time not elapsed: sit this period out (a
            # deferral, never a violation); the period timer retries.
            return
        candidates = self._hearers(node)
        if not candidates:
            return
        peer = candidates[self.rng.randrange(len(candidates))]
        self._exchange(node, peer)

    def _exchange(self, a: int, b: int) -> None:
        """Push-pull: summaries both ways, then data both ways."""
        # a's summary; losing it aborts the whole exchange.
        self.beacons += 1
        a_powered = self.account_tx(a, self.summary_bits)
        b_ok = self.account_rx(b, self.summary_bits)
        if not a_powered:
            self._brownout(a, "packet tx")
        if not b_ok or not self.nodes[a].alive:
            return
        if self.rng_link.random() < self.loss:
            self.drops += 1
            return
        # b's reply summary (its own airtime budget applies).
        b_powered = self.transmit(b, self.summary_bits)
        if b_powered is None:
            return
        self.beacons += 1
        a_ok = self.account_rx(a, self.summary_bits)
        if not b_powered:
            self._brownout(b, "packet tx")
        if not a_ok:
            return
        if self.rng_link.random() < self.loss:
            self.drops += 1
            return
        self.exchanges += 1
        push = self.nodes[a].held & ~self.nodes[b].held
        if push and not self.nodes[b].committed:
            self._send_data(a, b)
        pull = self.nodes[b].held & ~self.nodes[a].held
        if pull and not self.nodes[a].committed:
            self._send_data(b, a)

    def _send_data(self, sender: int, receiver: int) -> None:
        """One data leg of an exchange; under an airtime budget a
        gated leg is rescheduled at the sender's next legal TX slot."""
        sstate = self.nodes[sender]
        rstate = self.nodes[receiver]
        if not sstate.alive or not rstate.alive or rstate.committed:
            return
        if not self.link_up(sender, receiver):
            return
        mask = sstate.held & ~rstate.held
        if not mask:
            return
        if not self.tx_gate(
            sender, retry=partial(self._send_data, sender, receiver)
        ):
            return
        self.unicast_data(sender, receiver, self._batch(mask))

    def _batch(self, mask: int) -> "list[int]":
        batch = []
        while mask and len(batch) < self.params.burst:
            low = mask & -mask
            batch.append(low.bit_length() - 1)
            mask ^= low
        return batch


def run_gossip(
    topology: Topology,
    blob: bytes,
    plan: Optional[FaultPlan] = None,
    *,
    loss: float = 0.0,
    seed: int = 1,
    power: PowerModel = MICA2,
    params: Optional[GossipParams] = None,
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
    """Disseminate ``blob`` by push-pull gossip; never raises for an
    unconverged fleet.

    Same contract as :func:`repro.net.trickle.run_trickle`: nodes not
    converged by ``max_time`` come back quarantined in a ``"partial"``
    :class:`~repro.net.kernel.KernelReport`, fault-plan rounds map to
    kernel time as ``round * round_s``, and the run is deterministic
    given ``(topology, blob, plan, seed, params)``.
    """
    gossip_params = params if params is not None else GossipParams()
    with trace.span(
        "net.gossip.run",
        nodes=topology.node_count,
        bytes=len(blob),
        loss=loss,
    ):
        sim = GossipSim(
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
            component="net-gossip",
            params=gossip_params,
        )
        report = sim.run(max_time)
    metrics.counter("net.gossip.runs").inc()
    metrics.counter("net.gossip.exchanges").inc(sim.exchanges)
    metrics.counter("net.gossip.transmissions").inc(report.transmissions)
    metrics.gauge("net.kernel.sleep_fraction").set(report.sleep_fraction)
    metrics.counter("net.energy_j").inc(report.total_energy_j)
    return report


__all__ = ["GossipParams", "GossipSim", "run_gossip"]
