"""Lossy dissemination with NACK-based retransmission.

The base :func:`repro.net.dissemination.disseminate` assumes perfect
links.  Real WSN dissemination protocols (XNP, Deluge, MNP — the
paper's refs [11], [17]) handle loss with retransmission rounds, which
multiplies the radio bill.  This module models that: each broadcast
reaches each neighbour independently with probability ``1 - loss``, and
nodes keep requesting missing packets (one NACK per round) until they
hold the full script.  Deterministic given the seed.

Exposes the quantity the paper cares about: how the *effective* energy
per disseminated byte grows with loss — transmission savings from
smaller scripts are worth strictly more on lossy links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..diff.packets import Packetisation
from ..energy.power_model import MICA2, PowerModel
from ..obs import metrics, trace
from .dissemination import NodeLedger
from .errors import DisconnectedTopologyError, NetConfigError
from .topology import Topology

#: NACK size on the wire, bytes (header + bitmap chunk).
NACK_BYTES = 8


@dataclass
class LossyResult:
    """Outcome of one lossy dissemination."""

    ledgers: dict[int, NodeLedger]
    packets: int
    rounds: int
    broadcasts: int
    nacks: int
    complete: bool
    #: receptions killed by the loss model (the cause of every repair)
    drops: int = 0
    #: node id -> packets still missing at exit (empty when complete)
    missing: dict[int, int] = field(default_factory=dict)

    @property
    def total_energy_j(self) -> float:
        return sum(ledger.total_j for ledger in self.ledgers.values())

    def max_node_energy_j(self, exclude_sink: bool = False) -> float:
        """Energy at the hottest node; ``exclude_sink=True`` drops the
        mains-powered sink (node 0) from consideration."""
        candidates = [
            ledger
            for node, ledger in self.ledgers.items()
            if not (exclude_sink and node == 0)
        ]
        return max(ledger.total_j for ledger in candidates)


def disseminate_lossy(
    topology: Topology,
    packets: Packetisation,
    loss: float = 0.1,
    seed: int = 1,
    power: PowerModel = MICA2,
    max_rounds: int = 200,
) -> LossyResult:
    """Flood ``packets`` with per-link loss and NACK repair.

    Round structure: every node holding packets broadcasts the ones some
    neighbour still misses; each (broadcast, neighbour) reception fails
    independently with probability ``loss``; unfinished nodes send one
    NACK per round.  Terminates when all nodes are complete (or
    ``max_rounds`` elapses — reported via ``complete``).
    """
    if not 0.0 <= loss < 1.0:
        raise NetConfigError(
            "loss", loss, f"loss probability {loss} out of [0, 1)"
        )
    if not topology.is_connected():
        # Fail fast instead of spinning the whole round budget on nodes
        # the sink can never reach.
        reached = topology.hops_from_sink()
        raise DisconnectedTopologyError(
            [node for node in range(topology.node_count) if node not in reached]
        )
    with trace.span(
        "net.disseminate_lossy",
        nodes=topology.node_count,
        packets=packets.packet_count,
        loss=loss,
    ):
        result = _disseminate_lossy(
            topology, packets, loss, seed, power, max_rounds
        )
    metrics.counter("net.lossy.runs").inc()
    metrics.counter("net.lossy.broadcasts").inc(result.broadcasts)
    metrics.counter("net.lossy.nacks").inc(result.nacks)
    metrics.counter("net.lossy.drops").inc(result.drops)
    metrics.histogram("net.lossy.rounds").observe(result.rounds)
    metrics.counter("net.energy_j").inc(result.total_energy_j)
    if not result.complete:
        metrics.counter("net.lossy.incomplete").inc()
    return result


def _disseminate_lossy(
    topology: Topology,
    packets: Packetisation,
    loss: float,
    seed: int,
    power: PowerModel,
    max_rounds: int,
) -> LossyResult:
    rng = random.Random(f"repro-lossy:{seed}")
    count = packets.packet_count
    packet_bits = 8 * (packets.payload_per_packet + packets.overhead_per_packet)
    nack_bits = 8 * NACK_BYTES
    nack_tx_j = nack_bits * power.tx_bit_energy_j
    nack_rx_j = nack_bits * power.rx_bit_energy_j
    packet_tx_j = packet_bits * power.tx_bit_energy_j
    packet_rx_j = packet_bits * power.rx_bit_energy_j

    ledgers = {node: NodeLedger() for node in range(topology.node_count)}
    have: dict[int, set[int]] = {
        node: set() for node in range(topology.node_count)
    }
    have[0] = set(range(count))  # the sink holds the whole script

    broadcasts = 0
    nacks = 0
    rounds = 0
    drops = 0
    while rounds < max_rounds:
        if all(len(have[node]) == count for node in have):
            break
        rounds += 1
        # NACK phase: unfinished nodes announce what they miss.
        for node in range(1, topology.node_count):
            if len(have[node]) < count:
                nacks += 1
                ledgers[node].tx_j += nack_tx_j
                for peer in topology.neighbors.get(node, ()):
                    ledgers[peer].rx_j += nack_rx_j

        # Broadcast phase (snapshot: packets acquired this round do not
        # forward until the next round — hop-by-hop progression).
        snapshot = {node: set(packets_held) for node, packets_held in have.items()}
        for node in range(topology.node_count):
            neighbours = topology.neighbors.get(node, ())
            if not neighbours:
                continue
            wanted = set()
            for peer in neighbours:
                wanted |= set(range(count)) - snapshot[peer]
            sendable = sorted(snapshot[node] & wanted)
            for packet in sendable:
                broadcasts += 1
                ledgers[node].tx_j += packet_tx_j
                ledgers[node].packets_sent += 1
                for peer in neighbours:
                    if packet in have[peer]:
                        continue
                    ledgers[peer].rx_j += packet_rx_j
                    if rng.random() >= loss:
                        have[peer].add(packet)
                        ledgers[peer].packets_received += 1
                    else:
                        drops += 1

    complete = all(len(have[node]) == count for node in have)
    missing = {
        node: count - len(have[node])
        for node in range(topology.node_count)
        if len(have[node]) < count
    }
    return LossyResult(
        ledgers=ledgers,
        packets=count,
        rounds=rounds,
        broadcasts=broadcasts,
        nacks=nacks,
        complete=complete,
        drops=drops,
        missing=missing,
    )
