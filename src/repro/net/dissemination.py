"""Hop-by-hop dissemination of update scripts, with energy accounting.

Models the flooding code-dissemination protocols the paper builds on
(XNP/Deluge-style): the sink injects the packetised script; every node
rebroadcasts each packet once; every node in radio range receives each
broadcast.  The per-node energy ledger uses the Mica2 power model
(Figure 3): Tx energy per transmitted bit, Rx energy per received bit,
and CPU energy to interpret the script and patch the image.

Also provides the data-report model of paper §2.1: a sensing event
whose report travels ``h`` hops invokes the *data-processing* code once
but the *data-transmission* code ``h`` times — the asymmetry that
justifies updating processing code for similarity and transmission
code for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diff.packets import Packetisation
from ..energy.power_model import MICA2, PowerModel
from ..obs import metrics, trace
from .topology import Topology


@dataclass
class NodeLedger:
    """Per-node energy bookkeeping (joules).

    The synchronous-round protocols only ever fill ``tx_j`` / ``rx_j``
    / ``cpu_j``; the event-kernel protocols (:mod:`repro.net.trickle`,
    :mod:`repro.net.gossip`) additionally price the radio's
    *idle-listening* time (``idle_j`` — the duty-cycled listen budget
    not spent receiving) and the node's ``sleep_j`` floor.  Both default
    to zero so ledgers from the round-based paths are byte-identical to
    what they were before the kernel existed.
    """

    tx_j: float = 0.0
    rx_j: float = 0.0
    cpu_j: float = 0.0
    idle_j: float = 0.0
    sleep_j: float = 0.0
    packets_sent: int = 0
    packets_received: int = 0

    @property
    def total_j(self) -> float:
        return self.tx_j + self.rx_j + self.cpu_j + self.idle_j + self.sleep_j


@dataclass
class DisseminationResult:
    """Network-wide outcome of distributing one update."""

    ledgers: dict[int, NodeLedger]
    packets: int
    rounds: int

    @property
    def total_energy_j(self) -> float:
        return sum(ledger.total_j for ledger in self.ledgers.values())

    @property
    def total_tx_j(self) -> float:
        return sum(ledger.tx_j for ledger in self.ledgers.values())

    @property
    def total_rx_j(self) -> float:
        return sum(ledger.rx_j for ledger in self.ledgers.values())

    def max_node_energy_j(self, exclude_sink: bool = False) -> float:
        """Energy at the hottest node — what limits network lifetime.

        ``exclude_sink=True`` drops node 0 from consideration: the sink
        is mains-powered in the paper's setting, so its ledger should
        not skew the lifetime-limiting-node metric.
        """
        candidates = [
            ledger
            for node, ledger in self.ledgers.items()
            if not (exclude_sink and node == 0)
        ]
        return max(ledger.total_j for ledger in candidates)


#: CPU cycles a node spends interpreting one script byte and patching.
PATCH_CYCLES_PER_BYTE = 24


def disseminate(
    topology: Topology,
    packets: Packetisation,
    power: PowerModel = MICA2,
) -> DisseminationResult:
    """Flood the packetised script from the sink through ``topology``.

    Every non-sink node rebroadcasts each packet exactly once (classic
    flooding); receivers are all radio neighbours.  Returns per-node
    ledgers; the sink's energy is excluded from node totals only in the
    sense that callers can ignore ledger[0] (sinks are mains-powered in
    the paper's setting, but the ledger is still recorded).
    """
    with trace.span(
        "net.disseminate",
        nodes=topology.node_count,
        packets=packets.packet_count,
    ):
        packet_bits = 8 * (
            packets.payload_per_packet + packets.overhead_per_packet
        )
        count = packets.packet_count
        ledgers = {node: NodeLedger() for node in range(topology.node_count)}
        hops = topology.hops_from_sink()

        # Each node broadcasts each packet once; each neighbour receives it.
        for node in range(topology.node_count):
            ledger = ledgers[node]
            ledger.tx_j += count * packet_bits * power.tx_bit_energy_j
            ledger.packets_sent += count
            for peer in topology.neighbors.get(node, ()):
                peer_ledger = ledgers[peer]
                peer_ledger.rx_j += count * packet_bits * power.rx_bit_energy_j
                peer_ledger.packets_received += count

        # Script interpretation + patching cost on every non-sink node.
        patch_cycles = PATCH_CYCLES_PER_BYTE * packets.script_bytes
        for node in range(1, topology.node_count):
            ledgers[node].cpu_j += patch_cycles * power.cycle_energy_j

        rounds = max(hops.values()) if hops else 0
        result = DisseminationResult(ledgers=ledgers, packets=count, rounds=rounds)
    metrics.counter("net.flood.runs").inc()
    metrics.counter("net.flood.broadcasts").inc(count * topology.node_count)
    metrics.counter("net.energy_j").inc(result.total_energy_j)
    return result


@dataclass
class ReportModel:
    """Paper §2.1's data-report example.

    An interesting event invokes the data-*processing* code once at the
    originating sensor, but the data-*transmission* code at every hop
    along the route to the sink.
    """

    topology: Topology
    power: PowerModel = MICA2

    def report_cost(
        self,
        origin: int,
        processing_cycles: float,
        transmission_cycles: float,
        report_bytes: int = 36,
    ) -> tuple[float, int]:
        """Energy (J) and hop count for one report from ``origin``."""
        path = self.topology.path_to_sink(origin)
        hop_count = len(path) - 1
        cpu = (
            processing_cycles + hop_count * transmission_cycles
        ) * self.power.cycle_energy_j
        radio_bits = 8 * report_bytes
        radio = hop_count * radio_bits * (
            self.power.tx_bit_energy_j + self.power.rx_bit_energy_j
        )
        return cpu + radio, hop_count

    def processing_vs_transmission_weight(self, origin: int) -> int:
        """How many times more often transmission code runs than
        processing code for reports from ``origin`` (= hops)."""
        return len(self.topology.path_to_sink(origin)) - 1
