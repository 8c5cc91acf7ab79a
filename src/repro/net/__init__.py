"""WSN dissemination: topologies, flooding, energy ledgers.

Models the network half of the paper's setting (§1, §2.1): a sink
distributes the packetised edit script hop-by-hop to every sensor,
and each radioed bit costs roughly 1000x the energy of executing an
instruction — the asymmetry that makes script size the quantity UCC
optimises.

Hop model
    A :class:`~repro.net.topology.Topology` (grid / line / random
    geometric) fixes who hears whom.  :func:`disseminate` floods the
    script: every node rebroadcasts each packet once, every radio
    neighbour receives it, and the round count equals the hop eccentricity
    of the sink.  :func:`~repro.net.lossy.disseminate_lossy` adds
    per-link Bernoulli loss with NACK-driven retransmission rounds
    (XNP/Deluge/MNP-style, the paper's refs [11], [17]), which
    multiplies the radio bill as loss grows.

Energy model
    Per-node :class:`~repro.net.dissemination.NodeLedger`\\ s price
    every transmitted and received bit with the Mica2 power model of
    paper Figure 3 (:data:`repro.energy.power_model.MICA2`), plus CPU
    energy for script interpretation and patching
    (:data:`~repro.net.dissemination.PATCH_CYCLES_PER_BYTE`).
    :class:`~repro.net.dissemination.ReportModel` reproduces §2.1's
    data-report example: a report travelling ``h`` hops runs the
    processing code once but the transmission code ``h`` times.

Fault-tolerant campaigns
    :mod:`~repro.net.faults` scripts deterministic fault plans (node
    crash/reboot, payload corruption, partition windows, duplicate
    delivery); :mod:`~repro.net.node_state` gives every node a
    CRC-verified staging bank with a crash-consistent two-bank commit;
    :func:`~repro.net.campaign.run_campaign` drives the fleet to
    convergence with bounded retry/backoff and returns a structured
    :class:`~repro.net.campaign.CampaignReport` (quarantined nodes,
    fault log, retransmission overhead) instead of raising.

Event kernel and kernel protocols
    :mod:`~repro.net.kernel` is the deterministic event-driven
    simulation kernel (binary-heap queue keyed ``(time, seq, node)``,
    per-node radio-time accounting, :class:`~repro.net.kernel.DutyCycle`
    idle-listen/sleep pricing); :mod:`~repro.net.fleet_sim` layers the
    shared fleet machinery (bitmask staging banks, fault-plan events,
    delivery coins, crash-consistent commit) on top, and
    :func:`~repro.net.trickle.run_trickle` /
    :func:`~repro.net.gossip.run_gossip` are the suppression-based
    dissemination protocols built on it.  The flood campaign and the
    LT fountain (:mod:`~repro.net.coding`) do not use the kernel: they
    advance in rounds, and ``_CampaignEngine.run()`` in
    :mod:`~repro.net.campaign` is their one round driver.  See
    docs/SIMULATOR.md for the determinism contract and parameters.

Dissemination publishes ``net.*`` metrics and ``net.disseminate[_lossy]``
/ ``campaign.run`` / ``net.coding.run`` / ``net.kernel.run`` /
``net.trickle.run`` / ``net.gossip.run`` spans into :mod:`repro.obs` —
see docs/OBSERVABILITY.md.
"""

from .dissemination import (
    DisseminationResult,
    NodeLedger,
    PATCH_CYCLES_PER_BYTE,
    ReportModel,
    disseminate,
)
from .topology import Topology, build_topology, grid, line, random_geometric

__all__ = [
    "DisseminationResult",
    "NodeLedger",
    "PATCH_CYCLES_PER_BYTE",
    "ReportModel",
    "Topology",
    "build_topology",
    "disseminate",
    "grid",
    "line",
    "random_geometric",
]

from .lossy import LossyResult, NACK_BYTES, disseminate_lossy

__all__ += ["LossyResult", "NACK_BYTES", "disseminate_lossy"]

from .errors import DisconnectedTopologyError, DisseminationIncomplete
from .faults import (
    FaultPlan,
    NodeCrash,
    PartitionWindow,
    PowerTrace,
    generate_fault_plan,
    generate_power_traces,
)
from .node_state import (
    NodeUpdateState,
    ScriptPacket,
    packet_crc,
    packetise_blob,
)
from .profiles import (
    BATTERYLESS_HARVEST,
    DeviceProfile,
    LORAWAN_DR3,
    MICA2_PROFILE,
    PROFILES,
    get_profile,
)
from .campaign import CampaignReport, PROTOCOLS, ROUND_S, run_campaign

__all__ += [
    "BATTERYLESS_HARVEST",
    "CampaignReport",
    "DeviceProfile",
    "DisconnectedTopologyError",
    "DisseminationIncomplete",
    "FaultPlan",
    "LORAWAN_DR3",
    "MICA2_PROFILE",
    "NodeCrash",
    "NodeUpdateState",
    "PROFILES",
    "PROTOCOLS",
    "PartitionWindow",
    "PowerTrace",
    "ROUND_S",
    "ScriptPacket",
    "generate_fault_plan",
    "generate_power_traces",
    "get_profile",
    "packet_crc",
    "packetise_blob",
    "run_campaign",
]

from .kernel import (
    ALWAYS_ON,
    DutyCycle,
    EventHandle,
    KernelReport,
    LPL_1,
    LPL_10,
    SimKernel,
    rounds_equivalent,
)
from .fleet_sim import FleetNode, FleetSim
from .gossip import GossipParams, run_gossip
from .trickle import TrickleParams, run_trickle

__all__ += [
    "ALWAYS_ON",
    "DutyCycle",
    "EventHandle",
    "FleetNode",
    "FleetSim",
    "GossipParams",
    "KernelReport",
    "LPL_1",
    "LPL_10",
    "SimKernel",
    "TrickleParams",
    "rounds_equivalent",
    "run_gossip",
    "run_trickle",
]
