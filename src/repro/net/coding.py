"""Coded transfer: XOR parity batches and a systematic LT fountain.

On a lossy link the flood campaign repairs losses *by name*: a NACK
advertises the exact missing sequence numbers and the sender
retransmits those packets, paying one round trip per repair wave.
Cooperative Coded Data Dissemination (PAPERS.md) replaces that with
*rateless* repair: the ``k`` script packets form one **generation**,
senders emit random GF(2) combinations of the generation, and a
receiver recovers the whole generation from **any** ``k`` linearly
independent coded packets — about ``k(1+ε)`` receptions — with no
feedback channel at all.

Two schemes, matched to the two dissemination machineries:

* ``"lt"`` — a systematic Luby-Transform fountain for the flood
  campaign (:func:`run_coded_campaign`): the first ``k`` coded packets
  are the source packets themselves (systematic prefix — a loss-free
  link pays zero overhead), later packets XOR ``d`` source packets
  with ``d`` drawn from the robust soliton distribution.  Every
  stream is seeded ``"repro-coding:<seed>:<sender>"`` so the whole
  campaign is deterministic and replayable.
* ``"xor"`` — per-burst parity for the event-kernel protocols
  (Trickle/gossip): every ``group`` data packets of a burst are
  followed by one XOR parity packet, so a receiver that lost exactly
  one packet of the group repairs it locally instead of waiting a
  whole Trickle interval for a fresh ADV/REQ/DATA exchange.

Determinism: coefficient masks are pure functions of the stream seed
and the packet's sequence number; two runs with the same inputs
produce byte-identical reports (pinned by tests and by the
``lossy1k_coded_vs_nack`` answer in ``tests/golden/answers.json``).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD
from ..energy.power_model import MICA2, PowerModel
from ..obs import metrics, trace
from .campaign import DEFAULT_STALL_LIMIT, _CampaignEngine
from .errors import NetConfigError
from .faults import FaultPlan
from .node_state import APPLY_ROUNDS, packetise_blob
from .topology import Topology

#: Legal coding schemes (see module docstring).
CODING_SCHEMES = ("lt", "xor")

#: Wire bytes of a coded packet's header beyond the payload: the
#: generation id, the 32-bit stream seed and the sequence number the
#: receiver re-derives the coefficient mask from.
CODE_HEADER_BYTES = 8


@dataclass(frozen=True)
class CodedTransferParams:
    """Knobs of one coded transfer (frozen, content-addressable).

    ``scheme`` picks the machinery (``"lt"`` for the flood campaign,
    ``"xor"`` for the kernel protocols); ``overhead`` is the fountain's
    ε — the fraction of extra coded packets a sender budgets beyond
    ``k`` per epoch; ``burst`` caps coded packets per broadcast;
    ``group`` is the XOR parity group size; ``seed`` derives every
    coefficient stream.
    """

    scheme: str = "lt"
    overhead: float = 0.25
    burst: int = 8
    group: int = 4
    seed: int = 1

    def __post_init__(self) -> None:
        if self.scheme not in CODING_SCHEMES:
            raise NetConfigError(
                "scheme", self.scheme,
                f"coding scheme must be one of {CODING_SCHEMES}, "
                f"got {self.scheme!r}",
            )
        if not 0.0 <= self.overhead <= 2.0:
            raise NetConfigError(
                "overhead", self.overhead,
                f"coding overhead ε must be in [0, 2], got {self.overhead}",
            )
        if self.burst < 1:
            raise NetConfigError(
                "burst", self.burst, f"burst must be >= 1, got {self.burst}"
            )
        if self.group < 2:
            raise NetConfigError(
                "group", self.group,
                f"XOR parity group must be >= 2, got {self.group}",
            )


@lru_cache(maxsize=128)
def _soliton_table(k: int) -> "Tuple[float, Tuple[float, ...]]":
    """The robust soliton's total weight and running sums over degrees
    ``1..k`` (Luby 2002, c=0.1, delta=0.5), built once per ``k``."""
    c, delta = 0.1, 0.5
    r = c * math.log(k / delta) * math.sqrt(k)
    spike = max(1, min(k, int(round(k / r)))) if r > 0 else 1
    rho = [0.0] * (k + 1)
    rho[1] = 1.0 / k
    for d in range(2, k + 1):
        rho[d] = 1.0 / (d * (d - 1))
    tau = [0.0] * (k + 1)
    for d in range(1, spike):
        tau[d] = r / (d * k)
    tau[spike] = r * math.log(r / delta) / k if r > 1 else 0.0
    weights = [rho[d] + max(0.0, tau[d]) for d in range(k + 1)]
    running = []
    acc = 0.0
    for d in range(1, k + 1):
        acc += weights[d]
        running.append(acc)
    return sum(weights), tuple(running)


def robust_soliton_degree(k: int, rng: random.Random) -> int:
    """Draw one LT degree from the robust soliton distribution.

    The distribution is built once per ``k`` and sampled by inverse CDF,
    so the draw consumes exactly one ``rng.random()`` — the property
    the determinism tests pin.
    """
    if k <= 1:
        return 1
    total, running = _soliton_table(k)
    index = bisect_left(running, rng.random() * total)  # first u <= running sum
    return index + 1 if index < k else k


def xor_packets(mask: int, padded: "List[bytes]") -> bytes:
    """The XOR of the source packets whose bits are set in ``mask``."""
    value = 0
    index = 0
    while mask:
        if mask & 1:
            value ^= int.from_bytes(padded[index], "little")
        mask >>= 1
        index += 1
    return value.to_bytes(len(padded[0]), "little")


class LTStream:
    """Deterministic systematic LT coded-packet stream over ``k`` source
    packets.

    Packet ``i`` for ``i < k`` is the source packet itself (systematic
    prefix); later packets carry a random combination.  The coefficient
    mask of sequence ``i`` is a pure function of ``(label, i)``, so a
    receiver reconstructs it from the 8-byte header alone.
    """

    def __init__(self, k: int, label: str):
        if k < 1:
            raise NetConfigError("k", k, f"generation needs >= 1 packet, got {k}")
        self.k = k
        self.label = label

    def mask_at(self, sequence: int) -> int:
        if sequence < self.k:
            return 1 << sequence
        rng = random.Random(f"repro-lt:{self.label}:{sequence}")
        degree = robust_soliton_degree(self.k, rng)
        mask = 0
        while bin(mask).count("1") < degree:
            mask |= 1 << rng.randrange(self.k)
        return mask

    def payload_at(self, sequence: int, padded: "List[bytes]") -> bytes:
        return xor_packets(self.mask_at(sequence), padded)


class GenerationDecoder:
    """Incremental GF(2) decoder for one ``k``-packet generation.

    Receiving a coded packet reduces its coefficient mask against the
    accumulated basis; an innovative packet raises the rank by one, a
    dependent one is discarded.  At rank ``k`` the basis is solved by
    Gauss–Jordan elimination and the original payloads fall out.
    """

    def __init__(self, k: int):
        self.k = k
        #: pivot bit -> (mask, payload) with ``mask``'s lowest set bit
        #: at the pivot; payloads are little-endian ints, XORed whole
        self.rows: Dict[int, Tuple[int, int]] = {}
        self.width = 0  # payload bytes

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def complete(self) -> bool:
        return self.rank >= self.k

    def add(self, mask: int, payload: bytes) -> bool:
        """Fold one coded packet in; True when it was innovative."""
        self.width = len(payload)
        work = int.from_bytes(payload, "little")
        while mask:
            pivot = mask & -mask
            row = self.rows.get(pivot)
            if row is None:
                self.rows[pivot] = (mask, work)
                return True
            rmask, rpayload = row
            mask ^= rmask
            work ^= rpayload
        return False

    def payloads(self) -> "List[bytes]":
        """The decoded source packets (requires ``complete``)."""
        if not self.complete:
            raise NetConfigError(
                "rank", self.rank,
                f"generation not decodable: rank {self.rank} < k {self.k}",
            )
        masks: Dict[int, int] = {}
        payloads: Dict[int, int] = {}
        for pivot, (mask, payload) in self.rows.items():
            masks[pivot] = mask
            payloads[pivot] = payload
        # Back-substitute from the highest pivot down.  By induction the
        # row being processed is already a unit vector (every higher bit
        # was eliminated from it in an earlier iteration), so XORing it
        # into the others clears exactly its pivot bit.
        for pivot in sorted(masks, reverse=True):
            source = payloads[pivot]
            for other in masks:
                if other != pivot and masks[other] & pivot:
                    masks[other] ^= pivot
                    payloads[other] ^= source
        return [
            payloads[1 << index].to_bytes(self.width, "little")
            for index in range(self.k)
        ]


def decode_generation(
    k: int, blob_len: int, payload_per_packet: int,
    received: "List[Tuple[int, bytes]]",
) -> "Optional[bytes]":
    """Decode a whole blob from ``(mask, payload)`` coded packets.

    Returns the reassembled blob, or ``None`` when the received set has
    insufficient rank — the primitive the hypothesis property tests
    drive with arbitrary packet subsets.
    """
    decoder = GenerationDecoder(k)
    for mask, payload in received:
        decoder.add(mask, payload)
        if decoder.complete:
            break
    if not decoder.complete:
        return None
    blob = b"".join(decoder.payloads())
    return blob[:blob_len]


def pad_packets(blob: bytes, payload_per_packet: int) -> "List[bytes]":
    """The generation's source packets, zero-padded to equal length."""
    packets = packetise_blob(blob, payload_per_packet)
    if not packets:
        return []
    return [
        pkt.payload.ljust(payload_per_packet, b"\x00") for pkt in packets
    ]


# ---------------------------------------------------------------------------
# Coded flood campaign (decode-and-forward fountain)
# ---------------------------------------------------------------------------


class _FountainEngine(_CampaignEngine):
    """The flood campaign engine with a decode-and-forward fountain as
    its round body.

    The base engine keeps the round loop, fault-plan events, the stall
    rule and the report; this class replaces the round body (server
    election, coded bursts, rank-``k`` commit) and the two class
    constants.  A node's decoder is volatile: it lives only while the
    node's state is ``receiving``, so the crash handler's state change
    discards it and the node restarts from rank zero after reboot.
    """

    RNG_STREAM = "coding"
    CRASH_LOSS = "decoder state lost"

    def __init__(
        self,
        topology: Topology,
        blob: bytes,
        plan: FaultPlan,
        params: CodedTransferParams,
        *,
        payload_per_packet: int,
        overhead_per_packet: int,
        **engine,
    ):
        super().__init__(
            topology,
            blob,
            plan,
            payload_per_packet=payload_per_packet,
            overhead_per_packet=overhead_per_packet,
            apply_rounds=APPLY_ROUNDS,
            **engine,
        )
        self.params = params
        self.padded = pad_packets(blob, payload_per_packet)
        self.packet_bits = 8 * (
            payload_per_packet + overhead_per_packet + CODE_HEADER_BYTES
        )
        self.streams = [
            LTStream(max(self.count, 1), f"repro-coding:{params.seed}:{sender}")
            for sender in range(self.node_count)
        ]
        self.next_seq = [0] * self.node_count
        self.decoders: Dict[int, GenerationDecoder] = {}

    def decoder(self, node: int) -> GenerationDecoder:
        """``node``'s decoder, started afresh unless it is receiving."""
        state = self.states[node]
        if state.state != "receiving":
            state.state = "receiving"
            self.decoders[node] = GenerationDecoder(self.count)
        return self.decoders[node]

    def run_phases(self) -> None:
        """One round: server election, coded bursts, rank-k commit."""
        states = self.states
        neighbors = self.topology.neighbors
        ledgers = self.ledgers
        plan = self.plan
        rounds = self.rounds
        side = self.link_gate.sides(rounds)
        rng_link = self.rng_link
        loss = self.loss
        tx_j = self.packet_bits * self.power.tx_bit_energy_j
        rx_j = self.packet_bits * self.power.rx_bit_energy_j

        # -- server election ----------------------------------------------
        # Each needy node elects its lowest-indexed decoded neighbour as
        # its server (receivers advertise their rank deficit, the
        # election is implicit in who they listen to); a server's burst
        # covers every needy peer in range at once — the coded
        # multicast gain, since every coded packet is innovative to
        # every receiver regardless of *which* packets each one lost.
        servers: Dict[int, int] = {}
        for node in range(1, self.node_count):
            state = states[node]
            if state.committed or not state.alive or node in self.unreachable:
                continue
            candidates = [
                peer
                for peer in neighbors.get(node, ())
                if states[peer].committed
                and states[peer].alive
                and (side is None or side[node] == side[peer])
            ]
            if candidates:
                chosen = min(candidates)
                deficit = self.count - self.decoder(node).rank
                servers[chosen] = max(servers.get(chosen, 0), deficit)

        # -- coded bursts --------------------------------------------------
        for sender in sorted(servers):
            needy = [
                (peer, self.decoder(peer))
                for peer in neighbors.get(sender, ())
                if states[peer].alive
                and not states[peer].committed
                and (side is None or side[sender] == side[peer])
            ]
            if not needy:
                continue
            # Send just enough for the worst-off elector to finish in
            # expectation, capped by the burst budget.
            shots = min(
                self.params.burst,
                max(1, math.ceil(servers[sender] / (1.0 - loss))),
            )
            stream = self.streams[sender]
            for _ in range(shots):
                sequence = self.next_seq[sender]
                self.next_seq[sender] += 1
                mask = stream.mask_at(sequence)
                payload = xor_packets(mask, self.padded)
                self.broadcasts += 1
                ledgers[sender].tx_j += tx_j
                ledgers[sender].packets_sent += 1
                for peer, decoder in needy:
                    ledgers[peer].rx_j += rx_j
                    if rng_link.random() < loss:
                        self.drops += 1
                        continue
                    if (
                        plan.corrupt_prob
                        and self.rng_fault.random() < plan.corrupt_prob
                    ):
                        # The flipped byte fails the packet CRC before
                        # the mask ever reaches the decoder.
                        self.crc_rejections += 1
                        continue
                    if decoder.complete or not decoder.add(mask, payload):
                        self.duplicates += 1  # non-innovative: no rank gained
                        continue
                    ledgers[peer].packets_received += 1
                    self.last_progress = rounds

        # -- rank-k commit: verify, patch, flip ----------------------------
        for node in range(1, self.node_count):
            state = states[node]
            if not state.alive or state.state != "receiving":
                continue
            decoder = self.decoders[node]
            if not decoder.complete:
                continue
            if b"".join(decoder.payloads())[: len(self.blob)] != self.blob:
                # Unreachable with per-packet CRCs; never commit an
                # unverified generation.
                state.state = "idle"
                continue
            ledgers[node].cpu_j += self.patch_j
            state.commit(self.new_version)
            self.last_progress = rounds


def run_coded_campaign(
    topology: Topology,
    blob: bytes,
    plan: "FaultPlan | None" = None,
    *,
    params: "CodedTransferParams | None" = None,
    loss: float = 0.0,
    seed: int = 1,
    power: PowerModel = MICA2,
    max_rounds: int = 200,
    payload_per_packet: int = DEFAULT_PAYLOAD,
    overhead_per_packet: int = DEFAULT_OVERHEAD,
    old_version: int = 0,
    new_version: int = 1,
    stall_limit: int = DEFAULT_STALL_LIMIT,
):
    """Disseminate ``blob`` by decode-and-forward fountain coding.

    Round structure: every node that holds the decoded generation (the
    sink, plus every node that has finished decoding) broadcasts up to
    ``params.burst`` fresh coded packets from its own deterministic
    stream while any alive neighbour is still decoding; receivers
    accumulate rank and commit (boot-pointer flip, CPU patch energy)
    the round they reach rank ``k``.  No NACKs, no retransmission
    naming: a lost packet is repaired by *any* later innovative packet.

    Fault plans apply exactly as in the flood campaign, whose engine
    this runs on — crashes wipe volatile decoder state, partitions
    sever links, corruption burns a reception (the per-packet CRC
    rejects it before it reaches the decoder).  Returns a
    :class:`repro.net.campaign.CampaignReport` with ``broadcasts``
    counting coded transmissions.
    """
    coded = params if params is not None else CodedTransferParams()
    if coded.scheme != "lt":
        raise NetConfigError(
            "scheme", coded.scheme,
            "run_coded_campaign speaks the generation-level 'lt' scheme; "
            "the 'xor' burst-parity scheme belongs to the kernel protocols",
        )
    if not 0.0 <= loss < 1.0:
        raise NetConfigError(
            "loss", loss, f"loss probability {loss} out of [0, 1)"
        )
    plan = plan if plan is not None else FaultPlan()
    with trace.span(
        "net.coding.run",
        nodes=topology.node_count,
        bytes=len(blob),
        loss=loss,
    ):
        report = _FountainEngine(
            topology, blob, plan, coded,
            loss=loss, seed=seed, power=power, max_rounds=max_rounds,
            payload_per_packet=payload_per_packet,
            overhead_per_packet=overhead_per_packet,
            old_version=old_version, new_version=new_version,
            stall_limit=stall_limit,
        ).run()
    metrics.counter("net.coding.runs").inc()
    metrics.counter("net.coding.transmissions").inc(report.broadcasts)
    metrics.counter("net.coding.drops").inc(report.drops)
    metrics.counter("net.coding.energy_j").inc(report.total_energy_j)
    if report.converged:
        metrics.counter("net.coding.converged").inc()
    return report


__all__ = [
    "CODE_HEADER_BYTES",
    "CODING_SCHEMES",
    "CodedTransferParams",
    "GenerationDecoder",
    "LTStream",
    "decode_generation",
    "pad_packets",
    "robust_soliton_degree",
    "run_coded_campaign",
]
