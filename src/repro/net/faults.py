"""Deterministic, seedable fault-injection plans for OTA campaigns.

The base network model fails in exactly one benign way — independent
packet loss repaired by NACKs.  Real deployments (the Deluge/MNP class
of protocols the paper builds on, and gossip-based code propagation)
additionally lose whole nodes mid-patch, corrupt payloads in flight,
partition for minutes at a time, and deliver duplicates.  A
:class:`FaultPlan` scripts those events ahead of time so a campaign
run is a pure function of ``(topology, script, plan, seed)`` — the
same plan always produces the byte-identical
:class:`~repro.net.campaign.CampaignReport`, which is what makes a
fuzz finding replayable.

Fault vocabulary
    * :class:`NodeCrash` — a node dies at a given round (volatile
      staging state lost) and optionally reboots later;
    * :class:`PartitionWindow` — an island of nodes is cut off from
      the rest of the network for a window of rounds (link churn);
    * ``corrupt_prob`` — each delivered payload is bit-flipped with
      this probability (caught by the receiver's per-packet CRC);
    * ``duplicate_prob`` — each delivered packet arrives twice with
      this probability (deduplicated by the staging bank).

The sink (node 0) is mains-powered and drives the campaign, so plans
never crash or partition it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

from ..obs import metrics, trace
from .errors import FaultPlanError


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` crashes at the start of round ``round``.

    A crash wipes the node's volatile staging bank and aborts any
    in-progress patch application; the boot pointer keeps targeting the
    golden image until the two-bank commit completes, so a rebooted
    node runs either the golden image or the fully verified new one —
    never a torn binary.  ``reboot_round`` of ``None`` means the node
    never returns (battery pulled).
    """

    node: int
    round: int
    reboot_round: int | None = None

    def __post_init__(self):
        if self.node < 1:
            raise FaultPlanError(
                "node", self.node,
                f"NodeCrash.node must be >= 1 (the sink never crashes), "
                f"got {self.node}",
            )
        if self.round < 1:
            raise FaultPlanError(
                "round", self.round,
                f"NodeCrash.round must be >= 1, got {self.round}",
            )
        if self.reboot_round is not None and self.reboot_round <= self.round:
            raise FaultPlanError(
                "reboot_round", self.reboot_round,
                f"NodeCrash.reboot_round must come after the crash round "
                f"{self.round}, got {self.reboot_round}",
            )


@dataclass(frozen=True)
class PartitionWindow:
    """Links between ``nodes`` and the rest are down in ``[start, end)``."""

    start: int
    end: int
    nodes: tuple[int, ...]

    def __post_init__(self):
        if self.start < 1:
            raise FaultPlanError(
                "start", self.start,
                f"PartitionWindow.start must be >= 1, got {self.start}",
            )
        if self.end <= self.start:
            raise FaultPlanError(
                "end", self.end,
                f"PartitionWindow.end must exceed start {self.start}, "
                f"got {self.end}",
            )
        if not self.nodes:
            raise FaultPlanError(
                "nodes", self.nodes,
                "PartitionWindow.nodes must not be empty",
            )
        if min(self.nodes) < 1:
            raise FaultPlanError(
                "nodes", self.nodes,
                f"PartitionWindow.nodes must be >= 1 (the sink is never "
                f"partitioned), got {min(self.nodes)}",
            )

    def severs(self, a: int, b: int, round_no: int) -> bool:
        """Is the ``a``—``b`` link down during ``round_no``?"""
        if not self.start <= round_no < self.end:
            return False
        return (a in self.nodes) != (b in self.nodes)


class LinkGate:
    """The partition rule of a whole plan, O(1) per link.

    :meth:`sides` labels every node for one round: bit ``i`` of a label
    is set when the node sits in window ``i`` and that window is active
    in the round.  The ``a``—``b`` link is up iff ``sides[a] ==
    sides[b]``: no active window has exactly one of the two ends.  One
    bit per window keeps overlapping windows apart, and island ids
    beyond the topology label nothing.  ``None`` means no window is
    active and every link is up.  The labels of the last round asked
    for are kept, so a round engine pays for them once per round.
    """

    __slots__ = ("windows", "node_count", "round_no", "labels")

    def __init__(self, windows: tuple[PartitionWindow, ...], node_count: int):
        self.windows = windows
        self.node_count = node_count
        self.round_no: int | None = None
        self.labels: list[int] | None = None

    def sides(self, round_no: int) -> list[int] | None:
        if round_no != self.round_no:
            labels = None
            for bit, window in enumerate(self.windows):
                if not window.start <= round_no < window.end:
                    continue
                if labels is None:
                    labels = [0] * self.node_count
                for node in window.nodes:
                    if node < self.node_count:
                        labels[node] |= 1 << bit
            self.round_no = round_no
            self.labels = labels
        return self.labels


@dataclass(frozen=True)
class PowerTrace:
    """A scripted power history for one node.

    ``brownout_at_j`` lists cumulative *spent*-energy thresholds (in
    joules, strictly ascending): the node browns out the moment its
    total energy spend crosses each threshold — deliberately checked
    between individual flash page writes during ``tick_apply``, the
    worst possible instants for a two-bank update.  ``harvest_scale``
    scales the profile's harvest income for this node (0 = permanently
    shaded panel, 2 = node in full sun).

    Power traces only act under an energy-limited
    :class:`~repro.net.profiles.DeviceProfile`; campaigns without one
    ignore them (and a plan without traces keeps its pre-trace digest,
    so every committed report digest survives this extension).
    """

    node: int
    brownout_at_j: tuple[float, ...] = ()
    harvest_scale: float = 1.0

    def __post_init__(self):
        if self.node < 1:
            raise FaultPlanError(
                "node", self.node,
                f"PowerTrace.node must be >= 1 (the sink is mains-powered), "
                f"got {self.node}",
            )
        if any(threshold <= 0.0 for threshold in self.brownout_at_j):
            raise FaultPlanError(
                "brownout_at_j", self.brownout_at_j,
                "PowerTrace.brownout_at_j thresholds must be positive",
            )
        if list(self.brownout_at_j) != sorted(set(self.brownout_at_j)):
            raise FaultPlanError(
                "brownout_at_j", self.brownout_at_j,
                "PowerTrace.brownout_at_j must be strictly ascending",
            )
        if self.harvest_scale < 0.0:
            raise FaultPlanError(
                "harvest_scale", self.harvest_scale,
                f"PowerTrace.harvest_scale must be >= 0, got {self.harvest_scale}",
            )


@dataclass(frozen=True)
class FaultPlan:
    """A scripted, reproducible set of faults for one campaign run.

    ``seed`` drives the per-delivery coin flips (corruption and
    duplication); crashes and partitions are scheduled explicitly so a
    plan is readable and shrinkable.
    """

    crashes: tuple[NodeCrash, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    corrupt_prob: float = 0.0
    duplicate_prob: float = 0.0
    seed: int = 0
    power_traces: tuple[PowerTrace, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.corrupt_prob < 1.0:
            raise FaultPlanError(
                "corrupt_prob", self.corrupt_prob,
                f"FaultPlan.corrupt_prob must be in [0, 1), "
                f"got {self.corrupt_prob}",
            )
        if not 0.0 <= self.duplicate_prob < 1.0:
            raise FaultPlanError(
                "duplicate_prob", self.duplicate_prob,
                f"FaultPlan.duplicate_prob must be in [0, 1), "
                f"got {self.duplicate_prob}",
            )
        crashed = [crash.node for crash in self.crashes]
        if len(crashed) != len(set(crashed)):
            raise FaultPlanError(
                "crashes", tuple(crashed),
                f"FaultPlan schedules multiple crashes for one node: {crashed}",
            )
        traced = [trace_.node for trace_ in self.power_traces]
        if len(traced) != len(set(traced)):
            raise FaultPlanError(
                "power_traces", tuple(traced),
                f"FaultPlan schedules multiple power traces for one node: "
                f"{traced}",
            )

    @property
    def is_empty(self) -> bool:
        return (
            not self.crashes
            and not self.partitions
            and self.corrupt_prob == 0.0
            and self.duplicate_prob == 0.0
            and not self.power_traces
        )

    def digest(self) -> str:
        """Content address of the plan (canonical JSON, SHA-256).

        ``power_traces`` is omitted while empty: the field postdates the
        first committed report digests, and every report embeds its
        plan's digest, so a trace-free plan must keep hashing exactly as
        it did before power traces existed.
        """
        payload = asdict(self)
        if not self.power_traces:
            del payload["power_traces"]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line human summary."""
        parts = []
        for crash in self.crashes:
            back = (
                f" (reboots r{crash.reboot_round})"
                if crash.reboot_round is not None
                else " (never reboots)"
            )
            parts.append(f"crash node {crash.node}@r{crash.round}{back}")
        for window in self.partitions:
            island = ",".join(str(n) for n in window.nodes)
            parts.append(f"partition {{{island}}} r{window.start}-r{window.end}")
        if self.corrupt_prob:
            parts.append(f"corrupt p={self.corrupt_prob:g}")
        if self.duplicate_prob:
            parts.append(f"duplicate p={self.duplicate_prob:g}")
        for trace_ in self.power_traces:
            cuts = ",".join(f"{j:g}J" for j in trace_.brownout_at_j)
            detail = f"brownout@{cuts}" if cuts else "no cuts"
            if trace_.harvest_scale != 1.0:
                detail += f" harvest x{trace_.harvest_scale:g}"
            parts.append(f"power node {trace_.node}: {detail}")
        return "; ".join(parts) if parts else "no faults"


def generate_fault_plan(
    rng: random.Random,
    node_count: int,
    max_rounds: int = 120,
    intensity: float = 1.0,
) -> FaultPlan:
    """Draw a random fault plan from ``rng`` — the fuzz mutator dimension.

    ``intensity`` scales how eventful the plan is (1.0 ≈ a rough but
    usually recoverable deployment).  Deterministic: the plan is a pure
    function of the RNG state.
    """
    with trace.span("net.fault.plan", nodes=node_count):
        crashes = []
        candidates = list(range(1, node_count))
        rng.shuffle(candidates)
        crash_budget = min(len(candidates), max(0, round(3 * intensity)))
        for node in candidates[: rng.randint(0, crash_budget)]:
            crash_round = rng.randint(1, max(1, max_rounds // 3))
            if rng.random() < 0.7:  # most crashed nodes come back
                reboot = crash_round + rng.randint(1, max(2, max_rounds // 4))
            else:
                reboot = None
            crashes.append(
                NodeCrash(node=node, round=crash_round, reboot_round=reboot)
            )

        partitions = []
        if node_count > 3 and rng.random() < 0.5 * intensity:
            island_size = rng.randint(1, max(1, (node_count - 1) // 3))
            island = tuple(
                sorted(rng.sample(range(1, node_count), island_size))
            )
            start = rng.randint(1, max(1, max_rounds // 3))
            end = start + rng.randint(2, max(3, max_rounds // 4))
            partitions.append(
                PartitionWindow(start=start, end=end, nodes=island)
            )

        corrupt = round(rng.uniform(0.0, 0.15 * intensity), 3)
        duplicate = round(rng.uniform(0.0, 0.10 * intensity), 3)
        plan = FaultPlan(
            crashes=tuple(crashes),
            partitions=tuple(partitions),
            corrupt_prob=corrupt if rng.random() < 0.6 else 0.0,
            duplicate_prob=duplicate if rng.random() < 0.4 else 0.0,
            seed=rng.randint(0, 2**31 - 1),
        )
    metrics.counter("net.fault.plans").inc()
    return plan


def generate_power_traces(
    rng: random.Random,
    node_count: int,
    *,
    storage_j: float,
    intensity: float = 1.0,
    scale_j: "float | None" = None,
) -> tuple[PowerTrace, ...]:
    """Draw seeded power traces — the intermittent-power fuzz dimension.

    Thresholds are drawn between a few percent and the whole of the
    *energy scale*: ``scale_j`` when the caller provides one (the
    fuzzer passes the blob's flash-write cost, so cuts land between
    individual page writes of the apply), else ``storage_j`` (the
    profile's capacitor size).  ``intensity`` scales how many nodes get
    traces and how many cuts each suffers.  Deterministic: a pure
    function of the RNG state.
    """
    if storage_j <= 0.0:
        raise FaultPlanError(
            "storage_j", storage_j,
            "generate_power_traces needs an energy-limited profile "
            "(storage_j > 0) to scale brownout thresholds",
        )
    if scale_j is not None and scale_j <= 0.0:
        raise FaultPlanError(
            "scale_j", scale_j,
            "generate_power_traces scale_j must be positive when given",
        )
    scale = scale_j if scale_j is not None else storage_j
    with trace.span("net.profile.power_plan", nodes=node_count):
        traces = []
        candidates = list(range(1, node_count))
        rng.shuffle(candidates)
        budget = min(len(candidates), max(1, round(3 * intensity)))
        for node in candidates[: rng.randint(1, budget)]:
            cuts = sorted(
                round(rng.uniform(0.02, 1.0) * scale, 9)
                for _ in range(rng.randint(1, max(1, round(2 * intensity))))
            )
            thresholds = tuple(dict.fromkeys(cuts))
            scale = round(rng.uniform(0.25, 2.0), 3) if rng.random() < 0.5 else 1.0
            traces.append(
                PowerTrace(
                    node=node,
                    brownout_at_j=thresholds,
                    harvest_scale=scale,
                )
            )
        traces.sort(key=lambda trace_: trace_.node)
    metrics.counter("net.profile.power_plans").inc()
    return tuple(traces)


__all__ = [
    "FaultPlan",
    "NodeCrash",
    "PartitionWindow",
    "PowerTrace",
    "generate_fault_plan",
    "generate_power_traces",
]
