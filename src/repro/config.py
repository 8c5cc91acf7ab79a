"""Typed configuration objects — the vocabulary of :mod:`repro.api`.

One frozen dataclass per decision surface; each is the only way to
set the knobs it holds:

* :class:`CompileConfig` — one baseline compile (what
  :class:`repro.core.compiler.Compiler` reads);
* :class:`UpdateConfig`  — one update plan (strategy selection plus
  every planner knob);
* :class:`TopologySpec`  — a reproducible network topology recipe;
* :class:`FleetJob`      — one job of a :class:`repro.service
  .FleetUpdateService` batch: sources + configs + network.

Everything here is immutable, validated at construction, and
content-addressable: :meth:`digest` renders the configuration to
canonical JSON and hashes it, which is what the service and solver
caches key on.  The module deliberately imports almost nothing so any
layer (CLI, planner, worker process) can depend on it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from .diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD
from .regalloc.chunks import DEFAULT_K

if TYPE_CHECKING:  # imported lazily to keep this module import-light
    from .net.faults import FaultPlan

#: Legal register-allocation strategies for update planning.
RA_STRATEGIES = ("ucc", "ucc-ilp", "gcc", "linear")
#: Legal baseline allocators for a from-scratch compile.
RA_BASELINE_NAMES = ("gcc", "linear")
#: Legal data-layout strategies.
DA_STRATEGIES = ("ucc", "gcc")
#: Legal code-placement strategies (``None`` = strategy default).
CP_STRATEGIES = ("auto", "ucc", "gcc")


def _reject_unencodable(obj):
    # A digest preimage must hold only canonical JSON primitives.  The
    # old ``default=str`` fallback would have silently serialised an
    # unknown object via repr() — which embeds a memory address for
    # anything without a custom __repr__, making the "content" digest
    # differ between two processes holding identical content.  Refuse
    # loudly instead; config values are primitives by construction.
    raise TypeError(
        f"config digest preimage contains a non-JSON value: {obj!r} "
        f"({type(obj).__name__}); digests must be pure functions of "
        f"content"
    )


def _digest_of(obj) -> str:
    blob = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_reject_unencodable
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompileConfig:
    """Knobs of one from-scratch compile."""

    #: baseline register allocator: "gcc" (graph coloring) or "linear"
    ra: str = "gcc"
    #: run the optimization passes (paper compiles with -O3)
    optimize: bool = True
    #: per-function Depth_i overrides (paper §4) as (name, depth) pairs
    depths: Tuple[Tuple[str, int], ...] = ()
    #: slack words added to every function slot at placement time
    placement_headroom: int = 0
    #: run the full repro.analysis passes after the compile
    checked: bool = False

    def __post_init__(self):
        if self.ra not in RA_BASELINE_NAMES:
            raise ValueError(
                f"CompileConfig.ra must be one of {RA_BASELINE_NAMES}, "
                f"got {self.ra!r} (update strategies like 'ucc' belong in "
                f"UpdateConfig)"
            )
        if self.placement_headroom < 0:
            raise ValueError(
                f"CompileConfig.placement_headroom must be >= 0, "
                f"got {self.placement_headroom}"
            )

    def digest(self) -> str:
        return _digest_of(asdict(self))


@dataclass(frozen=True)
class UpdateConfig:
    """Every knob of one update plan (typed ``ra``/``da``/``cp``)."""

    #: register allocation: "ucc", "ucc-ilp", or a baseline ("gcc"/"linear")
    ra: str = "ucc"
    #: data layout: "ucc" (threshold-based §4) or "gcc" (name hash)
    da: str = "ucc"
    #: code placement: "auto" (ship the smaller script), "ucc" (keep old
    #: addresses), "gcc" (pack afresh); None = strategy default ("auto"
    #: for the update-conscious allocators, "gcc" for the baselines)
    cp: Optional[str] = None
    #: run the repro.analysis passes over the planned update; None
    #: inherits the old program's ``config.checked``
    checked: Optional[bool] = None
    #: verify the sensor-side patch round-trips (cheap; on by default)
    verify: bool = True
    #: chunking threshold K (paper §3.2); 0 merges no unchanged run
    k: int = DEFAULT_K
    #: projected execution count Cnt driving eq. 18 decisions
    expected_runs: float = 1000.0
    #: UCC-DA relocation threshold SpaceT in bytes (paper §4)
    space_threshold: int = 0

    def __post_init__(self):
        if self.ra not in RA_STRATEGIES:
            raise ValueError(
                f"UpdateConfig.ra must be one of {RA_STRATEGIES}, got {self.ra!r}"
            )
        if self.da not in DA_STRATEGIES:
            raise ValueError(
                f"UpdateConfig.da must be one of {DA_STRATEGIES}, got {self.da!r}"
            )
        if self.cp is not None and self.cp not in CP_STRATEGIES:
            raise ValueError(
                f"UpdateConfig.cp must be None or one of {CP_STRATEGIES}, "
                f"got {self.cp!r}"
            )
        if self.k < 0:
            raise ValueError(f"UpdateConfig.k must be >= 0, got {self.k}")
        if self.expected_runs < 0:
            raise ValueError("UpdateConfig.expected_runs must be >= 0")

    def resolved_cp(self) -> str:
        """The effective placement strategy (strategy default applied)."""
        if self.cp is not None:
            return self.cp
        return "auto" if self.ra in ("ucc", "ucc-ilp") else "gcc"

    def digest(self) -> str:
        return _digest_of(asdict(self))


@dataclass(frozen=True)
class TopologySpec:
    """A reproducible recipe for a dissemination network."""

    #: "grid" (width x height), "line" (nodes), or "random" (nodes,
    #: radio_range, seed)
    kind: str = "grid"
    width: int = 5
    height: int = 5
    nodes: int = 8
    spacing: float = 1.0
    radio_range: float = 0.18
    seed: int = 42

    def __post_init__(self):
        if self.kind not in ("grid", "line", "random"):
            raise ValueError(
                f"TopologySpec.kind must be grid/line/random, got {self.kind!r}"
            )

    @staticmethod
    def grid(width: int, height: int, spacing: float = 1.0) -> "TopologySpec":
        return TopologySpec(kind="grid", width=width, height=height, spacing=spacing)

    @staticmethod
    def line(nodes: int, spacing: float = 1.0) -> "TopologySpec":
        return TopologySpec(kind="line", nodes=nodes, spacing=spacing)

    @staticmethod
    def random(nodes: int, radio_range: float = 0.18, seed: int = 42) -> "TopologySpec":
        return TopologySpec(
            kind="random", nodes=nodes, radio_range=radio_range, seed=seed
        )

    def node_count(self) -> int:
        return self.width * self.height if self.kind == "grid" else self.nodes

    def build(self):
        """Materialise the :class:`repro.net.topology.Topology`."""
        from .net.topology import build_topology

        return build_topology(
            self.kind,
            width=self.width,
            height=self.height,
            nodes=self.nodes,
            spacing=self.spacing,
            radio_range=self.radio_range,
            seed=self.seed,
        )

    def digest(self) -> str:
        return _digest_of(asdict(self))


@dataclass(frozen=True)
class FleetJob:
    """One update job of a fleet batch: sources + configs + network."""

    old_source: str
    new_source: str
    compile: CompileConfig = field(default_factory=CompileConfig)
    update: UpdateConfig = field(default_factory=UpdateConfig)
    #: None plans the update without disseminating it
    topology: Optional[TopologySpec] = None
    #: per-link drop probability (> 0 selects the lossy NACK protocol)
    loss: float = 0.0
    loss_seed: int = 1
    #: simulate both versions for Diff_cycle (slow)
    measure_cycles: bool = False
    #: free-form label echoed in the outcome (defaults to the index)
    job_id: str = ""
    #: non-None runs the fault-tolerant campaign controller instead of
    #: plain dissemination (requires a topology)
    fault_plan: Optional["FaultPlan"] = None
    #: campaign round budget (only meaningful with a fault plan)
    max_rounds: int = 200

    def __post_init__(self):
        if not (0.0 <= self.loss < 1.0):
            raise ValueError(f"FleetJob.loss must be in [0, 1), got {self.loss}")
        if self.max_rounds < 1:
            raise ValueError(
                f"FleetJob.max_rounds must be >= 1, got {self.max_rounds}"
            )
        if self.fault_plan is not None and self.topology is None:
            raise ValueError(
                "FleetJob.fault_plan requires a topology to inject faults into"
            )

    def digest(self) -> str:
        """Content address of the whole job (sources by hash)."""
        return _digest_of(
            {
                "old": hashlib.sha256(self.old_source.encode("utf-8")).hexdigest(),
                "new": hashlib.sha256(self.new_source.encode("utf-8")).hexdigest(),
                "compile": asdict(self.compile),
                "update": asdict(self.update),
                "topology": asdict(self.topology) if self.topology else None,
                "loss": self.loss,
                "loss_seed": self.loss_seed,
                "measure_cycles": self.measure_cycles,
                "fault_plan": asdict(self.fault_plan) if self.fault_plan else None,
                "max_rounds": self.max_rounds,
            }
        )


#: Legal per-cohort dissemination strategies (see repro.versioning).
PLAN_STRATEGIES = ("chain", "merged", "full")
#: How a merged edge's script is produced: a fresh diff of the
#: endpoint images, or diff-of-diffs composition along the chain.
MERGED_FROM = ("direct", "composed")


@dataclass(frozen=True)
class VersionSpec:
    """One version of the fleet's program — a node in the version graph.

    ``version`` is the fleet-visible integer label nodes advertise;
    ``source`` is the program text the sink compiled to that image.
    The digest hashes the source by content, so two specs with the same
    label but different programs get different addresses.
    """

    version: int
    source: str
    #: free-form release label echoed in reports ("v7-hotfix")
    label: str = ""

    def __post_init__(self):
        if self.version < 0:
            raise ValueError(
                f"VersionSpec.version must be >= 0, got {self.version}"
            )
        if not self.source.strip():
            raise ValueError(
                f"VersionSpec v{self.version} has an empty source program"
            )

    def digest(self) -> str:
        return _digest_of(
            {
                "version": self.version,
                "source": hashlib.sha256(
                    self.source.encode("utf-8")
                ).hexdigest(),
                "label": self.label,
            }
        )


@dataclass(frozen=True)
class VersionGraphConfig:
    """Knobs of version-graph construction and cohort planning.

    ``loss`` is the *planning-time* expected per-link loss the cost
    model inflates air time by; the campaign's actual loss is set where
    it runs.  ``merged_from`` picks how merged edges are produced
    (``"direct"`` re-diffs the endpoint images, ``"composed"``
    composes the chain's step scripts without touching the
    intermediate images).  ``max_chain`` bounds the longest chained
    plan the planner will consider.
    """

    merged_from: str = "direct"
    loss: float = 0.0
    payload_per_packet: int = DEFAULT_PAYLOAD
    overhead_per_packet: int = DEFAULT_OVERHEAD
    max_chain: int = 16

    def __post_init__(self):
        if self.merged_from not in MERGED_FROM:
            raise ValueError(
                f"VersionGraphConfig.merged_from must be one of "
                f"{MERGED_FROM}, got {self.merged_from!r}"
            )
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(
                f"VersionGraphConfig.loss must be in [0, 1), got {self.loss}"
            )
        if self.payload_per_packet < 1 or self.overhead_per_packet < 0:
            raise ValueError(
                f"VersionGraphConfig packet geometry invalid: payload "
                f"{self.payload_per_packet}, overhead "
                f"{self.overhead_per_packet}"
            )
        if self.max_chain < 1:
            raise ValueError(
                f"VersionGraphConfig.max_chain must be >= 1, "
                f"got {self.max_chain}"
            )

    def digest(self) -> str:
        return _digest_of(asdict(self))


@dataclass(frozen=True)
class CohortPlan:
    """The planner's verdict for one cohort of same-version nodes.

    ``path`` is the sequence of version labels the update traverses
    (``(3, 4, 5, 6, 7)`` for a chain, ``(3, 7)`` for a merged diff or
    full image); ``script_bytes`` is the wire size of the plan's blob
    and ``predicted_energy_j`` the cost model's estimate the plan was
    chosen by.
    """

    from_version: int
    to_version: int
    nodes: Tuple[int, ...]
    strategy: str
    path: Tuple[int, ...]
    script_bytes: int
    predicted_energy_j: float

    def __post_init__(self):
        if self.strategy not in PLAN_STRATEGIES:
            raise ValueError(
                f"CohortPlan.strategy must be one of {PLAN_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if len(self.path) < 2:
            raise ValueError(
                f"CohortPlan.path needs at least two versions, "
                f"got {self.path}"
            )
        if self.path[0] != self.from_version or self.path[-1] != self.to_version:
            raise ValueError(
                f"CohortPlan.path {self.path} does not run "
                f"v{self.from_version} -> v{self.to_version}"
            )
        if self.strategy != "chain" and len(self.path) != 2:
            raise ValueError(
                f"CohortPlan.strategy {self.strategy!r} is a single hop "
                f"but path {self.path} has {len(self.path) - 1}"
            )
        if not self.nodes:
            raise ValueError(
                f"CohortPlan v{self.from_version}->v{self.to_version} "
                f"has an empty cohort"
            )
        if list(self.nodes) != sorted(set(self.nodes)):
            raise ValueError(
                "CohortPlan.nodes must be sorted and unique, "
                f"got {self.nodes}"
            )
        if self.script_bytes < 0 or self.predicted_energy_j < 0.0:
            raise ValueError(
                f"CohortPlan cost fields must be non-negative: "
                f"{self.script_bytes} bytes, "
                f"{self.predicted_energy_j} J"
            )

    def digest(self) -> str:
        return _digest_of(asdict(self))


__all__ = [
    "CP_STRATEGIES",
    "DA_STRATEGIES",
    "MERGED_FROM",
    "PLAN_STRATEGIES",
    "RA_BASELINE_NAMES",
    "RA_STRATEGIES",
    "CohortPlan",
    "CompileConfig",
    "FleetJob",
    "TopologySpec",
    "UpdateConfig",
    "VersionGraphConfig",
    "VersionSpec",
]
