"""The typed public API of :mod:`repro`.

This module is the supported programmatic surface.  Every entry point
takes a frozen config dataclass (:class:`CompileConfig`,
:class:`UpdateConfig`, :class:`TopologySpec`, :class:`FleetJob`), which
is the one place each planning knob is set (see ``docs/API.md``).

The surface is pinned: ``tools/check_api.py`` diffs ``__all__`` (and
each member's signature) against ``tools/api_surface.txt`` in CI, so
accidental drift fails the build.

>>> import repro.api as api
>>> from repro.workloads import CASES
>>> case = CASES["6"]
>>> old = api.compile_source(case.old_source)
>>> result = api.plan_update(old, case.new_source,
...                          config=api.UpdateConfig(ra="ucc", da="ucc"))
>>> result.diff_inst < result.diff.new_instructions
True
"""

from __future__ import annotations

from typing import Optional, Union

from .config import (
    CP_STRATEGIES,
    DA_STRATEGIES,
    PLAN_STRATEGIES,
    RA_STRATEGIES,
    CohortPlan,
    CompileConfig,
    FleetJob,
    TopologySpec,
    UpdateConfig,
    VersionGraphConfig,
    VersionSpec,
)
from .core.compiler import CompiledProgram, compile_source
from .core.session import (
    CampaignResult,
    SessionResult,
    UpdateSession,
    VersionedCampaignResult,
)
from .core.update import UpdatePlanner, UpdateResult, plan_update
from .energy import MICA2, PowerModel
from .net.campaign import PROTOCOLS, CampaignReport
from .net.coding import (
    CODING_SCHEMES,
    CodedTransferParams,
    run_coded_campaign,
)
from .net.errors import DisconnectedTopologyError, DisseminationIncomplete
from .net.faults import (
    FaultPlan,
    NodeCrash,
    PartitionWindow,
    PowerTrace,
    generate_power_traces,
)
from .net.fleet_base import FleetReport
from .net.gossip import GossipParams, run_gossip
from .net.profiles import (
    BATTERYLESS_HARVEST,
    DeviceProfile,
    LORAWAN_DR3,
    MICA2_PROFILE,
    PROFILES,
    get_profile,
)
from .net.kernel import (
    ALWAYS_ON,
    LPL_1,
    LPL_10,
    DutyCycle,
    KernelReport,
    SimKernel,
)
from .net.topology import Topology
from .net.trickle import TrickleParams, run_trickle
from .service.fleet import FleetResult, FleetUpdateService, JobOutcome, run_batch
from .versioning import (
    VersionedCampaignReport,
    VersionGraph,
    build_version_graph,
    plan_cohorts,
    run_versioned_campaign,
)


def make_session(
    deployed: CompiledProgram,
    topology: Union[TopologySpec, Topology, None] = None,
    config: Optional[UpdateConfig] = None,
    power: PowerModel = MICA2,
    loss: float = 0.0,
    loss_seed: int = 1,
) -> UpdateSession:
    """An OTA :class:`UpdateSession` over a topology (a built
    :class:`~repro.net.topology.Topology` or a declarative
    :class:`TopologySpec`; ``None`` means the default 8x8 grid)."""
    built = topology.build() if isinstance(topology, TopologySpec) else topology
    return UpdateSession(
        deployed,
        topology=built,
        power=power,
        loss=loss,
        loss_seed=loss_seed,
        config=config,
    )


__all__ = [
    "ALWAYS_ON",
    "BATTERYLESS_HARVEST",
    "CODING_SCHEMES",
    "CP_STRATEGIES",
    "CampaignReport",
    "CampaignResult",
    "CodedTransferParams",
    "CohortPlan",
    "CompileConfig",
    "CompiledProgram",
    "DA_STRATEGIES",
    "DeviceProfile",
    "DisconnectedTopologyError",
    "DisseminationIncomplete",
    "DutyCycle",
    "FaultPlan",
    "FleetJob",
    "FleetReport",
    "FleetResult",
    "FleetUpdateService",
    "GossipParams",
    "JobOutcome",
    "KernelReport",
    "LORAWAN_DR3",
    "LPL_1",
    "LPL_10",
    "MICA2_PROFILE",
    "NodeCrash",
    "PLAN_STRATEGIES",
    "PROFILES",
    "PROTOCOLS",
    "PartitionWindow",
    "PowerTrace",
    "RA_STRATEGIES",
    "SessionResult",
    "SimKernel",
    "TopologySpec",
    "TrickleParams",
    "UpdateConfig",
    "UpdatePlanner",
    "UpdateResult",
    "UpdateSession",
    "VersionGraph",
    "VersionGraphConfig",
    "VersionSpec",
    "VersionedCampaignReport",
    "VersionedCampaignResult",
    "build_version_graph",
    "compile_source",
    "generate_power_traces",
    "get_profile",
    "make_session",
    "plan_cohorts",
    "plan_update",
    "run_batch",
    "run_coded_campaign",
    "run_gossip",
    "run_trickle",
    "run_versioned_campaign",
]
