"""End-to-end pipeline: compiler, update planner, dissemination session."""

from ..config import CompileConfig
from .compiler import (
    CompiledProgram,
    Compiler,
    RA_BASELINES,
    build_data_image,
    compile_source,
)
from .update import (
    UpdatePlanner,
    UpdateResult,
    measure_cycles,
    plan_update,
    profile_program,
)

# The old name of CompileConfig.  perfbench/cases.py still imports it
# from here; drop it when that benchmark next changes.
CompilerOptions = CompileConfig

__all__ = [
    "CompiledProgram",
    "Compiler",
    "CompilerOptions",
    "RA_BASELINES",
    "UpdatePlanner",
    "UpdateResult",
    "build_data_image",
    "compile_source",
    "measure_cycles",
    "plan_update",
]

from .session import CampaignResult, SessionResult, UpdateSession

__all__ += [
    "CampaignResult",
    "SessionResult",
    "UpdateSession",
    "profile_program",
]
