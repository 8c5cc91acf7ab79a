"""repro — reproduction of *"UCC: Update-Conscious Compilation for
Energy Efficiency in Wireless Sensor Networks"* (Li, Zhang, Yang,
Zheng; PLDI 2007).

Quick tour
----------

>>> from repro import UpdateConfig, compile_source, plan_update
>>> from repro.workloads import CASES
>>> case = CASES["6"]
>>> old = compile_source(case.old_source)
>>> ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
>>> gcc = plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="gcc"))
>>> ucc.diff_inst <= gcc.diff_inst
True

The typed configs above are the supported surface (:mod:`repro.api`)
and the only way to set a planning knob.  Batches go through
:class:`repro.service.FleetUpdateService` (``repro batch`` on the CLI).

Subpackages (see DESIGN.md for the full inventory):

* :mod:`repro.lang`      — the ucc-C front end
* :mod:`repro.ir`        — three-address IR, CFG, liveness
* :mod:`repro.opt`       — optimization passes
* :mod:`repro.isa`       — AVR-flavoured target ISA + assembler
* :mod:`repro.codegen`   — instruction selection
* :mod:`repro.regalloc`  — baselines, chunks, preferences, UCC-RA (+ILP)
* :mod:`repro.ilp`       — simplex + branch & bound + scipy backend
* :mod:`repro.datalayout`— GCC-DA / UCC-DA
* :mod:`repro.diff`      — edit scripts, differ, patcher, packets
* :mod:`repro.energy`    — Mica2 power model, eqs. 18-19
* :mod:`repro.sim`       — instruction-level mote simulator
* :mod:`repro.net`       — topologies + flooding dissemination
* :mod:`repro.core`      — compiler, update planner, OTA session
* :mod:`repro.workloads` — benchmark programs + update cases
"""

__version__ = "1.0.0"

from .config import (
    CompileConfig,
    FleetJob,
    TopologySpec,
    UpdateConfig,
)
from .core import (
    CompiledProgram,
    Compiler,
    UpdatePlanner,
    UpdateResult,
    UpdateSession,
    compile_source,
    measure_cycles,
    plan_update,
)
from .energy import DEFAULT_ENERGY_MODEL, MICA2, EnergyModel, PowerModel

__all__ = [
    "CompileConfig",
    "CompiledProgram",
    "Compiler",
    "DEFAULT_ENERGY_MODEL",
    "EnergyModel",
    "FleetJob",
    "MICA2",
    "PowerModel",
    "TopologySpec",
    "UpdateConfig",
    "UpdatePlanner",
    "UpdateResult",
    "UpdateSession",
    "__version__",
    "compile_source",
    "measure_cycles",
    "plan_update",
]
