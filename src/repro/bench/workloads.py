"""Pinned benchmark workloads, one list per area.

Each workload is a named, deterministic unit of work drawn from the
paper's experiments:

* ``compile`` — the Figure 8 benchmark programs, compiled end to end
  (front end, register allocation, selection, assembly);
* ``ilp``     — the Figure 13-15 ILP jobs: build the chunk model for a
  synthetic straight-line function of pinned size, lower it, and solve
  it with the instrumented branch & bound;
* ``diff``    — the Figure 9 update cases, planned end to end to an
  edit script;
* ``campaign`` — the Figure 10 / acceptance 16-job fleet batch through
  :class:`~repro.service.FleetUpdateService`, cold and warm;
* ``dissemination`` — flood and event-kernel protocols
  (``docs/SIMULATOR.md``): the pinned lossy 1k-node flood-vs-Trickle
  comparison whose committed baseline records the transmission ratio,
  a 5k-node Trickle convergence (the CI smoke workload), and a faulted
  flood campaign on a 12x12 grid whose committed digest pins the
  flood engine's answer;
* ``versioning`` — the version-graph planner (``docs/VERSIONING.md``):
  the pinned lossy 1k-node fleet with cohorts at v3/v5/v6 converging
  to v7, run once with the planner's plans and once with forced full
  images (the committed baseline pins the planner's modeled energy
  advantage), plus the coded-vs-NACK transfer comparison whose
  baseline pins the fountain code's transmission advantage;
* ``profiles`` — the adversarial device profiles
  (``docs/SIMULATOR.md``): the Mica2 neutrality check (a profiled
  campaign byte-identical to an unprofiled one), the LoRaWAN DR3
  duty-cycle campaign whose baseline pins the deferral count and zero
  airtime violations, and the battery-less harvest campaign whose
  baseline pins brownout/resume counts and the fleet lifetime
  metrics.

A workload's ``job`` callable returns ``(digest, metrics)``.  The
digest must be a pure function of the answer (never of wall time), so
the harness can check it is the same on every rep and equal to the
committed baseline's.  Only the ILP kernels have a second, reference
implementation (:mod:`repro.ilp.fastpath`), so only the areas in
``PAIRED_AREAS`` are also run on the reference path: the harness
certifies those answers bit-identical while it measures the speedup.
``metrics`` entries named in ``EQUAL_METRICS`` are asserted equal
between the two paths as well (iteration counts are guaranteed equal
by the kernel contract).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from ..config import CompileConfig, FleetJob, UpdateConfig
from ..core import compile_source, plan_update
from ..core.compiler import Compiler, CompilerOptions
from ..energy import DEFAULT_ENERGY_MODEL
from ..ilp.branch_bound import solve_branch_bound
from ..ilp.canonical import SOLVE_CACHE
from ..ir import analyze, static_frequencies
from ..regalloc import allocate_ucc_greedy, build_chunk_model
from ..regalloc.chunks import changed_indices
from ..regalloc.ilp_ra import build_spec_for_chunk
from ..workloads import CASES
from ..workloads.programs import PROGRAMS

AREAS = (
    "compile",
    "ilp",
    "diff",
    "campaign",
    "dissemination",
    "versioning",
    "profiles",
)

#: Metric keys that must be equal between the fast and reference runs
#: of one workload (on top of the digest, which always must).
EQUAL_METRICS = ("constraints", "variables", "simplex_iterations", "lp_solves")

#: Areas whose workloads time the switched ILP kernels, so the harness
#: runs them on both paths; every other area has one implementation
#: and is timed once per rep.
PAIRED_AREAS = ("ilp",)


@dataclass(frozen=True)
class Workload:
    """One pinned unit of work.

    ``setup`` builds the (mode-independent) payload once; ``job`` runs
    the measured work and returns ``(digest, metrics)``.
    """

    name: str
    setup: Callable[[], object]
    job: Callable[[object], "tuple[str, dict]"]


def _sha(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# ilp: Figure 13-15 jobs
# ---------------------------------------------------------------------------

#: Statement counts of the pinned Figure 13-15 sweep.
ILP_SIZES = (8, 12, 16, 20, 24, 32)


def synthetic_chunk_source(n_stmts: int, n_vars: int = 3) -> str:
    """A straight-line function of ``n_stmts`` statements over
    ``n_vars`` u8 locals — the same shape the Figure 13-15 benchmarks
    sweep (``benchmarks/conftest.py``)."""
    decls = "\n    ".join(f"u8 v{i} = {i + 1};" for i in range(n_vars))
    ops = ["+", "^", "|", "&", "-"]
    lines = []
    for s in range(n_stmts):
        dst = s % n_vars
        lhs = (s + 1) % n_vars
        rhs = (s + 2) % n_vars
        op = ops[s % len(ops)]
        lines.append(f"v{dst} = v{lhs} {op} v{rhs};")
    body = "\n    ".join(lines)
    uses = " ^ ".join(f"v{i}" for i in range(n_vars))
    return f"""
void f() {{
    {decls}
    {body}
    led_set({uses});
}}
void main() {{ f(); halt(); }}
"""


def ilp_spec(n_stmts: int, candidates: int = 3):
    """The chunk-allocation ILP spec for a synthetic function of
    ``n_stmts`` statements."""
    source = synthetic_chunk_source(n_stmts)
    old = compile_source(source)
    module = Compiler(CompilerOptions()).front_and_middle(source)
    fn = module.functions["f"]
    record, report = allocate_ucc_greedy(
        fn, old.module.functions["f"], old.records["f"]
    )
    info = analyze(fn)
    freqs = static_frequencies(fn)
    changed = changed_indices(fn, report.match)
    return build_spec_for_chunk(
        fn,
        info,
        record,
        report,
        0,
        len(fn.instrs),
        changed,
        freqs,
        DEFAULT_ENERGY_MODEL,
        1000.0,
        candidates,
    )


def _ilp_job(spec) -> "tuple[str, dict]":
    program = build_chunk_model(spec)
    result = solve_branch_bound(program)
    digest = _sha(
        {
            "status": result.status,
            "values": sorted(result.values.items()),
            "objective": repr(result.objective),
        }
    )
    return digest, {
        "variables": program.num_variables,
        "constraints": program.num_constraints,
        "simplex_iterations": result.stats.simplex_iterations,
        "lp_solves": result.stats.lp_solves,
        "time_per_iteration_us": round(result.stats.time_per_iteration * 1e6, 3),
    }


def _ilp_workloads() -> list[Workload]:
    return [
        Workload(
            name=f"fig13_15_n{size:02d}",
            setup=(lambda size=size: ilp_spec(size)),
            job=_ilp_job,
        )
        for size in ILP_SIZES
    ]


# ---------------------------------------------------------------------------
# compile: Figure 8 programs
# ---------------------------------------------------------------------------


def _compile_job(source: str) -> "tuple[str, dict]":
    program = compile_source(source)
    image = program.image
    digest = _sha(
        {
            "code": hashlib.sha256(image.to_bytes()).hexdigest(),
            "data": hashlib.sha256(image.data).hexdigest(),
            "entry": image.entry,
        }
    )
    return digest, {
        "instructions": image.instruction_count(),
        "size_bytes": image.size_bytes,
    }


def _compile_workloads() -> list[Workload]:
    return [
        Workload(
            name=f"fig08_{name}",
            setup=(lambda name=name: PROGRAMS[name]),
            job=_compile_job,
        )
        for name in sorted(PROGRAMS)
    ]


# ---------------------------------------------------------------------------
# diff: Figure 9 update cases
# ---------------------------------------------------------------------------

#: Update cases of the Figure 9 grid the diff area re-plans (the full
#: grid lives in ``benchmarks/test_fig09_update_cases.py``; these six
#: span data-only, code-only, and mixed edits).
DIFF_CASE_IDS = ("1", "3", "6", "9", "12", "13")


def _diff_job(payload) -> "tuple[str, dict]":
    old, new_source = payload
    # The process-wide solve memo would let later reps skip the work
    # earlier reps already paid for; start every rep cold.
    SOLVE_CACHE.clear()
    result = plan_update(old, new_source, config=UpdateConfig(ra="ucc", da="ucc"))
    script = result.diff.script
    blob = script.to_bytes()
    digest = _sha(
        {
            "script": hashlib.sha256(blob).hexdigest(),
            "data": hashlib.sha256(result.data_script.to_bytes()).hexdigest(),
        }
    )
    return digest, {
        "script_bytes": len(blob),
        "diff_inst": result.diff.diff_inst,
    }


def _diff_workloads() -> list[Workload]:
    def make_setup(case_id):
        def setup():
            case = CASES[case_id]
            return compile_source(case.old_source), case.new_source

        return setup

    return [
        Workload(name=f"fig09_case{case_id}", setup=make_setup(case_id), job=_diff_job)
        for case_id in DIFF_CASE_IDS
    ]


# ---------------------------------------------------------------------------
# campaign: the 16-job fleet batch, cold and warm
# ---------------------------------------------------------------------------

#: (case_id, ra, da) grid of the acceptance batch — 16 jobs over the
#: Figure 9 cases, mirroring ``tests/test_service.py``.
CAMPAIGN_GRID = tuple(
    (case_id, ra, da)
    for case_id in ("1", "3", "6", "9")
    for ra, da in (("ucc", "ucc"), ("ucc-ilp", "ucc"), ("gcc", "gcc"), ("linear", "ucc"))
)


def _campaign_jobs() -> list[FleetJob]:
    jobs = []
    for case_id, ra, da in CAMPAIGN_GRID:
        case = CASES[case_id]
        jobs.append(
            FleetJob(
                old_source=case.old_source,
                new_source=case.new_source,
                compile=CompileConfig(),
                update=UpdateConfig(ra=ra, da=da),
                topology=None,
                job_id=f"case{case_id}/{ra}/{da}",
            )
        )
    return jobs


def _campaign_job(jobs) -> "tuple[str, dict]":
    # A fresh service per run: the measured unit is the cold batch plus
    # the warm-cache replay (the paper's fleet re-acceptance pattern).
    # Clear the process-wide solve memo so every rep pays the same
    # cold-batch ILP work.
    from ..service import FleetUpdateService

    SOLVE_CACHE.clear()
    service = FleetUpdateService(workers=1)
    cold = service.run(jobs)
    warm = service.run(jobs)
    cold_metrics = [outcome.key_metrics() for outcome in cold.outcomes]
    warm_metrics = [outcome.key_metrics() for outcome in warm.outcomes]
    digest = _sha({"cold": cold_metrics, "warm": warm_metrics})
    return digest, {
        "jobs": len(jobs),
        "ok": int(cold.ok and warm.ok),
        "job_cache_hits": warm.job_cache_hits,
    }


def _campaign_workloads() -> list[Workload]:
    return [
        Workload(name="fig10_batch16", setup=_campaign_jobs, job=_campaign_job)
    ]


# ---------------------------------------------------------------------------
# dissemination: event-kernel protocols (docs/SIMULATOR.md)
# ---------------------------------------------------------------------------

#: The pinned 600-byte script blob every dissemination workload pushes
#: (28 packets at the default 22-byte payload).
DISSEMINATION_BLOB = bytes(range(256)) * 2 + bytes(88)


def _flood_vs_trickle_payload():
    from ..diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD, Packetisation
    from ..net.topology import random_geometric

    topology = random_geometric(1000, radio_range=0.1, seed=3)
    packets = Packetisation(
        len(DISSEMINATION_BLOB), DEFAULT_PAYLOAD, DEFAULT_OVERHEAD
    )
    return topology, packets


def _flood_vs_trickle_job(payload) -> "tuple[str, dict]":
    from ..net.lossy import disseminate_lossy
    from ..net.trickle import run_trickle

    topology, packets = payload
    flood = disseminate_lossy(topology, packets, loss=0.15, seed=3)
    trickle = run_trickle(
        topology, DISSEMINATION_BLOB, loss=0.15, seed=3, max_time=600.0
    )
    digest = _sha(
        {
            "flood": {
                "broadcasts": flood.broadcasts,
                "nacks": flood.nacks,
                "rounds": flood.rounds,
                "complete": flood.complete,
            },
            "trickle": trickle.digest(),
        }
    )
    return digest, {
        "flood_broadcasts": flood.broadcasts,
        "trickle_transmissions": trickle.transmissions,
        "trickle_beacons": trickle.beacons,
        "tx_ratio": round(flood.broadcasts / trickle.transmissions, 2),
    }


def _trickle_5k_payload():
    from ..net.topology import grid

    return grid(72, 70)


def _trickle_5k_job(topology) -> "tuple[str, dict]":
    from ..net.kernel import rounds_equivalent
    from ..net.trickle import run_trickle

    report = run_trickle(
        topology, DISSEMINATION_BLOB, loss=0.05, seed=5, max_time=600.0
    )
    return report.digest(), {
        "converged": int(report.converged),
        "transmissions": report.transmissions,
        "beacons": report.beacons,
        "events": report.events,
        "rounds_equivalent": rounds_equivalent(report.time_s, 1.0),
    }


def _faulted_flood_payload():
    from ..net.faults import FaultPlan, NodeCrash, PartitionWindow
    from ..net.topology import grid

    plan = FaultPlan(
        crashes=(NodeCrash(7, 2, reboot_round=5), NodeCrash(23, 4, reboot_round=9)),
        partitions=(PartitionWindow(3, 7, (40, 41, 42, 52, 53, 54)),),
        corrupt_prob=0.01,
        duplicate_prob=0.02,
        seed=11,
    )
    return grid(12, 12), plan


def _faulted_flood_job(payload) -> "tuple[str, dict]":
    # One faulted flood campaign; the committed baseline digest pins
    # the answer.
    from ..net.campaign import run_campaign

    topology, plan = payload
    report = run_campaign(topology, DISSEMINATION_BLOB, plan, loss=0.1, seed=7)
    return report.digest(), {
        "converged": int(report.converged),
        "rounds": report.rounds,
        "quarantined": len(report.quarantined),
    }


def _dissemination_workloads() -> list[Workload]:
    return [
        Workload(
            name="lossy1k_flood_vs_trickle",
            setup=_flood_vs_trickle_payload,
            job=_flood_vs_trickle_job,
        ),
        Workload(
            name="grid5k_trickle",
            setup=_trickle_5k_payload,
            job=_trickle_5k_job,
        ),
        Workload(
            name="flood_faulted_grid12",
            setup=_faulted_flood_payload,
            job=_faulted_flood_job,
        ),
    ]


# ---------------------------------------------------------------------------
# versioning: cohort planner + coded transfer (docs/VERSIONING.md)
# ---------------------------------------------------------------------------

#: Version labels of the pinned release history (AES-128, the largest
#: paper workload at ~1.2 kB of image — full images are expensive, the
#: edits between releases are a handful of bytes).
VERSIONING_LABELS = (3, 5, 6, 7)


def _versioning_releases() -> dict:
    case = CASES["10"]
    v3, v5 = case.old_source, case.new_source
    v6 = v5.replace("u16 blocks_done = 0;", "u16 blocks_done = 1;")
    v7 = v5.replace("u16 blocks_done = 0;", "u16 blocks_done = 2;").replace(
        "blocks_done = blocks_done + 1;", "blocks_done = blocks_done + 2;"
    )
    return {3: v3, 5: v5, 6: v6, 7: v7}


def _cohort_planner_payload():
    from ..config import CohortPlan, VersionGraphConfig
    from ..net.topology import random_geometric
    from ..versioning import build_version_graph, plan_cohorts
    from ..versioning.planner import predicted_wave_energy_j

    topology = random_geometric(1000, radio_range=0.1, seed=3)
    graph = build_version_graph(
        _versioning_releases(), config=VersionGraphConfig(loss=0.15)
    )
    fleet = {0: 7}
    for node in range(1, 1000):
        fleet[node] = (3, 5, 6)[node % 3]
    plans = plan_cohorts(graph, fleet)
    full_plans = tuple(
        CohortPlan(
            from_version=plan.from_version,
            to_version=plan.to_version,
            nodes=plan.nodes,
            strategy="full",
            path=(plan.from_version, plan.to_version),
            script_bytes=graph.full_edge(
                plan.from_version, plan.to_version
            ).script_bytes,
            predicted_energy_j=predicted_wave_energy_j(
                graph.full_edge(plan.from_version, plan.to_version).script_bytes,
                node_count=1000,
                mean_degree=4.0,
                config=graph.config,
            ),
        )
        for plan in plans
    )
    return topology, graph, plans, full_plans


def _cohort_planner_job(payload) -> "tuple[str, dict]":
    from ..versioning import run_versioned_campaign

    topology, graph, plans, full_plans = payload
    planned = run_versioned_campaign(graph, plans, topology, loss=0.15, seed=3)
    full = run_versioned_campaign(graph, full_plans, topology, loss=0.15, seed=3)
    digest = _sha({"planned": planned.digest(), "full": full.digest()})
    return digest, {
        "planned_energy_j": round(planned.total_energy_j, 4),
        "full_energy_j": round(full.total_energy_j, 4),
        "energy_ratio": round(full.total_energy_j / planned.total_energy_j, 2),
        "converged": int(planned.converged and full.converged),
        "replay_identical": int(planned.replay_identical and full.replay_identical),
    }


def _coded_vs_nack_payload():
    from ..diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD, Packetisation
    from ..net.topology import random_geometric

    topology = random_geometric(1000, radio_range=0.1, seed=3)
    packets = Packetisation(
        len(DISSEMINATION_BLOB), DEFAULT_PAYLOAD, DEFAULT_OVERHEAD
    )
    return topology, packets


def _coded_vs_nack_job(payload) -> "tuple[str, dict]":
    from ..net.coding import CodedTransferParams, run_coded_campaign
    from ..net.lossy import disseminate_lossy

    topology, packets = payload
    nack = disseminate_lossy(topology, packets, loss=0.15, seed=3)
    coded = run_coded_campaign(
        topology,
        DISSEMINATION_BLOB,
        params=CodedTransferParams(burst=16),
        loss=0.15,
        seed=3,
    )
    digest = _sha(
        {
            "nack": {
                "broadcasts": nack.broadcasts,
                "nacks": nack.nacks,
                "rounds": nack.rounds,
                "complete": nack.complete,
            },
            "coded": coded.digest(),
        }
    )
    nack_tx = nack.broadcasts + nack.nacks
    return digest, {
        "nack_tx": nack_tx,
        "coded_tx": coded.broadcasts,
        "tx_ratio": round(nack_tx / coded.broadcasts, 2),
        "coded_converged": int(coded.converged),
    }


# ---------------------------------------------------------------------------
# profiles: adversarial device profiles (docs/SIMULATOR.md)
# ---------------------------------------------------------------------------

#: The 2048-byte blob every profiles workload pushes — 32 flash pages
#: at the battery-less profile's 64-byte page, heavy enough that the
#: 0.05 J capacitor browns out mid-apply.
PROFILES_BLOB = bytes(range(256)) * 8


def _profiles_payload():
    from ..net.topology import grid

    return grid(6, 6)


def _mica2_parity_job(topology) -> "tuple[str, dict]":
    from ..net.campaign import run_campaign
    from ..net.profiles import MICA2_PROFILE

    profiled = run_campaign(
        topology, PROFILES_BLOB, loss=0.1, seed=7, profile=MICA2_PROFILE
    )
    plain = run_campaign(topology, PROFILES_BLOB, loss=0.1, seed=7)
    parity = int(profiled.to_json() == plain.to_json())
    digest = _sha({"report": profiled.digest(), "parity": parity})
    return digest, {
        "parity": parity,
        "converged": int(profiled.converged),
        "rounds": profiled.rounds,
    }


def _lorawan_budget_job(topology) -> "tuple[str, dict]":
    from ..net.campaign import run_campaign
    from ..net.profiles import LORAWAN_DR3

    report = run_campaign(
        topology,
        PROFILES_BLOB,
        loss=0.1,
        seed=7,
        max_rounds=3000,
        profile=LORAWAN_DR3,
    )
    stats = report.profile_stats or {}
    return report.digest(), {
        "converged": int(report.converged),
        "rounds": report.rounds,
        "airtime_deferrals": stats.get("airtime_deferrals"),
        "airtime_violations": stats.get("airtime_violations"),
    }


def _batteryless_job(topology) -> "tuple[str, dict]":
    from ..net.campaign import run_campaign
    from ..net.profiles import BATTERYLESS_HARVEST

    report = run_campaign(
        topology,
        PROFILES_BLOB,
        loss=0.1,
        seed=7,
        max_rounds=3000,
        profile=BATTERYLESS_HARVEST,
    )
    stats = report.profile_stats or {}
    return report.digest(), {
        "converged": int(report.converged),
        "rounds": report.rounds,
        "brownouts": stats.get("brownouts"),
        "resumed_applies": stats.get("resumed_applies"),
        "first_node_death_s": stats.get("first_node_death_s"),
    }


def _profiles_workloads() -> list[Workload]:
    return [
        Workload(
            name="mica2_profile_parity",
            setup=_profiles_payload,
            job=_mica2_parity_job,
        ),
        Workload(
            name="lorawan_dr3_budget",
            setup=_profiles_payload,
            job=_lorawan_budget_job,
        ),
        Workload(
            name="batteryless_brownout_resume",
            setup=_profiles_payload,
            job=_batteryless_job,
        ),
    ]


def _versioning_workloads() -> list[Workload]:
    return [
        Workload(
            name="lossy1k_cohorts",
            setup=_cohort_planner_payload,
            job=_cohort_planner_job,
        ),
        Workload(
            name="lossy1k_coded_vs_nack",
            setup=_coded_vs_nack_payload,
            job=_coded_vs_nack_job,
        ),
    ]


def workloads_for(area: str) -> list[Workload]:
    """The pinned workload list of one area."""
    if area == "compile":
        return _compile_workloads()
    if area == "ilp":
        return _ilp_workloads()
    if area == "diff":
        return _diff_workloads()
    if area == "campaign":
        return _campaign_workloads()
    if area == "dissemination":
        return _dissemination_workloads()
    if area == "versioning":
        return _versioning_workloads()
    if area == "profiles":
        return _profiles_workloads()
    raise ValueError(f"unknown bench area {area!r}; expected one of {AREAS}")
