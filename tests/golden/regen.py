"""Regenerate the golden baselines after an intentional planner or
dissemination change.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

``campaign_digests.json`` pins the report digest of every case in
:func:`campaign_cases`: the NACK flood and the LT fountain, each
through every entry point that reaches it; the kernel protocols
(Trickle and gossip, plain and with XOR burst parity); plus the
built-in device profiles, under the flood and the kernel protocols, an
empty blob, and the flood and the fountain on a one-way map.
``tests/test_golden_regression.py`` re-runs the same table and
compares digest by digest.

``sim_runs.json`` pins every observable of ``run_image`` for each case
in :func:`sim_cases`: the five Figure 8 programs and the old and
UCC-planned new image of every ``CASES``/``EXTRA_CASES`` pair, each on
the cycle-driven and the poll-driven board, plus one AES run cut short
by its cycle budget.

``frontend.json`` pins the front end and liveness for each case in
:func:`frontend_cases`: one digest per source (the five Figure 8
programs, the old and new source of every ``CASES``/``EXTRA_CASES``
pair, and 40 ``generate_program`` programs) over its token stream, its
AST ``repr`` and every function's liveness on the unoptimised and the
optimised IR; plus the class, message, line and column of every
rejected input in :data:`FRONTEND_REJECTS`.

``answers.json`` pins the ``digest`` and ``metrics`` of each case in
:func:`answer_cases`: the Figure 8 compiles, the Figure 13-15 ILP
solves, six Figure 9 update plans, the Figure 10 16-job fleet batch,
and the dissemination, versioning and device-profile studies that
EXPERIMENTS.md, docs/SIMULATOR.md and docs/VERSIONING.md quote.
``tests/test_golden_regression.py`` checks the light rows;
``benchmarks/`` checks the ILP rows (on both ILP paths) and the
:data:`HEAVY_ANSWERS`.
"""

import dataclasses
import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

from repro.config import (
    CohortPlan,
    CompileConfig,
    FleetJob,
    TopologySpec,
)
from repro.core import compile_source, measure_cycles, plan_update
from repro.diff.packets import DEFAULT_OVERHEAD, DEFAULT_PAYLOAD, Packetisation
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.fuzz import generate_program
from repro.ilp.branch_bound import solve_branch_bound
from repro.ir import analyze, build_ir
from repro.lang import CompileError, check, parse, tokenize
from repro.opt.passes import optimize_module
from repro.workloads import CASES, PROGRAMS
from repro.workloads.extra import EXTRA_CASES
from repro.config import UpdateConfig
from repro.net import (
    BATTERYLESS_HARVEST,
    LORAWAN_DR3,
    MICA2_PROFILE,
    FaultPlan,
    NodeCrash,
    PartitionWindow,
    PowerTrace,
    Topology,
    grid,
    random_geometric,
    run_campaign,
    run_gossip,
    run_trickle,
)
from repro.net.coding import CodedTransferParams, run_coded_campaign
from repro.net.kernel import rounds_equivalent
from repro.net.lossy import disseminate_lossy
from repro.regalloc.ilp_model import build_chunk_model
from repro.service import FleetUpdateService
from repro.sim import DeviceBoard, Timer, run_image
from repro.versioning import build_version_graph, plan_cohorts, run_versioned_campaign
from repro.versioning.planner import predicted_wave_energy_j
from repro.workloads.synthetic import ilp_spec

ENERGY_CASES = ["1", "4", "6", "8", "12"]
ENERGY_CNT = 1000.0

CAMPAIGN_BLOB = bytes(range(251)) * 2
PROFILE_BLOB = bytes(range(256)) * 4  # 16 battery-less flash pages
# 32 pages at the battery-less profile's 64-byte page: its 0.05 J capacitor
# browns out mid-apply.  The device-profile answers push it too.
HEAVY_BLOB = bytes(range(256)) * 8
LOSSES = (0.0, 0.15, 0.3)
TOPOLOGIES = {
    "grid5x5": lambda: grid(5, 5),
    "geo40": lambda: random_geometric(40, radio_range=0.3, seed=2),
}


def _sha(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def heavy_plan() -> FaultPlan:
    """A crash with reboot, a permanent crash, a partition window,
    corruption and duplication, all in one plan."""
    return FaultPlan(
        crashes=(
            NodeCrash(node=7, round=2, reboot_round=5),
            NodeCrash(node=13, round=4, reboot_round=9),
            NodeCrash(node=3, round=6),
        ),
        partitions=(PartitionWindow(3, 7, (10, 11, 15, 16)),),
        corrupt_prob=0.02,
        duplicate_prob=0.03,
        seed=17,
    )


def directed20() -> Topology:
    """A one-way map of 20 nodes: node i lists (i+1) and (i+3) mod 20,
    and the sink also lists 7.  The nodes that hear a node are not the
    nodes it hears."""
    neighbors = {node: [(node + 1) % 20, (node + 3) % 20] for node in range(20)}
    neighbors[0].append(7)
    return Topology(
        positions=[(float(node), 0.0) for node in range(20)], neighbors=neighbors
    )


def flood_parity_plan() -> FaultPlan:
    """The plan of the PYTHONHASHSEED sweep in tests/test_campaign_kernel.py."""
    return FaultPlan(
        crashes=(NodeCrash(node=2, round=2, reboot_round=5),),
        partitions=(PartitionWindow(1, 4, (5, 6, 8)),),
        corrupt_prob=0.05,
        duplicate_prob=0.05,
        seed=7,
    )


@lru_cache(maxsize=None)
def version_graph():
    """Case 3 released as v3/v5 plus two derived releases v6 and v7."""
    case = CASES["3"]
    v5 = case.new_source
    v6 = v5.replace("u8 am_type = 4;", "u8 am_type = 5;")
    v7 = v5.replace("u8 am_type = 4;", "u8 am_type = 6;").replace(
        "cnt = cnt + 1;", "cnt = cnt + 2;"
    )
    return build_version_graph({3: case.old_source, 5: v5, 6: v6, 7: v7})


def _versioned(topology, plan, loss, coding):
    graph = version_graph()
    fleet = {0: 7}
    for node in range(1, topology.node_count):
        fleet[node] = (3, 5, 6)[node % 3]
    return run_versioned_campaign(
        graph, plan_cohorts(graph, fleet), topology,
        loss=loss, seed=5, fault_plan=plan, coding=coding,
    )


def campaign_cases() -> dict:
    """Pinned campaign runs: key -> zero-argument callable returning a
    report with a ``digest()``."""
    lt = CodedTransferParams(scheme="lt")
    xor = CodedTransferParams(scheme="xor")
    cases = {}
    for topo_name, make_topology in TOPOLOGIES.items():
        for loss in LOSSES:
            for plan_name, make_plan in (("clean", lambda: None), ("faulted", heavy_plan)):
                tail = f"{topo_name}/loss{loss}/{plan_name}"

                def flood(t=make_topology, p=make_plan, loss=loss):
                    return run_campaign(t(), CAMPAIGN_BLOB, p(), loss=loss, seed=5)

                def lt_direct(t=make_topology, p=make_plan, loss=loss):
                    return run_coded_campaign(
                        t(), CAMPAIGN_BLOB, p(), params=lt, loss=loss, seed=5
                    )

                def lt_routed(t=make_topology, p=make_plan, loss=loss):
                    return run_campaign(
                        t(), CAMPAIGN_BLOB, p(), loss=loss, seed=5, coding=lt
                    )

                def flood_waves(t=make_topology, p=make_plan, loss=loss):
                    return _versioned(t(), p(), loss, None)

                def lt_waves(t=make_topology, p=make_plan, loss=loss):
                    return _versioned(t(), p(), loss, lt)

                cases[f"flood/run_campaign/{tail}"] = flood
                cases[f"flood/versioned/{tail}"] = flood_waves
                cases[f"lt/run_coded_campaign/{tail}"] = lt_direct
                cases[f"lt/run_campaign/{tail}"] = lt_routed
                cases[f"lt/versioned/{tail}"] = lt_waves

                for name, runner in (("trickle", run_trickle), ("gossip", run_gossip)):
                    for scheme, coding in (("", None), ("-xor", xor)):

                        def kernel(
                            t=make_topology, p=make_plan, loss=loss,
                            runner=runner, coding=coding,
                        ):
                            return runner(
                                t(), CAMPAIGN_BLOB, p(), loss=loss, seed=5,
                                coding=coding,
                            )

                        cases[f"{name}{scheme}/run_{name}/{tail}"] = kernel

    # Directed links: a sender reaches its own list, not the nodes that
    # list it.  The fountain ends partial here (a node elects a server
    # from its own list, but the server sends along the server's list).
    cases["flood/run_campaign/directed20/faulted"] = lambda: run_campaign(
        directed20(), CAMPAIGN_BLOB, heavy_plan(), loss=0.15, seed=5
    )
    cases["lt/run_coded_campaign/directed20/faulted"] = lambda: run_coded_campaign(
        directed20(), CAMPAIGN_BLOB, heavy_plan(), params=lt, loss=0.15, seed=5
    )

    cases["flood/run_campaign/flood-parity"] = lambda: run_campaign(
        grid(4, 4), b"y" * 400, flood_parity_plan(), loss=0.1, seed=3
    )

    trace = PowerTrace(node=3, brownout_at_j=(0.001, 0.004))
    cases.update({
        "profile/mica2/clean": lambda: run_campaign(
            grid(4, 4), PROFILE_BLOB, loss=0.1, seed=7, profile=MICA2_PROFILE
        ),
        "profile/mica2/faulted": lambda: run_campaign(
            grid(5, 5), PROFILE_BLOB, heavy_plan(), loss=0.1, seed=7,
            profile=MICA2_PROFILE,
        ),
        "profile/lorawan-dr3/converged": lambda: run_campaign(
            grid(4, 4), PROFILE_BLOB, loss=0.1, seed=7, max_rounds=3000,
            profile=LORAWAN_DR3,
        ),
        "profile/lorawan-dr3/stalled-budget": lambda: run_campaign(
            grid(4, 4), PROFILE_BLOB, loss=0.1, seed=7, max_rounds=60,
            profile=LORAWAN_DR3,
        ),
        "profile/batteryless/harvest": lambda: run_campaign(
            grid(4, 4), HEAVY_BLOB, loss=0.1, seed=7, max_rounds=3000,
            profile=BATTERYLESS_HARVEST,
        ),
        "profile/batteryless/power-trace": lambda: run_campaign(
            grid(3, 3), HEAVY_BLOB, FaultPlan(power_traces=(trace,)), seed=7,
            max_rounds=3000, profile=BATTERYLESS_HARVEST,
        ),
        "profile/batteryless/power-trace-faulted": lambda: run_campaign(
            grid(5, 5), HEAVY_BLOB,
            dataclasses.replace(heavy_plan(), power_traces=(trace,)),
            loss=0.1, seed=7, max_rounds=3000, profile=BATTERYLESS_HARVEST,
        ),
    })
    # The kernel protocols under an airtime budget and a capacitor: the
    # off-time deferrals, brownouts and page-granular resumes.
    for name, runner in (("trickle", run_trickle), ("gossip", run_gossip)):
        cases.update({
            f"profile/lorawan-dr3/run_{name}": lambda r=runner: r(
                grid(4, 4), PROFILE_BLOB, loss=0.1, seed=7, max_time=40000.0,
                profile=LORAWAN_DR3,
            ),
            f"profile/batteryless/harvest/run_{name}": lambda r=runner: r(
                grid(4, 4), HEAVY_BLOB, loss=0.1, seed=7, max_time=4000.0,
                profile=BATTERYLESS_HARVEST,
            ),
            f"profile/batteryless/power-trace/run_{name}": lambda r=runner: r(
                grid(3, 3), HEAVY_BLOB, FaultPlan(power_traces=(trace,)), seed=7,
                max_time=4000.0, profile=BATTERYLESS_HARVEST,
            ),
            f"profile/batteryless/power-trace-faulted/run_{name}": lambda r=runner: r(
                grid(5, 5), HEAVY_BLOB,
                dataclasses.replace(heavy_plan(), power_traces=(trace,)),
                loss=0.1, seed=7, max_time=4000.0, profile=BATTERYLESS_HARVEST,
            ),
        })

    for plan_name, make_plan in (("clean", lambda: None), ("faulted", heavy_plan)):
        cases[f"empty/flood/{plan_name}"] = lambda p=make_plan: run_campaign(
            grid(5, 5), b"", p(), loss=0.15, seed=5
        )
        cases[f"empty/lt/run_coded_campaign/{plan_name}"] = (
            lambda p=make_plan: run_coded_campaign(
                grid(5, 5), b"", p(), params=lt, loss=0.15, seed=5
            )
        )
        cases[f"empty/lt/run_campaign/{plan_name}"] = lambda p=make_plan: run_campaign(
            grid(5, 5), b"", p(), loss=0.15, seed=5, coding=lt
        )
    return cases


SIM_BOARDS = {
    "cycle": DeviceBoard,
    "poll3": lambda: DeviceBoard(timer=Timer(fire_every_polls=3)),
}
SIM_MAX_CYCLES = 5_000_000  # run_image's default budget
SIM_SHORT_BUDGET = 10_000  # AES needs 23,190 cycles: the budget ends the run


@lru_cache(maxsize=None)
def sim_image(name: str):
    """``program/<P>`` compiles a Figure 8 program; ``case/<id>/old`` and
    ``case/<id>/new`` are the deployed and the UCC-planned image of an
    update pair."""
    kind, _, rest = name.partition("/")
    if kind == "program":
        return compile_source(PROGRAMS[rest]).image
    cid, _, which = rest.partition("/")
    if cid in CASES:
        old_source, new_source = CASES[cid].old_source, CASES[cid].new_source
    else:
        _desc, old_source, new_source = EXTRA_CASES[cid]
    old = compile_source(old_source)
    if which == "old":
        return old.image
    return plan_update(old, new_source, config=UpdateConfig(ra="ucc", da="ucc")).new.image


def sim_observables(run) -> dict:
    """Everything a run reports: its end state and every device stream."""
    return {
        "cycles": run.cycles,
        "instructions": run.instructions,
        "halted": run.halted,
        "main_returned": run.main_returned,
        "led": list(run.devices.led.writes),
        "radio": list(run.devices.radio.sent),
        "timer_fires": run.devices.timer.fires,
        "adc_reads": run.devices.adc.reads,
    }


def sim_digest(image: str, board: str, max_cycles: int = SIM_MAX_CYCLES) -> str:
    """Digest of a plain run and a profiled run of one image on a fresh
    board: both runs' observables and the profiled run's sorted profile."""
    runs = [
        run_image(
            sim_image(image), devices=SIM_BOARDS[board](),
            max_cycles=max_cycles, collect_profile=collect,
        )
        for collect in (False, True)
    ]
    preimage = {
        "plain": sim_observables(runs[0]),
        "profiled": sim_observables(runs[1]),
        "profile": sorted(
            [fn, ir_index, count] for (fn, ir_index), count in runs[1].profile.items()
        ),
    }
    return _sha(preimage)


def sim_cases() -> dict:
    """Pinned simulator runs: key -> zero-argument callable returning
    the run digest."""
    images = [f"program/{name}" for name in PROGRAMS]
    for cid in [*CASES, *EXTRA_CASES]:
        images += [f"case/{cid}/old", f"case/{cid}/new"]
    cases = {
        f"{image}/{board}": (lambda i=image, b=board: sim_digest(i, b))
        for image in images
        for board in SIM_BOARDS
    }
    cases[f"program/AES/cycle/budget{SIM_SHORT_BUDGET}"] = lambda: sim_digest(
        "program/AES", "cycle", max_cycles=SIM_SHORT_BUDGET
    )
    return cases


FRONTEND_PROGEN_COUNT = 40

#: Rejected inputs: the ``TestErrors`` cases of tests/test_lexer.py, then
#: one input per grammar-error message of repro.lang.parser (its
#: array-size and nesting-limit errors are pinned in tests/test_parser.py).
FRONTEND_REJECTS = {
    "lex/unterminated-block-comment": "a /* never closed",
    "lex/unknown-character": "a @ b",
    "lex/number-suffix": "12ab",
    "lex/malformed-hex": "0x",
    "lex/unterminated-char": "'a",
    "lex/bad-escape": r"'\q'",
    "lex/error-location": "ok\n   @",
    "parse/expected-punct": "u8 x",
    "parse/expected-ident": "u8 = 3;",
    "parse/expected-type": "42;",
    "parse/array-length": "u8 x[0];",
    "parse/void-variable": "void x;",
    "parse/void-parameter": "void f(void x) { }",
    "parse/unterminated-block": "void f() { u8 x;",
    "parse/assignment-target": "void f() { 3 = x; }",
    "parse/unexpected-token": "void f() { u8 x = ); }",
}


def frontend_sources() -> dict:
    """Source key -> ucc-C text for every pinned accepted program."""
    sources = {f"program/{name}": src for name, src in PROGRAMS.items()}
    for cid, case in CASES.items():
        sources[f"case/{cid}/old"] = case.old_source
        sources[f"case/{cid}/new"] = case.new_source
    for cid, (_desc, old_source, new_source) in EXTRA_CASES.items():
        sources[f"case/{cid}/old"] = old_source
        sources[f"case/{cid}/new"] = new_source
    for i in range(FRONTEND_PROGEN_COUNT):
        rng = random.Random(f"repro-golden-frontend:{i}")
        sources[f"progen/{i}"] = generate_program(rng).render()
    return sources


def liveness_observables(module) -> dict:
    """Every function's live sets per index and its sorted intervals."""
    facts = {}
    for name, fn in module.functions.items():
        info = analyze(fn)
        facts[name] = {
            "live_in": [sorted(live) for live in info.live_in],
            "live_out": [sorted(live) for live in info.live_out],
            "intervals": sorted(
                [key, iv.start, iv.end, iv.crosses_call]
                for key, iv in info.intervals.items()
            ),
        }
    return facts


def frontend_digest(source: str) -> str:
    """Digest of the tokens, the AST ``repr`` and the liveness of the
    unoptimised and the optimised IR of one accepted source."""
    tokens = [
        [tok.kind.value, tok.value, tok.location.line, tok.location.column]
        for tok in tokenize(source)
    ]
    ast_repr = repr(parse(source))
    module = build_ir(check(parse(source)))
    plain = liveness_observables(module)
    optimize_module(module)
    preimage = {
        "tokens": tokens,
        "ast": ast_repr,
        "liveness": plain,
        "liveness_optimized": liveness_observables(module),
    }
    return _sha(preimage)


def frontend_reject(source: str) -> dict:
    """Class, message and location of the error the front end raises."""
    try:
        check(parse(source))
    except CompileError as err:
        return {
            "class": type(err).__name__,
            "message": err.message,
            "line": err.location.line,
            "column": err.location.column,
        }
    raise AssertionError(f"front end accepted {source!r}")


def frontend_cases() -> dict:
    """Pinned front-end runs: key -> zero-argument callable returning a
    source digest or a rejected input's error fields."""
    cases = {
        f"source/{key}": (lambda s=src: frontend_digest(s))
        for key, src in frontend_sources().items()
    }
    for key, src in FRONTEND_REJECTS.items():
        cases[f"reject/{key}"] = lambda s=src: frontend_reject(s)
    return cases


def compile_answer(source: str) -> tuple:
    """A Figure 8 compile: the image's code, data and entry point."""
    image = compile_source(source).image
    digest = _sha({
        "code": hashlib.sha256(image.to_bytes()).hexdigest(),
        "data": hashlib.sha256(image.data).hexdigest(),
        "entry": image.entry,
    })
    return digest, {
        "instructions": image.instruction_count(),
        "size_bytes": image.size_bytes,
    }


#: Statement counts of the pinned Figure 13-15 ILP sweep.
ILP_SIZES = (8, 12, 16, 20, 24, 32)


def ilp_row(size: int) -> str:
    return f"fig13_15_n{size:02d}"


def ilp_answer(spec) -> tuple:
    """A Figure 13-15 job: the chunk model of ``spec`` solved by branch
    and bound.  Every metric is one the fast and the reference ILP
    path must agree on."""
    program = build_chunk_model(spec)
    result = solve_branch_bound(program)
    digest = _sha({
        "status": result.status,
        "values": sorted(result.values.items()),
        "objective": repr(result.objective),
    })
    return digest, {
        "variables": program.num_variables,
        "constraints": program.num_constraints,
        "simplex_iterations": result.stats.simplex_iterations,
        "lp_solves": result.stats.lp_solves,
    }


#: Figure 9 update cases with a pinned plan: data-only, code-only and
#: mixed edits (fig09_scripts.json pins the sizes of all 13).
DIFF_CASE_IDS = ("1", "3", "6", "9", "12", "13")


def diff_answer(cid: str) -> tuple:
    """A Figure 9 UCC plan: the edit script and the data script."""
    case = CASES[cid]
    result = plan_update(
        compile_source(case.old_source), case.new_source,
        config=UpdateConfig(ra="ucc", da="ucc"),
    )
    blob = result.diff.script.to_bytes()
    digest = _sha({
        "script": hashlib.sha256(blob).hexdigest(),
        "data": hashlib.sha256(result.data_script.to_bytes()).hexdigest(),
    })
    return digest, {"script_bytes": len(blob), "diff_inst": result.diff.diff_inst}


def batch_answer() -> tuple:
    """The Figure 10 acceptance batch: 16 jobs over cases 1/3/6/9 and
    four allocator pairs, run cold and then replayed from a warm job
    cache on one service."""
    jobs = [
        FleetJob(
            old_source=CASES[cid].old_source,
            new_source=CASES[cid].new_source,
            compile=CompileConfig(),
            update=UpdateConfig(ra=ra, da=da),
            topology=None,
            job_id=f"case{cid}/{ra}/{da}",
        )
        for cid in ("1", "3", "6", "9")
        for ra, da in (("ucc", "ucc"), ("ucc-ilp", "ucc"), ("gcc", "gcc"), ("linear", "ucc"))
    ]
    service = FleetUpdateService(workers=1)
    cold = service.run(jobs)
    warm = service.run(jobs)
    digest = _sha({
        "cold": [outcome.key_metrics() for outcome in cold.outcomes],
        "warm": [outcome.key_metrics() for outcome in warm.outcomes],
    })
    return digest, {
        "jobs": len(jobs),
        "ok": int(cold.ok and warm.ok),
        "job_cache_hits": warm.job_cache_hits,
    }


def service_network_answer() -> tuple:
    """Case 6 through the update service with a network: the analytic
    flood, the lossy flood, two fault campaigns (one partial), a gcc/gcc
    job with cycles, and one job that fails to disseminate."""
    case = CASES["6"]
    grid3 = TopologySpec.grid(3, 3)

    def job(job_id, topology=grid3, **knobs):
        return FleetJob(
            old_source=case.old_source,
            new_source=case.new_source,
            topology=topology,
            job_id=job_id,
            **knobs,
        )

    jobs = [
        job("loss0"),
        job("loss0.1", loss=0.1),
        job(
            "crash+corrupt",
            loss=0.05,
            fault_plan=FaultPlan(
                crashes=(NodeCrash(node=4, round=2, reboot_round=5),),
                corrupt_prob=0.05,
                seed=3,
            ),
        ),
        job(
            "partition",
            fault_plan=FaultPlan(partitions=(PartitionWindow(1, 60, (8,)),)),
            max_rounds=40,
        ),
        job(
            "gcc-cycles",
            loss=0.1,
            update=UpdateConfig(ra="gcc", da="gcc"),
            measure_cycles=True,
        ),
        job("line-loss0.99", topology=TopologySpec.line(8), loss=0.99),
    ]
    result = FleetUpdateService(workers=1).run(jobs)
    outcomes = [outcome.key_metrics() for outcome in result.outcomes]
    return _sha(outcomes), {
        "ok": [int(outcome.ok) for outcome in result.outcomes],
        "nodes_patched": [outcome.nodes_patched for outcome in result.outcomes],
        "outcomes": [
            outcome.campaign_outcome for outcome in result.outcomes
        ],
    }


#: The 600-byte script blob of the dissemination and coded-transfer
#: studies: 28 packets at the default 22-byte payload.
DISSEMINATION_BLOB = bytes(range(256)) * 2 + bytes(88)



def _lossy1k():
    """The 1k-node fleet of the flood-vs-Trickle, cohort and coded
    studies (15 % loss throughout)."""
    return random_geometric(1000, radio_range=0.1, seed=3)


def _lossy_flood_counts(topology) -> dict:
    """The lossy NACK-repair flood of the dissemination blob."""
    packets = Packetisation(len(DISSEMINATION_BLOB), DEFAULT_PAYLOAD, DEFAULT_OVERHEAD)
    flood = disseminate_lossy(topology, packets, loss=0.15, seed=3)
    return {
        "broadcasts": flood.broadcasts,
        "nacks": flood.nacks,
        "rounds": flood.rounds,
        "complete": flood.complete,
    }


def flood_vs_trickle_answer() -> tuple:
    """The lossy NACK-repair flood against Trickle on the 1k fleet."""
    topology = _lossy1k()
    flood = _lossy_flood_counts(topology)
    trickle = run_trickle(topology, DISSEMINATION_BLOB, loss=0.15, seed=3, max_time=600.0)
    digest = _sha({"flood": flood, "trickle": trickle.digest()})
    return digest, {
        "flood_broadcasts": flood["broadcasts"],
        "trickle_transmissions": trickle.transmissions,
        "trickle_beacons": trickle.beacons,
        "tx_ratio": round(flood["broadcasts"] / trickle.transmissions, 2),
    }


def trickle_5k_answer() -> tuple:
    """Trickle to convergence on a 72x70 grid at 5 % loss."""
    report = run_trickle(grid(72, 70), DISSEMINATION_BLOB, loss=0.05, seed=5, max_time=600.0)
    return report.digest(), {
        "converged": int(report.converged),
        "transmissions": report.transmissions,
        "beacons": report.beacons,
        "events": report.events,
        "rounds_equivalent": rounds_equivalent(report.time_s, 1.0),
    }


def faulted_flood_answer() -> tuple:
    """A flood campaign on a 12x12 grid under crashes with reboots, a
    partition, corruption and duplication."""
    plan = FaultPlan(
        crashes=(NodeCrash(7, 2, reboot_round=5), NodeCrash(23, 4, reboot_round=9)),
        partitions=(PartitionWindow(3, 7, (40, 41, 42, 52, 53, 54)),),
        corrupt_prob=0.01,
        duplicate_prob=0.02,
        seed=11,
    )
    report = run_campaign(grid(12, 12), DISSEMINATION_BLOB, plan, loss=0.1, seed=7)
    return report.digest(), {
        "converged": int(report.converged),
        "rounds": report.rounds,
        "quarantined": len(report.quarantined),
    }


def aes_releases() -> dict:
    """AES-128 (case 10) released as v3/v5 plus two derived releases v6
    and v7: full images are expensive, the edits a handful of bytes."""
    case = CASES["10"]
    v5 = case.new_source
    v6 = v5.replace("u16 blocks_done = 0;", "u16 blocks_done = 1;")
    v7 = v5.replace("u16 blocks_done = 0;", "u16 blocks_done = 2;").replace(
        "blocks_done = blocks_done + 1;", "blocks_done = blocks_done + 2;"
    )
    return {3: case.old_source, 5: v5, 6: v6, 7: v7}


def cohorts_answer() -> tuple:
    """The 1k fleet with cohorts at v3/v5/v6 converging to v7, once on
    the cohort planner's plans and once on forced full images."""
    topology = _lossy1k()
    graph = build_version_graph(aes_releases())
    fleet = {0: 7}
    for node in range(1, 1000):
        fleet[node] = (3, 5, 6)[node % 3]
    plans = plan_cohorts(graph, fleet, loss=0.15)
    full_plans = []
    for plan in plans:
        full_bytes = graph.full_edge(plan.from_version, plan.to_version).script_bytes
        full_plans.append(CohortPlan(
            from_version=plan.from_version,
            to_version=plan.to_version,
            nodes=plan.nodes,
            strategy="full",
            path=(plan.from_version, plan.to_version),
            script_bytes=full_bytes,
            predicted_energy_j=predicted_wave_energy_j(
                full_bytes, node_count=1000, mean_degree=4.0, loss=0.15
            ),
        ))
    planned = run_versioned_campaign(graph, plans, topology, loss=0.15, seed=3)
    full = run_versioned_campaign(graph, tuple(full_plans), topology, loss=0.15, seed=3)
    digest = _sha({"planned": planned.digest(), "full": full.digest()})
    return digest, {
        "planned_energy_j": round(planned.total_energy_j, 4),
        "full_energy_j": round(full.total_energy_j, 4),
        "energy_ratio": round(full.total_energy_j / planned.total_energy_j, 2),
        "converged": int(planned.converged and full.converged),
        "replay_identical": int(planned.replay_identical and full.replay_identical),
    }


def coded_vs_nack_answer() -> tuple:
    """The LT fountain against per-packet NACK repair on the 1k fleet."""
    topology = _lossy1k()
    nack = _lossy_flood_counts(topology)
    coded = run_coded_campaign(
        topology, DISSEMINATION_BLOB, params=CodedTransferParams(burst=16),
        loss=0.15, seed=3,
    )
    digest = _sha({"nack": nack, "coded": coded.digest()})
    nack_tx = nack["broadcasts"] + nack["nacks"]
    return digest, {
        "nack_tx": nack_tx,
        "coded_tx": coded.broadcasts,
        "tx_ratio": round(nack_tx / coded.broadcasts, 2),
        "coded_converged": int(coded.converged),
    }


def mica2_parity_answer() -> tuple:
    """A Mica2-profiled flood byte-identical to an unprofiled one."""
    profiled = run_campaign(grid(6, 6), HEAVY_BLOB, loss=0.1, seed=7, profile=MICA2_PROFILE)
    plain = run_campaign(grid(6, 6), HEAVY_BLOB, loss=0.1, seed=7)
    parity = int(profiled.to_json() == plain.to_json())
    return _sha({"report": profiled.digest(), "parity": parity}), {
        "parity": parity,
        "converged": int(profiled.converged),
        "rounds": profiled.rounds,
    }


def lorawan_budget_answer() -> tuple:
    """A LoRaWAN DR3 fleet held to its 1 % duty-cycle airtime budget."""
    report = run_campaign(
        grid(6, 6), HEAVY_BLOB, loss=0.1, seed=7, max_rounds=3000, profile=LORAWAN_DR3
    )
    stats = report.profile_stats or {}
    return report.digest(), {
        "converged": int(report.converged),
        "rounds": report.rounds,
        "airtime_deferrals": stats.get("airtime_deferrals"),
        "airtime_violations": stats.get("airtime_violations"),
    }


def batteryless_answer() -> tuple:
    """A harvesting fleet that browns out mid-apply and resumes."""
    report = run_campaign(
        grid(6, 6), HEAVY_BLOB, loss=0.1, seed=7, max_rounds=3000,
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


#: Answers that take a second or more: ``benchmarks/`` checks them.
HEAVY_ANSWERS = (
    "grid5k_trickle",
    "lorawan_dr3_budget",
    "lossy1k_coded_vs_nack",
    "lossy1k_cohorts",
    "lossy1k_flood_vs_trickle",
)


def answer_cases() -> dict:
    """Pinned paper-workload answers: name -> zero-argument callable
    returning ``(digest, metrics)``."""
    cases = {
        f"fig08_{name}": (lambda s=src: compile_answer(s)) for name, src in PROGRAMS.items()
    }
    for size in ILP_SIZES:
        cases[ilp_row(size)] = lambda n=size: ilp_answer(ilp_spec(n))
    for cid in DIFF_CASE_IDS:
        cases[f"fig09_case{cid}"] = lambda c=cid: diff_answer(c)
    cases.update({
        "fig10_batch16": batch_answer,
        "service_network_jobs": service_network_answer,
        "lossy1k_flood_vs_trickle": flood_vs_trickle_answer,
        "grid5k_trickle": trickle_5k_answer,
        "flood_faulted_grid12": faulted_flood_answer,
        "lossy1k_cohorts": cohorts_answer,
        "lossy1k_coded_vs_nack": coded_vs_nack_answer,
        "mica2_profile_parity": mica2_parity_answer,
        "lorawan_dr3_budget": lorawan_budget_answer,
        "batteryless_brownout_resume": batteryless_answer,
    })
    return cases


def main() -> None:
    golden = Path(__file__).parent

    scripts = {}
    for cid, case in CASES.items():
        old = compile_source(case.old_source)
        entry = {}
        for ra, da in (("gcc", "gcc"), ("ucc", "ucc")):
            result = plan_update(old, case.new_source, config=UpdateConfig(ra=ra, da=da))
            entry[f"{ra}/{da}"] = {
                "diff_inst": result.diff_inst,
                "script_bytes": result.script_bytes,
                "packets": result.packets.packet_count,
            }
        scripts[cid] = entry

    energy = {}
    for cid in ENERGY_CASES:
        case = CASES[cid]
        old = compile_source(case.old_source)
        gcc = measure_cycles(
            plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="ucc"))
        )
        ucc = measure_cycles(
            plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        )
        ratio = ucc.diff_energy(ENERGY_CNT, DEFAULT_ENERGY_MODEL) / gcc.diff_energy(
            ENERGY_CNT, DEFAULT_ENERGY_MODEL
        )
        energy[cid] = {"cnt": ENERGY_CNT, "ratio_ucc_over_gcc": round(ratio, 6)}

    campaigns = {key: run().digest() for key, run in campaign_cases().items()}
    sim_runs = {key: run() for key, run in sim_cases().items()}
    frontend = {key: run() for key, run in frontend_cases().items()}
    answers = {}
    for name, run in answer_cases().items():
        digest, metrics = run()
        answers[name] = {"digest": digest, "metrics": metrics}

    (golden / "fig09_scripts.json").write_text(
        json.dumps(scripts, indent=2, sort_keys=True) + "\n"
    )
    (golden / "fig12_energy.json").write_text(
        json.dumps(energy, indent=2, sort_keys=True) + "\n"
    )
    (golden / "campaign_digests.json").write_text(
        json.dumps(campaigns, indent=2, sort_keys=True) + "\n"
    )
    (golden / "sim_runs.json").write_text(
        json.dumps(sim_runs, indent=2, sort_keys=True) + "\n"
    )
    (golden / "frontend.json").write_text(
        json.dumps(frontend, indent=2, sort_keys=True) + "\n"
    )
    (golden / "answers.json").write_text(
        json.dumps(answers, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {golden / 'fig09_scripts.json'}")
    print(f"wrote {golden / 'fig12_energy.json'}")
    print(f"wrote {golden / 'campaign_digests.json'} ({len(campaigns)} campaigns)")
    print(f"wrote {golden / 'sim_runs.json'} ({len(sim_runs)} runs)")
    print(f"wrote {golden / 'frontend.json'} ({len(frontend)} cases)")
    print(f"wrote {golden / 'answers.json'} ({len(answers)} answers)")


if __name__ == "__main__":
    main()
