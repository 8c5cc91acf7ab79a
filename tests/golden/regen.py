"""Regenerate the golden baselines after an intentional planner or
dissemination change.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

``campaign_digests.json`` pins the report digest of every case in
:func:`campaign_cases`: the NACK flood and the LT fountain, each
through every entry point that reaches it; the kernel protocols
(Trickle and gossip, plain and with XOR burst parity); plus the
built-in device profiles and an empty blob.
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
"""

import dataclasses
import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

from repro.core import compile_source, measure_cycles, plan_update
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.fuzz import generate_program
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
    grid,
    random_geometric,
    run_campaign,
    run_gossip,
    run_trickle,
)
from repro.net.coding import CodedTransferParams, run_coded_campaign
from repro.sim import DeviceBoard, Timer, run_image
from repro.versioning import build_version_graph, plan_cohorts, run_versioned_campaign

ENERGY_CASES = ["1", "4", "6", "8", "12"]
ENERGY_CNT = 1000.0

CAMPAIGN_BLOB = bytes(range(251)) * 2
PROFILE_BLOB = bytes(range(256)) * 4  # 16 battery-less flash pages
HEAVY_BLOB = bytes(range(256)) * 8  # 32 pages: brownouts guaranteed
LOSSES = (0.0, 0.15, 0.3)
TOPOLOGIES = {
    "grid5x5": lambda: grid(5, 5),
    "geo40": lambda: random_geometric(40, radio_range=0.3, seed=2),
}


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
    blob = json.dumps(preimage, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


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
    blob = json.dumps(preimage, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


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
    print(f"wrote {golden / 'fig09_scripts.json'}")
    print(f"wrote {golden / 'fig12_energy.json'}")
    print(f"wrote {golden / 'campaign_digests.json'} ({len(campaigns)} campaigns)")
    print(f"wrote {golden / 'sim_runs.json'} ({len(sim_runs)} runs)")
    print(f"wrote {golden / 'frontend.json'} ({len(frontend)} cases)")


if __name__ == "__main__":
    main()
