"""Golden regression tests: pin the paper-facing numbers.

The JSON files under ``tests/golden/`` record, for every Figure 9
update case, the script sizes the planner ships under both strategies,
and — for the Figure 12 sweep cases — the UCC/GCC update-energy ratio
at a fixed execution count.  Script sizes are pinned exactly (they are
fully deterministic); energy ratios get a small relative tolerance so
benign energy-model recalibrations don't churn the goldens.

``campaign_digests.json`` pins the report digest of every campaign in
``regen.campaign_cases``: the NACK flood and the LT fountain through
each entry point that reaches them (``run_campaign``,
``run_coded_campaign``, ``run_versioned_campaign`` waves), Trickle and
gossip (``run_trickle``, ``run_gossip``, plain and with XOR burst
parity), with and without a crash/reboot/partition/corruption/
duplication plan, the built-in device profiles, and an empty blob.
Digests are exact.

``sim_runs.json`` pins every observable of ``run_image`` (cycles,
instructions, how the run ended, LED writes, radio words, timer fires,
ADC reads and the sorted execution profile) for each case in
``regen.sim_cases``: the Figure 8 programs and both images of every
update pair, on the cycle-driven and the poll-driven board.  It is the
simulator's oracle, so it needs no second implementation to compare
against.

``frontend.json`` pins the front end and liveness for each case in
``regen.frontend_cases``: per accepted source (the Figure 8 programs,
both sources of every update pair, 40 generated programs) one digest
over its tokens, its AST and the live sets and intervals of every
function before and after optimisation; per rejected input the error's
class, message, line and column.

``answers.json`` pins the answer digest and metrics of each paper
workload in ``regen.answer_cases``.  The light rows run here, twice
each, so an answer that changes from one call to the next fails too;
``benchmarks/`` checks the ILP sweep and ``regen.HEAVY_ANSWERS``.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/golden/regen.py
"""

import json
from pathlib import Path

import pytest

from repro.core import measure_cycles, plan_update
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.workloads import CASES
from repro.config import UpdateConfig
from tests.golden.regen import (
    HEAVY_ANSWERS,
    ILP_SIZES,
    answer_cases,
    campaign_cases,
    frontend_cases,
    ilp_row,
    sim_cases,
)

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = json.loads((GOLDEN / "fig09_scripts.json").read_text())
ENERGY = json.loads((GOLDEN / "fig12_energy.json").read_text())
CAMPAIGNS = json.loads((GOLDEN / "campaign_digests.json").read_text())
CAMPAIGN_CASES = campaign_cases()
SIM_RUNS = json.loads((GOLDEN / "sim_runs.json").read_text())
SIM_CASES = sim_cases()
FRONTEND = json.loads((GOLDEN / "frontend.json").read_text())
FRONTEND_CASES = frontend_cases()
ANSWERS = json.loads((GOLDEN / "answers.json").read_text())
ANSWER_CASES = answer_cases()
BENCHMARK_ANSWERS = {*HEAVY_ANSWERS, *(ilp_row(size) for size in ILP_SIZES)}

ENERGY_RTOL = 0.02


def test_goldens_cover_every_case():
    assert set(SCRIPTS) == set(CASES)


@pytest.mark.parametrize("cid", sorted(SCRIPTS))
@pytest.mark.parametrize("strategy", ["gcc/gcc", "ucc/ucc"])
def test_fig09_script_sizes_pinned(cid, strategy, compiled_case_olds):
    ra, da = strategy.split("/")
    case = CASES[cid]
    result = plan_update(compiled_case_olds[cid], case.new_source, config=UpdateConfig(ra=ra, da=da))
    expected = SCRIPTS[cid][strategy]
    got = {
        "diff_inst": result.diff_inst,
        "script_bytes": result.script_bytes,
        "packets": result.packets.packet_count,
    }
    assert got == expected, (
        f"case {cid} {strategy}: planner now ships {got}, golden says "
        f"{expected} — regenerate tests/golden/ if this is intentional"
    )


@pytest.mark.parametrize("cid", sorted(ENERGY, key=lambda c: int(c)))
def test_fig12_energy_ratio_pinned(cid, compiled_case_olds):
    case = CASES[cid]
    old = compiled_case_olds[cid]
    cnt = ENERGY[cid]["cnt"]
    gcc = measure_cycles(plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="ucc")))
    ucc = measure_cycles(plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc")))
    ratio = ucc.diff_energy(cnt, DEFAULT_ENERGY_MODEL) / gcc.diff_energy(
        cnt, DEFAULT_ENERGY_MODEL
    )
    assert ratio == pytest.approx(
        ENERGY[cid]["ratio_ucc_over_gcc"], rel=ENERGY_RTOL
    )
    # UCC never costs more energy than the GCC baseline on the sweep
    # cases at this Cnt (Figure 12's non-negative savings).
    assert ratio <= 1.0 + 1e-9


def test_campaign_goldens_cover_every_case():
    assert set(CAMPAIGNS) == set(CAMPAIGN_CASES)


@pytest.mark.parametrize("key", sorted(CAMPAIGNS))
def test_campaign_digest_pinned(key):
    assert CAMPAIGN_CASES[key]().digest() == CAMPAIGNS[key], (
        f"campaign {key}: report digest moved — regenerate "
        "tests/golden/ only if the change is intentional"
    )


def test_sim_goldens_cover_every_case():
    assert set(SIM_RUNS) == set(SIM_CASES)


@pytest.mark.parametrize("key", sorted(SIM_RUNS))
def test_sim_run_pinned(key):
    assert SIM_CASES[key]() == SIM_RUNS[key], (
        f"simulator run {key}: an observable moved — regenerate "
        "tests/golden/ only if the change is intentional"
    )


def test_frontend_goldens_cover_every_case():
    assert set(FRONTEND) == set(FRONTEND_CASES)


@pytest.mark.parametrize("key", sorted(FRONTEND))
def test_frontend_pinned(key):
    assert FRONTEND_CASES[key]() == FRONTEND[key], (
        f"front end {key}: a token, AST node, live set, interval or "
        "diagnostic moved — regenerate tests/golden/ only if the change "
        "is intentional"
    )


def test_answer_goldens_cover_every_case():
    assert set(ANSWERS) == set(ANSWER_CASES)
    assert BENCHMARK_ANSWERS <= set(ANSWERS)


@pytest.mark.parametrize("name", sorted(set(ANSWERS) - BENCHMARK_ANSWERS))
def test_answer_pinned(name):
    for _ in range(2):
        digest, metrics = ANSWER_CASES[name]()
        assert {"digest": digest, "metrics": metrics} == ANSWERS[name], (
            f"answer {name}: its digest or a pinned metric moved — "
            "regenerate tests/golden/ only if the change is intentional"
        )
