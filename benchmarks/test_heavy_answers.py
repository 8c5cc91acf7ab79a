"""The answers that take a second or more to compute: the 1k-node
flood-vs-Trickle, cohort-planner and coded-vs-NACK studies, the 5k-node
Trickle run and the LoRaWAN duty-cycle budget.

Each is checked against ``tests/golden/answers.json`` (digest and every
pinned metric), and the headline ratios that EXPERIMENTS.md,
docs/SIMULATOR.md and docs/VERSIONING.md quote are asserted on the
measured values.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from tests.golden.regen import HEAVY_ANSWERS, answer_cases

ANSWERS = json.loads(
    (Path(__file__).resolve().parent.parent / "tests" / "golden" / "answers.json").read_text()
)
CASES = answer_cases()


@lru_cache(maxsize=None)
def measured(name: str) -> dict:
    digest, metrics = CASES[name]()
    return {"digest": digest, "metrics": metrics}


@pytest.mark.parametrize("name", HEAVY_ANSWERS)
def test_heavy_answer_pinned(name):
    assert measured(name) == ANSWERS[name], (
        f"answer {name}: its digest or a pinned metric moved — "
        "regenerate tests/golden/ only if the change is intentional"
    )


def test_trickle_sends_5x_fewer_data_packets_than_the_flood():
    assert measured("lossy1k_flood_vs_trickle")["metrics"]["tx_ratio"] >= 5.0


def test_cohort_plans_at_least_2x_cheaper_than_full_images():
    metrics = measured("lossy1k_cohorts")["metrics"]
    assert metrics["energy_ratio"] >= 2.0
    assert metrics["converged"] == 1
    assert metrics["replay_identical"] == 1


def test_coded_transfer_beats_nack_repair():
    metrics = measured("lossy1k_coded_vs_nack")["metrics"]
    assert metrics["tx_ratio"] > 1.0
    assert metrics["coded_converged"] == 1
