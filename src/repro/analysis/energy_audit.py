"""Energy audit: recompute update costs from first principles.

The planner's strategy choices (greedy move insertion, ILP adoption,
placement auto-selection) all hinge on energy numbers.  This pass
recomputes them from the shipped artefacts and cross-checks the
producers' accounting:

* the serialised script length is what ``size_bytes`` claims (the
  radio pays for real bytes, not estimates),
* ``Diff_inst``/``diff_words`` match what the script actually carries,
* the dissemination energy derived bit-by-bit from the payload equals
  the model's ``E_trans`` accounting within tolerance, and
* eq. 18's total update energy recomputes from its parts when cycle
  measurements are present.

:func:`audit_ilp_solution` performs the solver-side counterpart: an
"optimal" ILP outcome must be feasible for its own model and its
reported objective must equal the model evaluated at the returned
assignment — a drifted objective would silently skew every adoption
decision built on it.
"""

from __future__ import annotations

from ..energy.model import WORD_BITS, EnergyModel
from .base import Finding

PASS_NAME = "energy"

#: Relative tolerance for floating-point energy comparisons.
TOLERANCE = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def audit_update(result, energy: EnergyModel, cnt: float = 1000.0) -> list[Finding]:
    """Cross-check one :class:`~repro.core.update.UpdateResult`."""
    findings: list[Finding] = []

    def fail(message: str) -> None:
        findings.append(Finding(pass_name=PASS_NAME, message=message))

    script = result.diff.script
    wire_bytes = len(script.to_bytes())
    if wire_bytes != script.size_bytes:
        fail(
            f"script claims {script.size_bytes} bytes but serialises to "
            f"{wire_bytes}"
        )

    carried_inst = script.transmitted_instructions
    if carried_inst != result.diff.diff_inst:
        fail(
            f"Diff_inst is {result.diff.diff_inst} but the script carries "
            f"{carried_inst} instructions"
        )

    carried_words = script.payload_words
    if carried_words != result.diff.diff_words:
        fail(
            f"diff_words is {result.diff.diff_words} but the script carries "
            f"{carried_words} words"
        )

    data_bytes = result.data_script.size_bytes
    data_wire = len(result.data_script.to_bytes())
    if data_bytes != data_wire:
        fail(
            f"data script claims {data_bytes} bytes but serialises to "
            f"{data_wire}"
        )
    if result.script_bytes != script.size_bytes + data_bytes:
        fail(
            f"total script_bytes {result.script_bytes} != code "
            f"{script.size_bytes} + data {data_bytes}"
        )

    # Dissemination energy from first principles: every payload bit at
    # the radio's per-bit cost.
    first_principles = 8.0 * (wire_bytes + data_wire) * energy.e_trans_bit
    modelled = energy.e_trans_bytes(wire_bytes + data_wire)
    if not _close(first_principles, modelled):
        fail(
            f"dissemination energy {modelled} deviates from the "
            f"bit-level recomputation {first_principles}"
        )
    word_model = energy.e_trans_words(carried_words)
    word_first = float(carried_words) * WORD_BITS * energy.e_trans_bit
    if not _close(word_model, word_first):
        fail(
            f"E_trans per-word accounting {word_model} deviates from "
            f"{word_first}"
        )

    # Eq. 18 recomputes from its parts when cycles were measured.
    if result.old_cycles is not None and result.new_cycles is not None:
        recomputed = (
            energy.e_trans_words(result.diff_words)
            + energy.e_trans_bytes(data_bytes)
            + (result.new_cycles - result.old_cycles) * cnt
        )
        claimed = result.diff_energy(cnt, energy)
        if not _close(recomputed, claimed):
            fail(
                f"eq. 18 energy {claimed} deviates from the recomputation "
                f"{recomputed} at cnt={cnt}"
            )
    return findings


def audit_ilp_solution(model, result) -> list[Finding]:
    """Cross-check one ILP solve against its own model.

    ``model`` is an :class:`~repro.ilp.model.Problem`; ``result`` an
    :class:`~repro.ilp.branch_bound.SolveResult`.
    """
    findings: list[Finding] = []
    if result.status != "optimal":
        return findings
    if not model.is_feasible(result.values, tol=TOLERANCE):
        findings.append(
            Finding(
                pass_name=PASS_NAME,
                message="ILP solution violates its own constraints",
            )
        )
    evaluated = model.evaluate(result.values)
    if not _close(evaluated, result.objective):
        findings.append(
            Finding(
                pass_name=PASS_NAME,
                message=(
                    f"ILP objective {result.objective} deviates from the "
                    f"model evaluated at the solution ({evaluated})"
                ),
            )
        )
    return findings
