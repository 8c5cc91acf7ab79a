"""Tests for the static verification layer (repro.analysis)."""

import pytest

from repro.analysis import (
    Finding,
    VerificationError,
    VerificationReport,
    audit_ilp_solution,
    verify_update,
)
from repro.core import (
    Compiler,
    UpdatePlanner,
    compile_source,
    plan_update,
)
from repro.ilp.branch_bound import SolveResult
from repro.ilp.model import IntegerProgram
from repro.workloads import CASES, RA_CASE_IDS
from repro.config import CompileConfig, UpdateConfig


# ---------------------------------------------------------------------------
# report / error plumbing
# ---------------------------------------------------------------------------


class TestReportPlumbing:
    def test_clean_report_is_ok(self):
        report = VerificationReport()
        report.extend("allocation", [])
        assert report.ok
        assert report.failing_passes() == []
        report.raise_if_failed()  # no-op

    def test_error_names_failing_pass(self):
        report = VerificationReport()
        report.extend("layout", [Finding("layout", "slots overlap")])
        with pytest.raises(VerificationError) as excinfo:
            report.raise_if_failed()
        assert "layout" in str(excinfo.value)
        assert excinfo.value.failing_passes == ["layout"]
        assert excinfo.value.report is report

    def test_render_lists_every_pass(self):
        report = VerificationReport()
        report.extend("patch", [])
        report.extend("energy", [Finding("energy", "objective drifted")])
        rendered = report.render()
        assert "pass patch" in rendered
        assert "objective drifted" in rendered


# ---------------------------------------------------------------------------
# the full pipeline verifies clean
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ra", ["ucc", "ucc-ilp"])
@pytest.mark.parametrize("case_id", RA_CASE_IDS)
def test_all_paper_cases_verify_clean(compiled_case_olds, case_id, ra):
    case = CASES[case_id]
    result = plan_update(compiled_case_olds[case_id], case.new_source, config=UpdateConfig(ra=ra))
    report = verify_update(result)
    assert report.ok, report.render()
    assert set(report.passes_run) == {
        "allocation",
        "layout",
        "addressing",
        "patch",
        "energy",
    }


@pytest.mark.parametrize("case_id", ["D1", "D2"])
def test_data_cases_verify_clean(compiled_case_olds, case_id):
    case = CASES[case_id]
    result = plan_update(compiled_case_olds[case_id], case.new_source)
    report = verify_update(result)
    assert report.ok, report.render()


# ---------------------------------------------------------------------------
# injected corruption is caught and attributed to the right pass
# ---------------------------------------------------------------------------


@pytest.fixture()
def planned_update(compiled_case_olds):
    """A fresh ucc/ucc update of case 3, safe to corrupt in-place."""
    case = CASES["3"]
    return plan_update(compiled_case_olds["3"], case.new_source)


def _assert_rejected(result, pass_name):
    report = verify_update(result)
    assert not report.ok
    with pytest.raises(VerificationError) as excinfo:
        report.raise_if_failed()
    assert pass_name in excinfo.value.failing_passes, str(excinfo.value)
    return excinfo.value


class TestCorruptionDetection:
    def test_clobbered_register_caught_by_allocation_pass(self, planned_update):
        placement = next(
            p
            for record in planned_update.new.records.values()
            for p in record.placements.values()
            if p.pieces
        )
        placement.pieces[0].base = 0  # r0 is reserved for scratch
        _assert_rejected(planned_update, "allocation")

    def test_overlapping_slots_caught_by_layout_pass(self, planned_update):
        layout = planned_update.new.layout
        uids = sorted(layout.addresses)
        assert len(uids) >= 2
        layout.addresses[uids[1]] = layout.addresses[uids[0]]
        _assert_rejected(planned_update, "layout")

    def test_truncated_script_caught_by_patch_pass(self, planned_update):
        assert planned_update.diff.script.primitives
        planned_update.diff.script.primitives.pop()
        _assert_rejected(planned_update, "patch")

    def test_tampered_diff_words_caught_by_energy_audit(self, planned_update):
        planned_update.diff.diff_words += 3
        error = _assert_rejected(planned_update, "energy")
        assert "diff_words" in str(error)

    def test_relocated_object_caught_by_addressing_pass(self, planned_update):
        # Move one referenced object elsewhere in the segment: the
        # emitted lds/sts still target the old address.
        layout = planned_update.new.layout
        uid = max(layout.addresses, key=lambda u: layout.addresses[u])
        layout.addresses[uid] = layout.addresses[uid] + 2
        report = verify_update(planned_update)
        assert not report.ok
        # either the stale address or a resulting overlap must fire
        assert set(report.failing_passes()) & {"addressing", "layout"}


class TestILPAudit:
    def _model(self):
        model = IntegerProgram()
        model.add_objective(model.var("x"), 2.0)
        model.add_constraint([(1.0, "x")], ">=", 1.0)
        return model

    def test_consistent_solution_passes(self):
        model = self._model()
        result = SolveResult(status="optimal", values={"x": 1}, objective=2.0)
        assert audit_ilp_solution(model, result) == []

    def test_drifted_objective_flagged(self):
        model = self._model()
        result = SolveResult(status="optimal", values={"x": 1}, objective=5.0)
        findings = audit_ilp_solution(model, result)
        assert findings and "objective" in findings[0].message

    def test_infeasible_assignment_flagged(self):
        model = self._model()
        result = SolveResult(status="optimal", values={"x": 0}, objective=0.0)
        findings = audit_ilp_solution(model, result)
        assert findings

    def test_non_optimal_results_are_skipped(self):
        model = self._model()
        result = SolveResult(status="infeasible", values={}, objective=0.0)
        assert audit_ilp_solution(model, result) == []


# ---------------------------------------------------------------------------
# checked pipeline mode
# ---------------------------------------------------------------------------


class TestCheckedMode:
    def test_checked_compile_passes_on_clean_source(self):
        case = CASES["1"]
        program = compile_source(case.old_source, CompileConfig(checked=True))
        assert program.config.checked

    def test_checked_plan_runs_verifiers(self, compiled_case_olds):
        case = CASES["2"]
        result = plan_update(
            compiled_case_olds["2"], case.new_source, config=UpdateConfig(checked=True)
        )
        assert result.new.config.checked

    def test_checked_inherited_from_old_options(self):
        case = CASES["1"]
        compiler = Compiler(CompileConfig(checked=True))
        old = compiler.compile(case.old_source)
        result = UpdatePlanner(old).plan(case.new_source)
        # checked=None inherits from the old program's config
        assert result.new.config.checked
