"""Tests for the static verification layer (repro.analysis)."""

import pytest

from repro.analysis import (
    ENTRY_DEF,
    Definition,
    Finding,
    VerificationError,
    VerificationReport,
    audit_ilp_solution,
    def_use_chains,
    dominators,
    immediate_dominators,
    reaching_definitions,
    verify_update,
)
from repro.core import (
    Compiler,
    CompilerOptions,
    UpdatePlanner,
    compile_source,
    plan_update,
)
from repro.ilp.branch_bound import SolveResult
from repro.ilp.model import IntegerProgram
from repro.ir import build_cfg, build_ir
from repro.lang import frontend
from repro.workloads import CASES, RA_CASE_IDS
from repro.config import UpdateConfig


def lower_fn(source, name="f"):
    return build_ir(frontend(source)).functions[name]


# ---------------------------------------------------------------------------
# dataflow framework
# ---------------------------------------------------------------------------


class TestReachingDefinitions:
    def test_redefinition_kills_previous(self):
        fn = lower_fn("u8 f() { u8 x = 1; x = 2; return x; }")
        rd = reaching_definitions(fn)
        ret_idx = len(fn.instrs) - 1
        x_name = next(r.name for r in fn.instrs[0].defs())
        reaching = rd.defs_reaching(ret_idx, x_name)
        # only the second definition survives to the return
        assert len(reaching) == 1
        assert all(d.index > 0 for d in reaching)

    def test_branch_merges_definitions(self):
        fn = lower_fn(
            "u8 f(u8 a) { u8 x = 1; if (a) { x = 2; } return x; }"
        )
        rd = reaching_definitions(fn)
        x_name = next(r.name for r in fn.instrs[0].defs() if "x" in r.name)
        # both arms' definitions can reach the join
        reached = {d.index for d in rd.defs_reaching(len(fn.instrs) - 1, x_name)}
        assert len(reached) == 2

    def test_parameters_reach_from_entry(self):
        fn = lower_fn("u8 f(u8 a) { return a; }")
        rd = reaching_definitions(fn)
        a_name = fn.param_vregs[0].name
        assert Definition(a_name, ENTRY_DEF) in rd.reach_in[0]

    def test_loop_carried_definition_reaches_header(self):
        fn = lower_fn("void f(u8 a) { while (a) { a = a - 1; } }")
        rd = reaching_definitions(fn)
        a_name = fn.param_vregs[0].name
        # the in-loop redefinition flows around the back edge to index 0
        assert any(
            d.index >= 0 for d in rd.defs_reaching(0, a_name)
        ), "back-edge definition should reach the loop header"


class TestDefUseChains:
    def test_use_linked_to_its_definition(self):
        fn = lower_fn("u8 f() { u8 x = 7; return x; }")
        chains = def_use_chains(fn)
        x_name = next(r.name for r in fn.instrs[0].defs())
        definition = Definition(x_name, 0)
        assert definition in chains.uses_of
        assert chains.uses_of[definition]

    def test_well_formed_function_has_no_undefined_uses(self):
        fn = lower_fn(
            "u8 f(u8 a) { u8 x = a + 1; if (x) { x = x + a; } return x; }"
        )
        chains = def_use_chains(fn)
        assert chains.undefined_uses == []


class TestDominators:
    def test_entry_dominates_everything(self):
        fn = lower_fn("void f(u8 a) { if (a) { a = 1; } else { a = 2; } }")
        cfg = build_cfg(fn)
        dom = dominators(cfg)
        assert all(0 in dom[b.index] for b in cfg.blocks)

    def test_branch_arm_does_not_dominate_join(self):
        fn = lower_fn(
            "u8 f(u8 a) { u8 x = 0; if (a) { x = 1; } else { x = 2; } return x; }"
        )
        cfg = build_cfg(fn)
        dom = dominators(cfg)
        entry = cfg.blocks[0]
        arms = entry.successors
        join = next(
            b.index
            for b in cfg.blocks
            if b.index not in arms and b.index != entry.index
        )
        for arm in arms:
            assert arm not in dom[join]

    def test_immediate_dominator_of_join_is_branch_head(self):
        fn = lower_fn(
            "u8 f(u8 a) { u8 x = 0; if (a) { x = 1; } else { x = 2; } return x; }"
        )
        cfg = build_cfg(fn)
        idom = immediate_dominators(cfg)
        assert idom[0] is None
        dom = dominators(cfg)
        for block in cfg.blocks:
            if block.index == 0:
                continue
            # the idom is a strict dominator
            assert idom[block.index] in dom[block.index] - {block.index}


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
        program = compile_source(case.old_source, checked=True)
        assert program.options.checked

    def test_checked_plan_runs_verifiers(self, compiled_case_olds):
        case = CASES["2"]
        result = plan_update(
            compiled_case_olds["2"], case.new_source, config=UpdateConfig(checked=True)
        )
        assert result.new.options.checked

    def test_checked_inherited_from_old_options(self):
        case = CASES["1"]
        compiler = Compiler(CompilerOptions(checked=True))
        old = compiler.compile(case.old_source)
        result = UpdatePlanner(old).plan(case.new_source)
        # checked=None inherits from the old program's options
        assert result.new.options.checked
