"""Tests of the §3.3/§3.4 ILP register-allocation model and MINLP ref."""

import pytest

from repro.core import Compiler, compile_source
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.ir import analyze, static_frequencies
from repro.ir.liveness import analyze as analyze_liveness
from repro.ilp import solve
from repro.regalloc import allocate_ucc_greedy, verify_allocation
from repro.regalloc.chunks import changed_indices
from repro.regalloc.ilp_model import (
    THETA,
    build_chunk_model,
    greedy_incumbent,
    nonlinear_objective,
)
from repro.regalloc.ilp_ra import allocate_ucc_ilp, build_spec_for_chunk
from repro.regalloc.minlp import solve_chunk_minlp
from repro.workloads import CASES
from repro.config import UpdateConfig


def chunk_fixture(case_id="6", fname="tosh_run_next_task", candidates=3):
    case = CASES[case_id]
    old = compile_source(case.old_source)
    module = Compiler().front_and_middle(case.new_source)
    fn = module.functions[fname]
    record, report = allocate_ucc_greedy(
        fn, old.module.functions[fname], old.records[fname]
    )
    info = analyze(fn)
    freqs = static_frequencies(fn)
    changed = changed_indices(fn, report.match)
    chunk = next(c for c in report.chunks if c.changed)
    spec = build_spec_for_chunk(
        fn,
        info,
        record,
        report,
        chunk.start,
        chunk.end,
        changed,
        freqs,
        DEFAULT_ENERGY_MODEL,
        1000.0,
        candidates,
    )
    return fn, record, report, spec


class TestChunkModel:
    def test_model_builds_and_solves(self):
        _, _, _, spec = chunk_fixture()
        model = build_chunk_model(spec)
        assert model.num_variables > 0
        assert model.num_constraints > 0
        result = solve(model, backend="scipy")
        assert result.status == "optimal"

    def test_own_and_scipy_agree(self):
        _, record, _, spec = chunk_fixture()
        model = build_chunk_model(spec)
        assignment = {
            a: (None if record.placements[a].spilled else record.placements[a].sole_register)
            for a in spec.variables()
        }
        incumbent = greedy_incumbent(spec, assignment)
        own = solve(model, backend="own", incumbent=incumbent)
        ref = solve(model, backend="scipy")
        assert own.status == ref.status == "optimal"
        assert own.objective == pytest.approx(ref.objective, rel=1e-9)

    def test_constraints_grow_with_chunk_size(self):
        """Paper Figure 13: constraints ~ linear in instruction count."""
        sizes = []
        for fname in ("tosh_run_next_task", "main"):
            try:
                _, _, _, spec = chunk_fixture(fname=fname)
            except StopIteration:
                continue
            model = build_chunk_model(spec)
            sizes.append((spec.hi - spec.lo, model.num_constraints))
        assert sizes
        for instrs, constraints in sizes:
            assert constraints >= instrs  # at least ~1 constraint per stmt

    def test_incumbent_is_feasible(self):
        _, record, _, spec = chunk_fixture()
        model = build_chunk_model(spec)
        assignment = {
            a: (None if record.placements[a].spilled else record.placements[a].sole_register)
            for a in spec.variables()
        }
        incumbent = greedy_incumbent(spec, assignment)
        assert model.is_feasible(incumbent)

    def test_theta_is_three_quarters(self):
        assert THETA == 0.75


class TestILPAllocator:
    def test_ilp_mode_verifies(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        module = Compiler().front_and_middle(case.new_source)
        for fname, fn in module.functions.items():
            record, report = allocate_ucc_ilp(
                fn, old.module.functions[fname], old.records[fname]
            )
            verify_allocation(record, analyze_liveness(fn))

    def test_ilp_never_worse_than_greedy_on_diff(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        from repro.core import plan_update

        greedy = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        ilp = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc-ilp", da="ucc"))
        assert ilp.diff_inst <= greedy.diff_inst + 2  # ties allowed

    def test_stats_recorded_per_chunk(self):
        case = CASES["6"]
        old = compile_source(case.old_source)
        module = Compiler().front_and_middle(case.new_source)
        fn = module.functions["tosh_run_next_task"]
        _, report = allocate_ucc_ilp(
            fn, old.module.functions["tosh_run_next_task"], old.records["tosh_run_next_task"]
        )
        solved = [o for o in report.chunks if o.stats is not None]
        assert solved
        for outcome in solved:
            assert outcome.stats.num_variables > 0


class TestMINLP:
    def test_minlp_matches_ilp_objective(self):
        """Paper §5.6: the linear approximation produces the same
        decisions (and therefore the same true energy) as the MINLP."""
        _, record, _, spec = chunk_fixture(candidates=3)
        model = build_chunk_model(spec)
        ilp = solve(model, backend="scipy")
        assert ilp.status == "optimal"
        minlp = solve_chunk_minlp(spec)
        ilp_true_energy = nonlinear_objective(spec, ilp.values)
        assert ilp_true_energy == pytest.approx(minlp.objective, rel=1e-9)

    def test_minlp_slower_than_ilp(self):
        """§5.6's performance claim, at our scale: enumeration evaluates
        many assignments where the ILP solves once."""
        _, _, _, spec = chunk_fixture(candidates=3)
        minlp = solve_chunk_minlp(spec)
        assert minlp.evaluated > 10

    def test_enumeration_guard(self):
        _, _, _, spec = chunk_fixture(candidates=3)
        with pytest.raises(ValueError):
            solve_chunk_minlp(spec, max_assignments=1)
