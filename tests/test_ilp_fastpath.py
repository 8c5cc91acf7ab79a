"""Differential certification of the fast path (:mod:`repro.ilp.fastpath`).

Every vectorized ILP code path keeps its original implementation
alive behind ``reference_mode(True)``.  These tests run the two side by
side — on the simplex, the branch & bound lowering, the chunk-model
generator, the Figure 9 edit grid and fuzz-generated update pairs —
and require the answers to be *bit-identical*: same floats, same
iteration counts, same bytes.  The speed may differ; the answer may
not.  The batch instruction codec has no twin; it is checked against
the one-instruction ``encode``/``decode`` below.

The crafted degenerate tableau (Beale's classic cycling example)
additionally pins the anti-cycling behaviour: Dantzig pricing hands
over to Bland's rule after ``DEGENERATE_BLAND_AFTER`` consecutive
degenerate pivots, deterministically and identically on both paths.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import UpdateConfig
from repro.core import compile_source, plan_update
from repro.fuzz import generate_program, mutate
from repro.ilp import IntegerProgram, solve, solve_branch_bound, solve_lp
from repro.ilp.branch_bound import build_matrices
from repro.ilp.canonical import SOLVE_CACHE, canonical_digests
from repro.ilp.fastpath import fastpath_enabled, reference_mode
from repro.ilp.simplex import DEGENERATE_BLAND_AFTER
from repro.isa.instructions import (
    EncodingError,
    MachineInstr,
    decode,
    decode_batch,
    encode,
    encode_batch,
)
from repro.obs import metrics
from repro.workloads import CASES
from repro.workloads.synthetic import ilp_spec

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _solve_lp_both(c, a_ub, b_ub, a_eq, b_eq, **kwargs):
    """Solve one LP on both paths; assert bit-identical outcomes."""
    fast = solve_lp(c, a_ub, b_ub, a_eq, b_eq, **kwargs)
    with reference_mode(True):
        ref = solve_lp(c, a_ub, b_ub, a_eq, b_eq, **kwargs)
    assert fast.status == ref.status
    assert fast.iterations == ref.iterations
    if fast.status == "optimal":
        assert fast.objective == ref.objective  # exact, not approx
        assert np.array_equal(fast.x, ref.x)
    return fast


class TestSimplexDifferential:
    def test_textbook_cases(self):
        _solve_lp_both(
            np.array([-3.0, -2.0]),
            np.array([[1.0, 1.0], [1.0, 0.0]]),
            np.array([4.0, 2.0]),
            None,
            None,
        )
        _solve_lp_both(
            np.array([1.0, 2.0]), None, None,
            np.array([[1.0, 1.0]]), np.array([1.0]),
        )
        _solve_lp_both(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([1.0, -3.0]),
            None,
            None,
        )

    def test_random_lps_bit_identical(self):
        rng = np.random.RandomState(1234)
        for trial in range(40):
            n = rng.randint(2, 7)
            m_ub = rng.randint(0, 5)
            m_eq = rng.randint(0, 3)
            c = rng.randint(-4, 5, size=n).astype(float)
            a_ub = rng.randint(-3, 4, size=(m_ub, n)).astype(float) if m_ub else None
            b_ub = rng.randint(-2, 6, size=m_ub).astype(float) if m_ub else None
            a_eq = rng.randint(-2, 3, size=(m_eq, n)).astype(float) if m_eq else None
            b_eq = rng.randint(0, 4, size=m_eq).astype(float) if m_eq else None
            ub = np.ones(n) if trial % 2 else None
            _solve_lp_both(c, a_ub, b_ub, a_eq, b_eq, ub=ub)

    def test_zero_constraint_problems(self):
        _solve_lp_both(np.array([1.0, 0.5]), None, None, None, None)
        _solve_lp_both(np.array([-1.0]), None, None, None, None)


class TestDegenerateBland:
    """Satellite regression: deterministic anti-cycling pivoting."""

    # Beale (1955): cycles forever under naive Dantzig pricing with
    # classical tie-breaking.  Optimum is x = (1/25, 0, 1, 0) with
    # objective -1/20.
    BEALE_C = np.array([-0.75, 150.0, -0.02, 6.0])
    BEALE_A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    BEALE_B = np.array([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bland_after", [0, 1, 6, DEGENERATE_BLAND_AFTER])
    def test_beale_terminates_at_optimum(self, bland_after):
        result = _solve_lp_both(
            self.BEALE_C, self.BEALE_A, self.BEALE_B, None, None,
            bland_after=bland_after,
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-0.05)
        # Termination must come from the anti-cycling rule, not the
        # iteration ceiling.
        assert result.iterations < 100

    def test_bland_switch_is_deterministic(self):
        # Same problem, same bland_after -> identical pivot sequence,
        # run to run (no set/dict iteration order anywhere).
        runs = {
            (res.iterations, res.objective, tuple(res.x))
            for res in (
                solve_lp(self.BEALE_C, self.BEALE_A, self.BEALE_B, None, None)
                for _ in range(3)
            )
        }
        assert len(runs) == 1

    def test_degenerate_block_tableau(self):
        # Many zero-rhs rows force a long degenerate run; both paths
        # must hand over to Bland at the same pivot and agree exactly.
        rng = np.random.RandomState(7)
        n = 6
        a_ub = rng.randint(-2, 3, size=(8, n)).astype(float)
        b_ub = np.zeros(8)
        b_ub[-1] = 4.0
        c = rng.randint(-3, 3, size=n).astype(float)
        _solve_lp_both(c, a_ub, b_ub, None, None, ub=np.ones(n), bland_after=2)


class TestChunkModelDifferential:
    """Figure 13-15 models: generation, lowering, and solve."""

    @pytest.mark.parametrize("size", [8, 16])
    def test_model_and_solve_bit_identical(self, size):
        from repro.regalloc.ilp_model import build_chunk_model

        spec = ilp_spec(size)
        fast_prog = build_chunk_model(spec)
        with reference_mode(True):
            ref_prog = build_chunk_model(spec)
        # The rendered LP is a complete, ordered serialisation of the
        # model — equality means identical constraints in identical
        # order with identical coefficients.
        assert fast_prog.render_lp() == ref_prog.render_lp()

        fast_m = build_matrices(fast_prog)
        with reference_mode(True):
            ref_m = build_matrices(ref_prog)
        assert fast_m.names == ref_m.names
        for attr in ("c", "a_ub", "b_ub", "a_eq", "b_eq"):
            assert np.array_equal(getattr(fast_m, attr), getattr(ref_m, attr)), attr

        fast_res = solve_branch_bound(fast_prog)
        with reference_mode(True):
            ref_res = solve_branch_bound(ref_prog)
        assert fast_res.status == ref_res.status
        assert fast_res.values == ref_res.values
        assert fast_res.objective == ref_res.objective  # exact
        assert fast_res.stats.simplex_iterations == ref_res.stats.simplex_iterations
        assert fast_res.stats.lp_solves == ref_res.stats.lp_solves
        assert fast_res.stats.nodes == ref_res.stats.nodes


def _plan_digest(old, new_source, ra):
    SOLVE_CACHE.clear()  # a memo hit would trivially equalise the modes
    result = plan_update(old, new_source, config=UpdateConfig(ra=ra, da="ucc"))
    return (
        result.diff.script.to_bytes(),
        result.data_script.to_bytes(),
    )


class TestUpdatePipelineDifferential:
    """End-to-end edit scripts across the Figure 9 grid and fuzz pairs."""

    @pytest.mark.parametrize("case_id", ["1", "3", "6", "9", "12", "13"])
    @pytest.mark.parametrize("ra", ["ucc", "ucc-ilp"])
    def test_figure9_scripts_identical(self, case_id, ra):
        case = CASES[case_id]
        old = compile_source(case.old_source)
        fast = _plan_digest(old, case.new_source, ra)
        with reference_mode(True):
            ref = _plan_digest(old, case.new_source, ra)
        assert fast == ref

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_fuzz_pairs_identical(self, seed):
        program = generate_program(random.Random(seed))
        mutated, _edits = mutate(program, random.Random(seed + 100), 2)
        old = compile_source(program.render())
        fast = _plan_digest(old, mutated.render(), "ucc")
        with reference_mode(True):
            ref = _plan_digest(old, mutated.render(), "ucc")
        assert fast == ref

    def test_compiled_images_identical(self):
        from repro.workloads.programs import PROGRAMS

        for name, source in sorted(PROGRAMS.items()):
            fast = compile_source(source).image
            with reference_mode(True):
                ref = compile_source(source).image
            assert fast.to_bytes() == ref.to_bytes(), name
            assert fast.entry == ref.entry, name


class TestBatchCodecDifferential:
    """encode_batch/decode_batch against one-at-a-time encode/decode."""

    def _blink_image(self):
        from repro.workloads.programs import PROGRAMS

        return compile_source(PROGRAMS["Blink"]).image

    def test_round_trip_identical(self):
        image = self._blink_image()
        words = image.words()
        instrs = [enc.instr for enc in image.code]
        encoded = encode_batch(instrs)
        assert encoded == [encode(instr) for instr in instrs]
        assert [w for ws in encoded for w in ws] == words
        decoded = decode_batch(words)
        assert decoded == [decode(words, enc.address)[0] for enc in image.code]
        assert encode_batch(decoded) == encoded
        assert image.to_bytes() == b"".join(w.to_bytes(2, "little") for w in words)

    def test_error_message_parity(self):
        image = self._blink_image()
        instr = image.code[0].instr
        bad = MachineInstr(mnemonic=instr.mnemonic, rd=99, rr=instr.rr,
                           imm=instr.imm, addr=instr.addr)
        with pytest.raises(EncodingError) as batch_exc:
            encode_batch([instr, bad])
        with pytest.raises(EncodingError) as single_exc:
            encode(bad)
        assert str(batch_exc.value) == str(single_exc.value)
        with pytest.raises(EncodingError) as batch_exc:
            decode_batch([0xFFFF])
        with pytest.raises(EncodingError) as single_exc:
            decode([0xFFFF], 0)
        assert str(batch_exc.value) == str(single_exc.value)


def _random_ip(rng: random.Random, n_vars: int) -> IntegerProgram:
    prog = IntegerProgram()
    names = [f"x{i}" for i in range(n_vars)]
    for name in names:
        prog.add_objective(name, float(rng.randint(-4, 4)))
    for _ in range(rng.randint(1, 3)):
        terms = [(float(rng.randint(1, 3)), name)
                 for name in rng.sample(names, rng.randint(2, n_vars))]
        prog.add_constraint(terms, "<=", float(rng.randint(1, 4)))
    return prog


class TestWarmStart:
    """The solve-memo warm start may speed pruning up, never change
    the answer."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_warm_start_never_worsens_objective(self, seed):
        if not fastpath_enabled():
            pytest.skip("warm start is a fast-path feature")
        rng = random.Random(seed)
        prog = _random_ip(rng, rng.randint(3, 6))
        SOLVE_CACHE.clear()
        cold = solve(prog, backend="own")
        # Same structure, different incumbent hint -> different exact
        # digest, same structure digest: the warm path is eligible.
        hint = {name: 1 for name in prog.variables}
        warm = solve(prog, backend="own", incumbent=hint)
        # The warm start may only change how the answer is found: the
        # same hinted call without the memo is the reference.  When
        # the hint is itself optimal both keep it, so its values may be
        # another optimum than the unhinted solve's.
        hinted = solve(prog, backend="own", incumbent=hint, cache=False)
        assert warm.status == hinted.status
        assert warm.values == hinted.values
        assert warm.objective == cold.objective  # exact

    def test_warm_start_adoption_counted(self):
        if not fastpath_enabled():
            pytest.skip("warm start is a fast-path feature")
        rng = random.Random(42)
        # A program whose all-ones hint is feasible but suboptimal, so
        # the memoised optimum strictly beats it and gets adopted.
        prog = IntegerProgram()
        for i in range(4):
            prog.add_objective(f"x{i}", float(i + 1))
        prog.add_constraint([(1.0, "x0"), (1.0, "x1")], "<=", 2.0)
        del rng
        SOLVE_CACHE.clear()
        solve(prog, backend="own")
        before = metrics.REGISTRY.values().get("ilp.cache.warm_starts", 0)
        solve(prog, backend="own", incumbent={f"x{i}": 1 for i in range(4)})
        after = metrics.REGISTRY.values().get("ilp.cache.warm_starts", 0)
        assert after == before + 1

    def test_structure_digest_isomorphic_rename(self):
        prog = _random_ip(random.Random(5), 5)
        renamed = IntegerProgram()
        mapping = {f"x{i}": f"var_{i}" for i in range(5)}
        for term_name, coeff in prog.objective.items():
            renamed.add_objective(mapping[term_name], coeff)
        for cons in prog.constraints:
            renamed.add_constraint(
                [(t.coeff, mapping[t.var]) for t in cons.terms],
                cons.sense,
                cons.rhs,
            )
        _, structure_a = canonical_digests(prog, backend="own")
        _, structure_b = canonical_digests(renamed, backend="own")
        assert structure_a == structure_b


def test_env_flag_selects_the_reference_path():
    """``REPRO_REFERENCE_PATH`` picks the path for a whole process."""
    snippet = "from repro.ilp.fastpath import fastpath_enabled; print(fastpath_enabled())"
    seen = {}
    for flag in ("1", "0"):
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            env={"REPRO_REFERENCE_PATH": flag, "PYTHONPATH": REPO_SRC,
                 "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen[flag] = proc.stdout.strip()
    assert seen == {"1": "False", "0": "True"}
