"""Tests for the end-to-end update fuzzer (:mod:`repro.fuzz`).

Covers the three guarantees the subsystem makes:

* **determinism** — same seed, same programs, same edits, same verdict
  digest, on any platform;
* **soundness of the clean path** — generated pairs pass every oracle
  (a short campaign with zero findings);
* **sensitivity** — a deliberately broken sensor-side patcher is
  caught by the oracle battery and delta-debugged down to a minimal,
  persisted reproducer.
"""

import json
import random

import pytest

from repro.core import compile_source
from repro.fuzz import (
    GenConfig,
    apply_edits,
    check_pair,
    generate_program,
    mutate,
    run_fuzz,
)
from repro.fuzz import oracles as fuzz_oracles
from repro.fuzz.progen import validate
from repro.fuzz.runner import _iteration_rng

#: Small programs keep the shrinking tests fast; the defaults are
#: exercised by the CI smoke campaign (`repro fuzz`).
SMALL = GenConfig(
    max_globals=3,
    max_arrays=1,
    max_funcs=1,
    max_stmts=3,
    max_nesting=1,
    scheduler_iters=8,
)


def _rng(seed=0):
    return random.Random(f"test-fuzz:{seed}")


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


class TestProgramGenerator:
    def test_same_seed_same_program(self):
        a = generate_program(_rng(1)).render()
        b = generate_program(_rng(1)).render()
        assert a == b

    def test_different_seeds_differ(self):
        sources = {generate_program(_rng(seed)).render() for seed in range(6)}
        assert len(sources) > 1

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_programs_compile_and_halt(self, seed):
        program = generate_program(_rng(seed))
        source = program.render()
        compiled = compile_source(source)
        assert compiled.instruction_count > 0
        assert "halt()" in source
        validate(program)  # frontend accepts the structured form too

    def test_config_bounds_respected(self):
        program = generate_program(_rng(2), SMALL)
        assert len(program.funcs) <= SMALL.max_funcs + 1  # helpers + main
        assert len(program.globals) <= SMALL.max_globals + SMALL.max_arrays


# ---------------------------------------------------------------------------
# mutator
# ---------------------------------------------------------------------------


class TestMutator:
    def test_same_seed_same_edits(self):
        program = generate_program(_rng(3))
        _, edits_a = mutate(program, _rng(30), 3)
        _, edits_b = mutate(program, _rng(30), 3)
        assert [e.describe() for e in edits_a] == [e.describe() for e in edits_b]

    @pytest.mark.parametrize("seed", range(5))
    def test_mutated_programs_compile(self, seed):
        program = generate_program(_rng(seed))
        mutated, edits = mutate(program, _rng(seed + 100), 3)
        assert edits, "mutator produced no applicable edits"
        compile_source(mutated.render())

    def test_edits_replay_on_a_clone(self):
        program = generate_program(_rng(4))
        mutated, edits = mutate(program, _rng(40), 2)
        assert apply_edits(program, edits).render() == mutated.render()
        # the base program is untouched
        validate(program)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class TestOracles:
    def test_clean_generated_pair_passes_all_oracles(self):
        program = generate_program(_rng(7), SMALL)
        mutated, edits = mutate(program, _rng(70), 2)
        assert edits
        verdict = check_pair(program.render(), mutated.render())
        assert verdict.ok, verdict.summary()
        assert verdict.old_cycles and verdict.new_cycles

    @pytest.mark.parametrize("seed", range(12))
    def test_scratch_image_matches_the_ir_interpreter(self, seed):
        """Generated pairs pass every oracle, including the comparison
        of the from-scratch image with ``run_ir`` on the rebuilt IR."""
        program = generate_program(_rng(200 + seed))
        mutated, _edits = mutate(program, _rng(300 + seed), 2)
        verdict = check_pair(program.render(), mutated.render())
        assert verdict.ok, verdict.summary()

    def test_machine_fault_shared_by_both_images_is_caught(self, monkeypatch):
        """A simulator fault hits the incremental and the from-scratch
        run alike, so only the IR reference can see it."""
        from repro.sim import executor

        def flipped_out(sim, a, b, now):
            sim.devices.io_write(b, sim.regs[a] ^ 1)

        monkeypatch.setitem(executor._HANDLERS, "out", flipped_out)
        program = generate_program(_rng(200))  # writes LEDs and radio
        mutated, _edits = mutate(program, _rng(300), 2)
        verdict = check_pair(program.render(), mutated.render())
        assert {f.oracle for f in verdict.failures} == {"trace"}
        assert "IR interpreter" in verdict.summary()

    def test_non_compiling_new_source_is_a_plan_failure(self):
        program = generate_program(_rng(8), SMALL)
        verdict = check_pair(program.render(), "void main() { undeclared = 1; }")
        assert not verdict.ok
        assert verdict.failures[0].oracle == "plan"


# ---------------------------------------------------------------------------
# campaign determinism
# ---------------------------------------------------------------------------


class TestCampaignDeterminism:
    def test_same_seed_same_digest(self):
        a = run_fuzz(seed=5, iters=3, config=SMALL)
        b = run_fuzz(seed=5, iters=3, config=SMALL)
        assert a.ok and b.ok
        assert a.digest == b.digest
        assert a.edit_counts == b.edit_counts
        assert a.script_bytes_total == b.script_bytes_total

    def test_different_seeds_different_digest(self):
        a = run_fuzz(seed=5, iters=3, config=SMALL)
        b = run_fuzz(seed=6, iters=3, config=SMALL)
        assert a.digest != b.digest

    def test_iteration_rng_is_stable_across_runs(self):
        # string-seeded Random hashes with SHA-512, not PYTHONHASHSEED
        assert _iteration_rng(0, 0).random() == _iteration_rng(0, 0).random()
        assert (
            _iteration_rng(0, 1).getrandbits(32)
            != _iteration_rng(1, 0).getrandbits(32)
        )

    def test_report_renders_summary(self):
        report = run_fuzz(seed=5, iters=2, config=SMALL)
        text = report.render()
        assert "seed=5" in text and "findings=0" in text
        assert report.digest in text


# ---------------------------------------------------------------------------
# sensitivity: a broken patcher must be caught and shrunk
# ---------------------------------------------------------------------------


def _break_patcher(monkeypatch):
    """Install a patcher that flips one word of every rebuilt image."""
    real = fuzz_oracles.patched_words

    def broken(old_image, script):
        words = real(old_image, script)
        if words:
            words[0] ^= 0x0001
        return words

    monkeypatch.setattr(fuzz_oracles, "patched_words", broken)


class TestBrokenPatcherIsCaught:
    def test_finding_is_reported_shrunk_and_persisted(self, monkeypatch, tmp_path):
        _break_patcher(monkeypatch)
        corpus = tmp_path / "corpus"
        report = run_fuzz(seed=0, iters=1, config=SMALL, corpus_dir=str(corpus))
        assert not report.ok
        (finding,) = report.findings

        # caught: the patch oracle names the divergence
        assert any(f.oracle == "patch" for f in finding.failures)
        assert "diverges" in finding.failures[0].message

        # shrunk: a single surviving edit on a minimal program
        assert finding.shrunk_edits == 1
        assert finding.shrunk_statements <= 3

        # persisted: a replayable reproducer directory
        case_dirs = list(corpus.glob("case-*"))
        assert len(case_dirs) == 1
        assert str(case_dirs[0]) == finding.case_dir
        old_source = (case_dirs[0] / "old.c").read_text()
        new_source = (case_dirs[0] / "new.c").read_text()
        compile_source(old_source)
        compile_source(new_source)
        meta = json.loads((case_dirs[0] / "meta.json").read_text())
        assert meta["seed"] == 0 and meta["iteration"] == 0
        assert len(meta["edits"]) == 1
        assert any("patch" in failure for failure in meta["failures"])

    def test_shrunk_pair_still_fails_the_oracles(self, monkeypatch, tmp_path):
        _break_patcher(monkeypatch)
        corpus = tmp_path / "corpus"
        run_fuzz(seed=0, iters=1, config=SMALL, corpus_dir=str(corpus))
        (case_dir,) = corpus.glob("case-*")
        verdict = check_pair(
            (case_dir / "old.c").read_text(), (case_dir / "new.c").read_text()
        )
        assert not verdict.ok

    def test_no_shrink_keeps_the_original_case(self, monkeypatch, tmp_path):
        _break_patcher(monkeypatch)
        report = run_fuzz(
            seed=0,
            iters=1,
            config=SMALL,
            corpus_dir=str(tmp_path),
            shrink_findings=False,
        )
        (finding,) = report.findings
        assert finding.shrunk_edits >= 1
        assert any(f.oracle == "patch" for f in finding.failures)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFuzzCli:
    def test_clean_campaign_exits_zero(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "fuzz",
                "--seed",
                "0",
                "--iters",
                "2",
                "--max-funcs",
                "1",
                "--scheduler-iters",
                "8",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "findings=0" in out

    def test_broken_patcher_exits_nonzero(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        _break_patcher(monkeypatch)
        rc = main(
            [
                "fuzz",
                "--seed",
                "0",
                "--iters",
                "1",
                "--max-funcs",
                "1",
                "--scheduler-iters",
                "8",
                "--corpus",
                str(tmp_path),
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert list(tmp_path.glob("case-*"))
