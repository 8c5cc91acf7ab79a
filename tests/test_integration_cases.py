"""Integration sweep over all fifteen update cases (paper Figures 9/16).

For every case and every strategy pair we assert the reproduction's
headline invariants:

* the patch round-trips (sensor rebuilds the sink's binary exactly),
* UCC never transmits more than the best-match baseline,
* the updated binary is observationally equivalent to a fresh compile,
* the data-layout cases show the §5.7 effects.
"""

import pytest

from repro.core import measure_cycles, plan_update
from repro.diff.patcher import patched_words
from repro.sim import DeviceBoard, Timer, run_image
from repro.workloads import CASES, RA_CASE_IDS
from repro.config import UpdateConfig

ALL_IDS = sorted(CASES)


@pytest.mark.parametrize("case_id", ALL_IDS)
class TestEveryCase:
    def test_patch_round_trips(self, case_id, compiled_case_olds):
        case = CASES[case_id]
        old = compiled_case_olds[case_id]
        for ra, da in (("gcc", "gcc"), ("ucc", "ucc")):
            result = plan_update(old, case.new_source, config=UpdateConfig(ra=ra, da=da))
            assert patched_words(old.image, result.diff.script) == result.new.image.words()

    def test_ucc_diff_not_worse(self, case_id, compiled_case_olds):
        case = CASES[case_id]
        old = compiled_case_olds[case_id]
        baseline = plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="gcc"))
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert ucc.diff_inst <= baseline.diff_inst

    def test_updated_binary_equivalent_to_fresh(self, case_id, compiled_case_olds):
        """Observationally equivalent modulo timing: the two binaries
        may take slightly different cycle counts per loop iteration, so
        the cycle-driven timer can fire a different number of times —
        the *sequences* of observations must still agree as prefixes."""
        from repro.core import compile_source

        case = CASES[case_id]
        old = compiled_case_olds[case_id]
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        fresh = compile_source(case.new_source)

        def observe(image):
            board = DeviceBoard(timer=Timer(period_cycles=350))
            result = run_image(image, devices=board, max_cycles=10_000_000)
            return (result.devices.led.writes, result.devices.radio.sent)

        led_a, radio_a = observe(ucc.new.image)
        led_b, radio_b = observe(fresh.image)

        def prefix_equal(a, b):
            n = min(len(a), len(b))
            slack = max(4, len(a) // 10, len(b) // 10)
            return a[:n] == b[:n] and abs(len(a) - len(b)) <= slack

        assert prefix_equal(led_a, led_b)
        assert prefix_equal(radio_a, radio_b)


class TestPaperShapes:
    def test_small_cases_have_small_diffs(self, compiled_case_olds):
        for cid in ("1", "2", "3", "5"):
            case = CASES[cid]
            result = plan_update(compiled_case_olds[cid], case.new_source)
            assert result.diff_inst <= 8, cid

    def test_large_cases_dominated_by_new_code(self, compiled_case_olds):
        """Case 13 (CntToLeds -> CntToRfm): most of the new binary must
        be transmitted, but some structural similarity is reusable
        (paper: GCC reuses 422 of 4351; UCC reuses ~15% more)."""
        case = CASES["13"]
        old = compiled_case_olds["13"]
        baseline = plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="gcc"))
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert ucc.diff_inst > 0.45 * ucc.diff.new_instructions
        assert ucc.reused_instructions >= baseline.reused_instructions
        assert ucc.reused_instructions > 0

    def test_d1_gcc_layout_cascades(self, compiled_case_olds):
        """D1: inserting globals cascades offsets under GCC-DA but not
        under UCC-DA (paper §5.7: ~10% of instructions changed)."""
        case = CASES["D1"]
        old = compiled_case_olds["D1"]
        baseline = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="gcc"))
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert ucc.diff_inst < baseline.diff_inst
        moved_gcc = baseline.new.layout.moved_objects(old.layout)
        moved_ucc = ucc.new.layout.moved_objects(old.layout)
        assert len(moved_ucc) < len(moved_gcc)

    def test_d2_rename_free_under_ucc(self, compiled_case_olds):
        """D2 (shuffle + rename): UCC-DA puts renamed variables in the
        deleted slots, so almost nothing changes."""
        case = CASES["D2"]
        old = compiled_case_olds["D2"]
        baseline = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="gcc"))
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert ucc.diff_inst <= 2
        assert baseline.diff_inst > ucc.diff_inst

    def test_code_quality_close_to_baseline(self, compiled_case_olds):
        """Paper Figure 11: UCC's slowdown is negligible."""
        for cid in RA_CASE_IDS[:6]:
            case = CASES[cid]
            old = compiled_case_olds[cid]
            baseline = measure_cycles(
                plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="gcc"))
            )
            ucc = measure_cycles(plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc")))
            slowdown = ucc.new_cycles - baseline.new_cycles
            assert abs(slowdown) <= max(10, 0.01 * baseline.new_cycles), cid


class TestCheckedPipeline:
    """End-to-end exercise of the checked=True verification mode."""

    @pytest.mark.parametrize("case_id", ["1", "5", "9", "D1"])
    def test_checked_plan_ships_verified_update(self, case_id, compiled_case_olds):
        case = CASES[case_id]
        result = plan_update(
            compiled_case_olds[case_id], case.new_source, config=UpdateConfig(checked=True)
        )
        # a checked plan that returns has passed every analysis pass;
        # the shipped script still round-trips on the sensor side
        rebuilt = patched_words(result.old.image, result.diff.script)
        assert rebuilt == result.new.image.words()

    def test_checked_plan_with_ilp_allocator(self, compiled_case_olds):
        case = CASES["4"]
        result = plan_update(compiled_case_olds["4"], case.new_source, config=UpdateConfig(ra="ucc-ilp", checked=True))
        assert result.new.options.checked
