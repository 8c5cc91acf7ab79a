"""Update-planner integration tests (the paper's core loop)."""

import pytest

from repro.core import UpdatePlanner, compile_source, measure_cycles, plan_update
from repro.diff.patcher import patched_words
from repro.workloads import CASES
from repro.config import UpdateConfig


class TestSelfUpdate:
    def test_identical_source_yields_empty_diff(self, simple_program, simple_source):
        result = plan_update(simple_program, simple_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert result.diff_inst == 0
        assert result.diff.script.is_empty
        assert result.reused_instructions == result.diff.new_instructions

    def test_identical_source_zero_cycle_change(self, simple_program, simple_source):
        result = plan_update(simple_program, simple_source, config=UpdateConfig(ra="ucc", da="ucc"))
        measure_cycles(result)
        assert result.diff_cycle == 0


class TestStrategies:
    @pytest.fixture(scope="class")
    def case6(self, compiled_case_olds):
        case = CASES["6"]
        return compiled_case_olds["6"], case

    def test_all_strategies_produce_working_patches(self, case6):
        old, case = case6
        for ra in ("gcc", "linear", "ucc", "ucc-ilp"):
            for da in ("gcc", "ucc"):
                result = plan_update(old, case.new_source, config=UpdateConfig(ra=ra, da=da))
                rebuilt = patched_words(old.image, result.diff.script)
                assert rebuilt == result.new.image.words()

    def test_ucc_not_worse_than_baseline(self, case6):
        old, case = case6
        baseline = plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="gcc"))
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert ucc.diff_inst <= baseline.diff_inst

    def test_new_function_falls_back_to_baseline(self, compiled_case_olds):
        # case 9 adds a brand-new function 'saturate'
        case = CASES["9"]
        old = compiled_case_olds["9"]
        result = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert "saturate" in result.new.module.functions
        assert "saturate" not in result.ra_reports  # no old decisions

    def test_updated_binary_behaves_like_fresh_compile(self, compiled_case_olds):
        """The update-conscious binary and a fresh baseline compile of
        the same source must be observationally equivalent."""
        from repro.sim import DeviceBoard, Timer, run_image

        case = CASES["1"]
        old = compiled_case_olds["1"]
        ucc = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        fresh = compile_source(case.new_source)
        board = lambda: DeviceBoard(timer=Timer(period_cycles=400))  # noqa: E731
        run_ucc = run_image(ucc.new.image, devices=board())
        run_fresh = run_image(fresh.image, devices=board())
        assert run_ucc.devices.led.writes == run_fresh.devices.led.writes
        assert run_ucc.devices.radio.sent == run_fresh.devices.radio.sent

    def test_diff_metrics_consistent(self, case6):
        old, case = case6
        result = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert result.diff_words >= result.diff_inst  # words >= instrs
        assert result.script_bytes >= 2 * result.diff_words  # header bytes
        assert (
            result.reused_instructions + result.diff_inst
            == result.diff.new_instructions
        )

    def test_packets_track_script_size(self, case6):
        old, case = case6
        result = plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert result.packets.script_bytes == result.script_bytes
        assert result.packets.packet_count >= 1


class TestEnergyAccounting:
    def test_diff_energy_requires_cycles(self, compiled_case_olds):
        case = CASES["2"]
        result = plan_update(compiled_case_olds["2"], case.new_source)
        with pytest.raises(ValueError):
            result.diff_energy(cnt=100)

    def test_energy_savings_positive_when_ucc_smaller(self, compiled_case_olds):
        case = CASES["13"]
        old = compiled_case_olds["13"]
        baseline = measure_cycles(plan_update(old, case.new_source, config=UpdateConfig(ra="gcc", da="gcc")))
        ucc = measure_cycles(plan_update(old, case.new_source, config=UpdateConfig(ra="ucc", da="ucc")))
        if ucc.diff_words < baseline.diff_words:
            cnt = 10.0
            assert baseline.diff_energy(cnt) > ucc.diff_energy(cnt)


class TestPlanAdaptive:
    """The §5.5 fallback at the default Cnt: whichever plan
    :meth:`UpdatePlanner.plan_adaptive` ships is the plain plan of the
    winning strategy."""

    @pytest.mark.parametrize(
        "case_id, winner", [("6", "ucc"), ("D1", "gcc")]
    )
    def test_ships_the_cheaper_plan(self, compiled_case_olds, case_id, winner):
        case = CASES[case_id]
        planner = UpdatePlanner(compiled_case_olds[case_id])
        chosen = planner.plan_adaptive(case.new_source)
        assert chosen.ra_strategy == f"ucc-adaptive({winner})"
        plain = measure_cycles(
            planner.plan(case.new_source, config=UpdateConfig(ra=winner))
        )
        assert chosen.diff.script.render() == plain.diff.script.render()
        assert chosen.new.image.words() == plain.new.image.words()
        assert chosen.data_script.to_bytes() == plain.data_script.to_bytes()
        assert (chosen.old_cycles, chosen.new_cycles) == (
            plain.old_cycles,
            plain.new_cycles,
        )


class TestExpectedRunsKnob:
    def test_expected_runs_forwarded(self, compiled_case_olds):
        case = CASES["6"]
        old = compiled_case_olds["6"]
        small = plan_update(old, case.new_source, config=UpdateConfig(expected_runs=1.0))
        huge = plan_update(old, case.new_source, config=UpdateConfig(expected_runs=1e9))
        # With huge Cnt, move insertion is disabled (paper §5.5): the
        # planner must never insert *more* moves than at small Cnt.
        assert huge.moves_inserted() <= small.moves_inserted()
