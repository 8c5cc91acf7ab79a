"""Tests for the extra (beyond-Figure-8) workloads."""

import pytest

from repro.core import compile_source, plan_update
from repro.diff.patcher import patched_words
from repro.ir import run_ir
from repro.sim import DeviceBoard, Timer, run_image
from repro.workloads.extra import EXTRA_PROGRAMS, SURGE
from repro.config import UpdateConfig


@pytest.fixture(scope="module")
def compiled_extra():
    return {name: compile_source(src) for name, src in EXTRA_PROGRAMS.items()}


class TestSurge:
    def test_compiles_and_halts(self, compiled_extra):
        result = run_image(compiled_extra["Surge"].image, max_cycles=10_000_000)
        assert result.halted

    def test_packets_have_multihop_header(self, compiled_extra):
        board = DeviceBoard(timer=Timer(period_cycles=300))
        run_image(compiled_extra["Surge"].image, devices=board)
        sent = board.radio.sent
        assert len(sent) >= 8
        quads = [sent[i : i + 4] for i in range(0, len(sent) - 3, 4)]
        for idx, (node, parent, seq, _value) in enumerate(quads):
            assert node == 7
            assert parent == 1
            assert seq == idx

    def test_queue_semantics_match_ir_level(self):
        """IR-level and machine-level execution observe the same packet
        stream under the poll-driven timer (identical logical schedules;
        a cycle-driven timer would fire at different points because IR
        steps and machine cycles are different clocks)."""
        from repro.core import Compiler

        module = Compiler().front_and_middle(SURGE)
        ir_result = run_ir(
            module,
            devices=DeviceBoard(timer=Timer(fire_every_polls=3)),
            max_steps=10_000_000,
        )
        program = compile_source(SURGE)
        machine = run_image(
            program.image,
            devices=DeviceBoard(timer=Timer(fire_every_polls=3)),
            max_cycles=20_000_000,
        )
        assert ir_result.devices.radio.sent == machine.devices.radio.sent

    def test_update_round_trips(self, compiled_extra):
        old = compiled_extra["Surge"]
        new_source = SURGE.replace("u8 parent_id = 1;", "u8 parent_id = 2;")
        result = plan_update(old, new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert patched_words(old.image, result.diff.script) == result.new.image.words()
        # a data-only change: the parent id lives in the data segment
        assert result.data_script_bytes > 0

    def test_structural_update_is_cheap(self, compiled_extra):
        """Adding a drop counter touches two functions; the rest of this
        ~200-instruction program must not re-encode."""
        old = compiled_extra["Surge"]
        new_source = SURGE.replace(
            "u16 packets_sent = 0;", "u16 packets_sent = 0;\nu16 drops = 0;"
        ).replace(
            "    if (queue_full()) {\n        return;  // drop on overflow, like the real Surge\n    }",
            "    if (queue_full()) {\n        drops = drops + 1;\n        return;\n    }",
        )
        baseline = plan_update(old, new_source, config=UpdateConfig(ra="gcc", da="gcc"))
        ucc = plan_update(old, new_source, config=UpdateConfig(ra="ucc", da="ucc"))
        assert ucc.diff_inst <= baseline.diff_inst
        assert ucc.diff_inst < 0.25 * ucc.diff.new_instructions


class TestOscilloscope:
    def test_compiles_and_halts(self, compiled_extra):
        result = run_image(
            compiled_extra["Oscilloscope"].image, max_cycles=10_000_000
        )
        assert result.halted

    def test_batches_framed_with_marker(self, compiled_extra):
        board = DeviceBoard(timer=Timer(period_cycles=300))
        run_image(compiled_extra["Oscilloscope"].image, devices=board)
        sent = board.radio.sent
        markers = [i for i, w in enumerate(sent) if w == 0xBEEF]
        assert markers
        # each marker is followed by exactly 10 readings
        for m in markers[:-1]:
            assert markers[markers.index(m) + 1] - m == 11

    def test_led_shows_batch_count(self, compiled_extra):
        board = DeviceBoard(timer=Timer(period_cycles=300))
        run_image(compiled_extra["Oscilloscope"].image, devices=board)
        writes = board.led.writes
        assert writes == [i & 7 for i in range(len(writes))]


class TestExtendedCases:
    @pytest.mark.parametrize("case_id", ["E1", "E2", "E3", "E4"])
    def test_extended_case_round_trips(self, case_id):
        from repro.workloads.extra import EXTRA_CASES

        _desc, old_src, new_src = EXTRA_CASES[case_id]
        old = compile_source(old_src)
        for ra, da in (("gcc", "gcc"), ("ucc", "ucc")):
            result = plan_update(old, new_src, config=UpdateConfig(ra=ra, da=da))
            assert (
                patched_words(old.image, result.diff.script)
                == result.new.image.words()
            )

    @pytest.mark.parametrize("case_id", ["E1", "E2", "E3", "E4"])
    def test_extended_case_ucc_not_worse(self, case_id):
        from repro.workloads.extra import EXTRA_CASES

        _desc, old_src, new_src = EXTRA_CASES[case_id]
        old = compile_source(old_src)
        baseline = plan_update(old, new_src, config=UpdateConfig(ra="gcc", da="gcc"))
        ucc = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc"))
        assert ucc.diff_inst <= baseline.diff_inst

    def test_e1_is_pure_data_update(self):
        from repro.workloads.extra import EXTRA_CASES

        _desc, old_src, new_src = EXTRA_CASES["E1"]
        old = compile_source(old_src)
        result = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc"))
        assert result.diff_inst == 0
        assert result.data_script_bytes > 0

    def test_e3_new_binary_beacons(self):
        from repro.workloads.extra import EXTRA_CASES

        _desc, old_src, new_src = EXTRA_CASES["E3"]
        old = compile_source(old_src)
        result = plan_update(old, new_src, config=UpdateConfig(ra="ucc", da="ucc"))
        board = DeviceBoard(timer=Timer(period_cycles=300))
        run_image(result.new.image, devices=board, max_cycles=20_000_000)
        assert 0xFEED in board.radio.sent
