"""Unit tests for the fuzz oracle's trace comparator
(:func:`repro.sim.traces_equal`)."""

from repro.config import CompileConfig
from repro.core import compile_source
from repro.sim import DeviceBoard, Divergence, Timer, run_image, traces_equal
from repro.sim.executor import RunResult


def _run(led=(), radio=(), timer=0, adc=0, halted=True, main_returned=True):
    board = DeviceBoard(timer=Timer(fire_every_polls=3))
    board.led.writes.extend(led)
    board.radio.sent.extend(radio)
    board.timer.fires = timer
    board.adc.reads = adc
    return RunResult(
        cycles=100,
        instructions=50,
        halted=halted,
        main_returned=main_returned,
        devices=board,
    )


class TestTracesEqual:
    def test_identical_traces_agree(self):
        a = _run(led=[1, 0, 1], radio=[7, 9], timer=4, adc=2)
        b = _run(led=[1, 0, 1], radio=[7, 9], timer=4, adc=2)
        assert traces_equal(a, b) is None

    def test_led_value_divergence_reports_index(self):
        a = _run(led=[1, 0, 1])
        b = _run(led=[1, 2, 1])
        div = traces_equal(a, b)
        assert div == Divergence(channel="led", a=0, b=2, index=1)
        assert "led[1]" in div.render()

    def test_length_mismatch_reports_absent_side(self):
        a = _run(radio=[7, 9, 11])
        b = _run(radio=[7, 9])
        div = traces_equal(a, b)
        assert div.channel == "radio" and div.index == 2
        assert div.a == 11 and div.b == "<absent>"

    def test_sequence_channels_win_over_scalars(self):
        # Both the LED stream and the timer count differ; the sequence
        # divergence is the more debuggable one and must be returned.
        a = _run(led=[1], timer=3)
        b = _run(led=[2], timer=5)
        assert traces_equal(a, b).channel == "led"

    def test_timer_fires_compared(self):
        div = traces_equal(_run(timer=3), _run(timer=4))
        assert div == Divergence(channel="timer", a=3, b=4)
        assert "[" not in div.render().split(":")[0]

    def test_adc_reads_compared(self):
        assert traces_equal(_run(adc=1), _run(adc=2)).channel == "adc"

    def test_halt_status_compared(self):
        div = traces_equal(_run(halted=True), _run(halted=False))
        assert div.channel == "halted"

    def test_main_returned_compared(self):
        div = traces_equal(
            _run(main_returned=True), _run(main_returned=False)
        )
        assert div.channel == "main_returned"


BLINK = """
u8 state = 0;
void main() {
    u16 i;
    for (i = 0; i < 30; i++) {
        if (timer_fired()) { state = state ^ %s; led_set(state); }
    }
    halt();
}
"""


class TestTracesEqualOnRealRuns:
    def _trace(self, source, ra="gcc"):
        program = compile_source(source, CompileConfig(ra=ra))
        board = DeviceBoard(timer=Timer(fire_every_polls=3))
        return run_image(program.image, devices=board)

    def test_same_program_different_ra_traces_agree(self):
        a = self._trace(BLINK % "1", ra="gcc")
        b = self._trace(BLINK % "1", ra="linear")
        assert traces_equal(a, b) is None

    def test_behavioural_change_diverges(self):
        a = self._trace(BLINK % "1")
        b = self._trace(BLINK % "3")
        div = traces_equal(a, b)
        assert div is not None and div.channel == "led"
