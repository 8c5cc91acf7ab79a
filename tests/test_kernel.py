"""Event-kernel unit tests: ordering, cancellation, energy, determinism.

These pin the contract docs/SIMULATOR.md documents: events dispatch in
``(time, seq, node)`` order, cancellation never reorders survivors,
``run(max_time)`` leaves the clock at the budget, and the duty-cycle
ledger prices TX/RX/idle-listen/sleep exactly as specified.
"""

import pytest

from repro.energy import MICA2
from repro.net.errors import NetConfigError
from repro.net.kernel import (
    ALWAYS_ON,
    LPL_1,
    LPL_10,
    DutyCycle,
    SimKernel,
    rounds_equivalent,
)
from repro.net.topology import grid
from repro.net.trickle import run_trickle


class TestEventOrdering:
    def test_events_dispatch_in_time_order(self):
        kernel = SimKernel(4)
        order = []
        kernel.schedule(3.0, 0, lambda: order.append("c"))
        kernel.schedule(1.0, 0, lambda: order.append("a"))
        kernel.schedule(2.0, 0, lambda: order.append("b"))
        kernel.run()
        assert order == ["a", "b", "c"]
        assert kernel.now == 3.0

    def test_simultaneous_events_pop_in_schedule_order(self):
        """Ties at one instant break by the schedule counter, never by
        hash or callback identity — the heart of the determinism
        contract."""
        kernel = SimKernel(8)
        order = []
        for tag in range(6):
            kernel.schedule(1.0, 5 - tag, lambda tag=tag: order.append(tag))
        kernel.run()
        assert order == [0, 1, 2, 3, 4, 5]

    def test_handler_may_schedule_more_events(self):
        kernel = SimKernel(1)
        order = []

        def first():
            order.append("first")
            kernel.schedule(0.5, 0, lambda: order.append("nested"))

        kernel.schedule(1.0, 0, first)
        kernel.schedule(2.0, 0, lambda: order.append("second"))
        kernel.run()
        assert order == ["first", "nested", "second"]

    def test_cannot_schedule_into_the_past(self):
        kernel = SimKernel(1)
        with pytest.raises(NetConfigError):
            kernel.schedule(-0.1, 0, lambda: None)
        kernel.schedule(1.0, 0, lambda: None)
        kernel.run()
        with pytest.raises(NetConfigError):
            kernel.schedule_at(0.5, 0, lambda: None)
        # NaN compares false with everything: it would sit anywhere in
        # the heap and break its order.
        with pytest.raises(NetConfigError):
            kernel.schedule(float("nan"), 0, lambda: None)
        with pytest.raises(NetConfigError):
            kernel.schedule_at(float("nan"), 0, lambda: None)
        with pytest.raises(NetConfigError):
            kernel.run(max_time=float("nan"))
        assert kernel.pending() == 0

    def test_node_count_validated(self):
        with pytest.raises(NetConfigError):
            SimKernel(0)


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        kernel = SimKernel(1)
        order = []
        handle = kernel.schedule(1.0, 0, lambda: order.append("dead"))
        kernel.schedule(2.0, 0, lambda: order.append("alive"))
        handle.cancel()
        kernel.run()
        assert order == ["alive"]

    def test_cancellation_preserves_survivor_order(self):
        kernel = SimKernel(4)
        order = []
        handles = [
            kernel.schedule(1.0, 0, lambda tag=tag: order.append(tag))
            for tag in range(8)
        ]
        for tag in (1, 3, 5):
            handles[tag].cancel()
        kernel.run()
        assert order == [0, 2, 4, 6, 7]

    def test_pending_counts_cancelled_entries(self):
        kernel = SimKernel(1)
        handle = kernel.schedule(1.0, 0, lambda: None)
        handle.cancel()
        assert kernel.pending() == 1


class TestStopAndBudget:
    def test_stop_ends_after_current_handler(self):
        kernel = SimKernel(1)
        order = []

        def stopper():
            order.append("stop")
            kernel.stop()

        kernel.schedule(1.0, 0, stopper)
        kernel.schedule(2.0, 0, lambda: order.append("never"))
        kernel.run()
        assert order == ["stop"]
        assert kernel.pending() == 1

    def test_max_time_rests_clock_at_budget(self):
        kernel = SimKernel(1)
        fired = []
        kernel.schedule(1.0, 0, lambda: fired.append(1.0))
        kernel.schedule(10.0, 0, lambda: fired.append(10.0))
        end = kernel.run(max_time=5.0)
        assert fired == [1.0]
        assert end == 5.0
        assert kernel.now == 5.0

    def test_budgeted_run_keeps_the_next_event(self):
        """The first event past the budget stays queued, so a run in
        slices dispatches every event the whole run would."""
        kernel = SimKernel(1)
        fired = []
        kernel.schedule(1.0, 0, lambda: fired.append(1.0))
        kernel.schedule(10.0, 0, lambda: fired.append(10.0))
        kernel.run(max_time=3.0)
        assert kernel.pending() == 1
        assert kernel.run() == 10.0
        assert fired == [1.0, 10.0]
        assert kernel.events_dispatched == 2

    def test_max_time_before_now_is_refused(self):
        """The clock never runs backwards: a budget that ends before
        ``now`` raises and leaves the clock where it was."""
        kernel = SimKernel(1)
        kernel.schedule(1.0, 0, lambda: None)
        kernel.schedule(10.0, 0, lambda: None)
        with pytest.raises(NetConfigError):
            kernel.run(max_time=-5.0)
        assert kernel.now == 0.0
        assert kernel.pending() == 2
        kernel.run(max_time=3.0)
        with pytest.raises(NetConfigError):
            kernel.run(max_time=2.0)
        assert kernel.now == 3.0

    def test_max_time_equal_to_now_is_accepted(self):
        kernel = SimKernel(1)
        fired = []
        kernel.schedule(0.0, 0, lambda: fired.append(0.0))
        assert kernel.run(max_time=0.0) == 0.0
        assert kernel.now == 0.0
        assert fired == [0.0]

    def test_protocol_budget_before_time_zero_is_refused(self):
        with pytest.raises(NetConfigError):
            run_trickle(grid(3, 3), b"x" * 100, max_time=-10.0)

    def test_events_dispatched_counter(self):
        kernel = SimKernel(1)
        for _ in range(3):
            kernel.schedule(1.0, 0, lambda: None)
        kernel.run()
        assert kernel.events_dispatched == 3


class TestEnergyModel:
    def test_duty_cycle_validation(self):
        with pytest.raises(NetConfigError):
            DutyCycle(1.5)
        with pytest.raises(NetConfigError):
            DutyCycle(-0.01)
        assert ALWAYS_ON.listen_fraction == 1.0
        assert LPL_10.listen_fraction == 0.10
        assert LPL_1.listen_fraction == 0.01

    def test_ledger_prices_all_four_radio_states(self):
        """One node, 10 simulated seconds, 1 s TX and 2 s RX.

        Under ALWAYS_ON the 10 s listen budget minus the 2 s spent
        actively receiving is 8 s of idle-listening and the sleep term
        clamps to zero; under LPL_10 the 1 s listen budget is already
        over-covered by RX, so idle is zero and the remaining 7 s are
        sleep.
        """
        volts = MICA2.voltage_v
        cases = (
            (ALWAYS_ON, 8.0, 0.0),
            (LPL_10, 0.0, 7.0),
        )
        for duty, idle_s, sleep_s in cases:
            kernel = SimKernel(1, power=MICA2, duty_cycle=duty)
            kernel.account_tx(0, MICA2.radio_bps)  # exactly 1 s of TX
            kernel.account_rx(0, 2 * MICA2.radio_bps)  # exactly 2 s of RX
            kernel.schedule(10.0, 0, lambda: None)
            kernel.run()
            ledger = kernel.ledgers()[0]
            assert ledger.tx_j == pytest.approx(MICA2.radio_tx_a * volts)
            assert ledger.rx_j == pytest.approx(2 * MICA2.radio_rx_a * volts)
            assert ledger.idle_j == pytest.approx(
                idle_s * MICA2.radio_rx_a * volts
            )
            assert ledger.sleep_j == pytest.approx(
                sleep_s * MICA2.cpu_standby_a * volts
            )
            assert ledger.total_j == pytest.approx(
                ledger.tx_j + ledger.rx_j + ledger.idle_j + ledger.sleep_j
            )

    def test_sleep_fraction_tracks_duty_cycle(self):
        kernel = SimKernel(2, duty_cycle=LPL_1)
        kernel.schedule(100.0, 0, lambda: None)
        kernel.run()
        # No radio traffic at all: sleep is everything but the listen
        # budget.
        assert kernel.sleep_fraction() == pytest.approx(0.99)
        assert SimKernel(1).sleep_fraction() == 0.0


class TestDeterminism:
    def test_identical_schedules_identical_dispatch(self):
        def drive():
            kernel = SimKernel(4)
            order = []
            for tag in range(20):
                kernel.schedule(
                    (tag * 7) % 5 * 0.25,
                    tag % 4,
                    lambda tag=tag: order.append(tag),
                )
            kernel.run()
            return order

        assert drive() == drive()


def test_rounds_equivalent():
    assert rounds_equivalent(0.0, 1.0) == 0
    assert rounds_equivalent(0.1, 1.0) == 1
    assert rounds_equivalent(2.0, 1.0) == 2
    assert rounds_equivalent(2.5, 1.0) == 3
    assert rounds_equivalent(10.0, 2.0) == 5
