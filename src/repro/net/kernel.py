"""Deterministic event-driven simulation kernel for ``repro.net``.

The synchronous-round simulators (:func:`~repro.net.dissemination.disseminate`,
:func:`~repro.net.lossy.disseminate_lossy`, the flood campaign loop)
advance the whole fleet in lock-step, which caps them long before the
fleet sizes the ROADMAP targets and hides the dominant real-world
energy cost: a radio that is *listening*, not receiving.  This module
is the continuous-time replacement those protocols (and the new
Trickle/gossip ones) run on.

Determinism contract (pinned by ``tests/test_kernel.py`` and
``docs/SIMULATOR.md``):

* The event queue is a binary heap keyed by ``(time, seq, node)``
  where ``seq`` is a monotonically increasing schedule counter — two
  events at the same instant always pop in the order they were
  scheduled, on every platform and under every ``PYTHONHASHSEED``.
* Handlers draw randomness only from ``random.Random`` streams seeded
  with derived ``"repro-<component>:<seed>"`` strings (lint rule
  ``RNG001``); because the pop order is deterministic, so is every
  draw.
* Cancellation is by handle invalidation (:class:`EventHandle`), never
  by heap surgery, so the key order of the surviving events is
  untouched.

Energy model: the kernel accrues per-node radio *seconds* in TX and RX
(``account_tx`` / ``account_rx``, bits divided by the radio bitrate)
and converts them to joules at finalisation under a
:class:`DutyCycle`: the listen budget not spent actively receiving is
priced as idle-listening at the RX draw, and the remaining time as
sleep at the standby draw (:func:`SimKernel.ledgers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional

from ..energy.power_model import MICA2, PowerModel
from ..obs import metrics, trace
from .dissemination import NodeLedger
from .errors import NetConfigError
from .fleet_base import FleetReport


@dataclass(frozen=True)
class DutyCycle:
    """A node's low-power-listening schedule.

    ``listen_fraction`` is the share of wall time the radio spends in
    the listen state when not transmitting or receiving; the remainder
    is spent asleep at the CPU standby draw.  The kernel prices the
    listen budget but does not gate deliveries on it — an LPL preamble
    long enough to bridge the sleep interval is assumed, which is the
    standard B-MAC modelling simplification (see docs/SIMULATOR.md).
    """

    listen_fraction: float = 1.0
    name: str = "always-on"

    def __post_init__(self) -> None:
        if not 0.0 <= self.listen_fraction <= 1.0:
            raise NetConfigError(
                "listen_fraction",
                self.listen_fraction,
                f"duty-cycle listen fraction {self.listen_fraction} "
                f"out of [0, 1]",
            )


#: The radio never sleeps — every idle second is billed as listening.
ALWAYS_ON = DutyCycle(1.0, "always-on")

#: 10% low-power listening (B-MAC-style default check interval).
LPL_10 = DutyCycle(0.10, "lpl-10")

#: 1% low-power listening — the long-deployment setting the kernel
#: protocols default to.
LPL_1 = DutyCycle(0.01, "lpl-1")


class EventHandle:
    """A cancellable reference to one scheduled event.

    Cancellation marks the handle; the heap entry stays where it is and
    is discarded on pop.  This keeps cancellation O(1) and — more
    importantly — never re-orders the surviving events.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SimKernel:
    """Discrete-event scheduler with per-node radio-time accounting.

    Events are ``(time, seq, node)``-ordered callbacks; ``node`` is a
    display/ordering hint (ties at one instant are already broken by
    ``seq``), and handlers run with ``kernel.now`` set to their
    timestamp.  ``stop()`` ends the run after the current handler
    returns; pending events stay queued but are never dispatched.
    """

    def __init__(
        self,
        node_count: int,
        power: PowerModel = MICA2,
        duty_cycle: DutyCycle = ALWAYS_ON,
        airtime_budget: float = 1.0,
    ):
        if node_count < 1:
            raise NetConfigError(
                "node_count", node_count,
                f"kernel needs at least one node, got {node_count}",
            )
        if not 0.0 < airtime_budget <= 1.0:
            raise NetConfigError(
                "airtime_budget", airtime_budget,
                f"airtime budget {airtime_budget} out of (0, 1]",
            )
        self.node_count = node_count
        self.power = power
        self.duty_cycle = duty_cycle
        #: Regulatory duty-cycle fraction; ``1.0`` disables enforcement.
        #: Below 1.0 the kernel applies the ETSI off-time rule: after a
        #: transmission of ``t`` seconds a node must stay silent for
        #: ``t * (1/budget - 1)`` seconds, so its long-run on-air share
        #: never exceeds ``budget``.
        self.airtime_budget = airtime_budget
        self.now = 0.0
        self.events_dispatched = 0
        self._seq = 0
        self._heap: list = []
        self._stopped = False
        self.tx_s = [0.0] * node_count
        self.rx_s = [0.0] * node_count
        #: Earliest instant each node may legally transmit again.
        self.next_tx_s = [0.0] * node_count
        self.airtime_deferrals = 0
        self.airtime_violations = 0

    # -- scheduling -----------------------------------------------------

    def schedule(
        self, delay: float, node: int, callback: Callable[[], None]
    ) -> EventHandle:
        """Run ``callback`` ``delay`` seconds from now (``delay >= 0``)."""
        if not delay >= 0:  # NaN fails the test too
            raise NetConfigError(
                "delay", delay, f"cannot schedule {delay}s into the past"
            )
        handle = EventHandle()
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, node, handle, callback, False))
        return handle

    def _schedule_handler(
        self, delay: float, node: int, handler: Callable[[int], None]
    ) -> EventHandle:
        """:meth:`schedule` for a per-node handler: the event calls
        ``handler(node)``, so the caller allocates no closure."""
        if not delay >= 0:
            raise NetConfigError(
                "delay", delay, f"cannot schedule {delay}s into the past"
            )
        handle = EventHandle()
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, node, handle, handler, True))
        return handle

    def schedule_at(
        self, time_s: float, node: int, callback: Callable[[], None]
    ) -> EventHandle:
        """Run ``callback`` at absolute time ``time_s`` (``>= now``)."""
        if not time_s >= self.now:
            raise NetConfigError(
                "time_s", time_s,
                f"cannot schedule at {time_s}s, already at {self.now}s",
            )
        handle = EventHandle()
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time_s, seq, node, handle, callback, False))
        return handle

    def stop(self) -> None:
        """End the run after the current handler returns."""
        self._stopped = True

    def pending(self) -> int:
        """Events still queued (cancelled entries included)."""
        return len(self._heap)

    # -- the run loop ---------------------------------------------------

    def run(self, max_time: Optional[float] = None) -> float:
        """Dispatch events in ``(time, seq, node)`` order until the
        queue drains, :meth:`stop` is called, or ``max_time`` would be
        exceeded (the clock then rests *at* ``max_time``).  Returns the
        final simulation time.  The clock never runs backwards, so a
        ``max_time`` before ``now`` (or NaN) is refused."""
        if max_time is not None and not max_time >= self.now:
            raise NetConfigError(
                "max_time", max_time,
                f"max_time must be a number >= now ({self.now}s), got {max_time}",
            )
        limit = math.inf if max_time is None else max_time
        dispatched = cancelled = 0
        with trace.span(
            "net.kernel.run", nodes=self.node_count, queued=len(self._heap)
        ) as span:
            heap = self._heap
            pop = heappop
            while heap and not self._stopped:
                time_s, seq, node, handle, callback, per_node = pop(heap)
                if handle.cancelled:
                    cancelled += 1
                    continue
                if time_s > limit:
                    # Past the budget: requeue it for a later run().
                    heappush(heap, (time_s, seq, node, handle, callback, per_node))
                    self.now = limit
                    break
                self.now = time_s
                dispatched += 1
                if per_node:
                    callback(node)
                else:
                    callback()
            span.set(dispatched=dispatched, cancelled=cancelled)
        self.events_dispatched += dispatched
        metrics.counter("net.kernel.events").inc(dispatched)
        metrics.counter("net.kernel.cancelled").inc(cancelled)
        return self.now

    # -- radio-time accounting ------------------------------------------

    def tx_allowed(self, node: int) -> bool:
        """May ``node`` legally transmit at the current instant?

        Always true for an unregulated kernel.  Under a budget the node
        is silenced until its off-time from the previous transmission
        has elapsed — protocols must check this and defer (reschedule to
        :meth:`next_tx_time`) instead of transmitting.
        """
        if self.airtime_budget >= 1.0:
            return True
        return self.now + 1e-12 >= self.next_tx_s[node]

    def next_tx_time(self, node: int) -> float:
        """Earliest legal transmit instant for ``node`` (``>= now``)."""
        return max(self.now, self.next_tx_s[node])

    def note_deferral(self, node: int) -> None:
        """A protocol deferred a transmission to the next legal slot."""
        self.airtime_deferrals += 1
        metrics.counter("net.profile.airtime_deferrals").inc()

    def account_tx(self, node: int, bits: int) -> None:
        """Accrue the airtime of transmitting ``bits`` at ``node`` and,
        under a regulatory budget, start the node's off-time clock."""
        airtime = bits / self.power.radio_bps
        self.tx_s[node] += airtime
        if self.airtime_budget >= 1.0:
            return
        if self.now + 1e-12 < self.next_tx_s[node]:
            # Unreachable when protocols gate on tx_allowed(); counted
            # (and pinned to zero by the profiles bench) rather than
            # silently tolerated.
            self.airtime_violations += 1
            metrics.counter("net.profile.airtime_violations").inc()
        self.next_tx_s[node] = self.now + airtime / self.airtime_budget

    def account_rx(self, node: int, bits: int) -> None:
        """Accrue the airtime of receiving ``bits`` at ``node``."""
        self.rx_s[node] += bits / self.power.radio_bps

    def ledgers(self) -> "dict[int, NodeLedger]":
        """Per-node energy at the current clock under the duty cycle.

        TX/RX seconds are priced at the radio draws; the listen budget
        (``elapsed * listen_fraction``) not spent actively receiving
        becomes idle-listening at the RX draw; everything else is sleep
        at the CPU standby draw.  CPU (patch) energy is the protocol's
        to add on top.
        """
        elapsed = self.now
        power = self.power
        volts = power.voltage_v
        listen = self.duty_cycle.listen_fraction
        out = {}
        for node in range(self.node_count):
            tx_s = self.tx_s[node]
            rx_s = self.rx_s[node]
            idle_s = max(0.0, elapsed * listen - rx_s)
            sleep_s = max(0.0, elapsed - tx_s - rx_s - idle_s)
            out[node] = NodeLedger(
                tx_j=tx_s * power.radio_tx_a * volts,
                rx_j=rx_s * power.radio_rx_a * volts,
                idle_j=idle_s * power.radio_rx_a * volts,
                sleep_j=sleep_s * power.cpu_standby_a * volts,
            )
        return out

    def sleep_fraction(self) -> float:
        """Fleet-average share of elapsed time spent asleep."""
        if self.now <= 0.0:
            return 0.0
        listen = self.duty_cycle.listen_fraction
        total = 0.0
        for node in range(self.node_count):
            tx_s = self.tx_s[node]
            rx_s = self.rx_s[node]
            idle_s = max(0.0, self.now * listen - rx_s)
            total += max(0.0, self.now - tx_s - rx_s - idle_s)
        return total / (self.node_count * self.now)


@dataclass
class KernelReport(FleetReport):
    """Outcome of one kernel-based dissemination run: the shared
    :class:`~repro.net.fleet_base.FleetReport` plus the event-kernel
    quantities round-based reports cannot give: simulation time,
    beacon and suppression counts, interval resets, and the duty
    cycle's idle-listening and sleep energy.
    """

    # Defaults only so these may follow the base's defaulted fields.
    protocol: str = "kernel"
    time_s: float = 0.0
    events: int = 0
    transmissions: int = 0
    beacons: int = 0
    requests: int = 0
    suppressed: int = 0
    resets: int = 0
    duty_cycle: str = "always-on"
    listen_fraction: float = 1.0
    sleep_fraction: float = 0.0

    LEDGER_KEYS = FleetReport.LEDGER_KEYS + ("idle_j", "sleep_j")

    @property
    def total_idle_j(self) -> float:
        """Fleet-wide idle-listening energy — the cost the synchronous
        round models cannot see."""
        return sum(ledger.idle_j for ledger in self.ledgers.values())

    def _head(self) -> "list[str]":
        fleet = len(self.node_versions) - 1  # exclude the sink
        return [
            f"{self.protocol} : {self.outcome} after {self.time_s:.1f}s "
            f"({len(self.converged_nodes)}/{fleet} nodes on "
            f"v{self.new_version}, {self.events} events)",
            f"script   : {self.script_bytes} B in {self.packets} packets",
            f"radio    : {self.transmissions} data transmissions, "
            f"{self.beacons} beacons, {self.requests} requests, "
            f"{self.suppressed} suppressed, "
            f"{self.resets} interval resets, {self.drops} drops, "
            f"{self.crc_rejections} CRC rejections, "
            f"{self.duplicates} duplicates",
            f"duty     : {self.duty_cycle} "
            f"(listen {self.listen_fraction:.0%}, "
            f"sleep fraction {self.sleep_fraction:.1%})",
            f"energy   : {self.total_energy_j * 1e3:.2f} mJ network total "
            f"({self.total_idle_j * 1e3:.2f} mJ idle-listening), "
            f"hottest node {self.max_node_energy_j() * 1e3:.3f} mJ",
        ]


def rounds_equivalent(time_s: float, round_s: float) -> int:
    """Continuous time as a whole number of legacy campaign rounds."""
    if time_s <= 0.0:
        return 0
    return int(math.ceil(time_s / round_s))


__all__ = [
    "ALWAYS_ON",
    "DutyCycle",
    "EventHandle",
    "KernelReport",
    "LPL_1",
    "LPL_10",
    "SimKernel",
    "rounds_equivalent",
]
