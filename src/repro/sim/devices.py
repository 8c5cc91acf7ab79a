"""Peripheral models of the simulated mote.

The devices mirror what the TinyOS benchmarks exercise: LEDs, a
byte-oriented radio transmitter, a periodic timer with a latched
``fired`` flag, and an ADC producing deterministic synthetic samples
(the stand-in for real sensor data, per DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import devices as ports


@dataclass
class LedBank:
    """The three Mica2 LEDs, as one bit-mask register."""

    state: int = 0
    writes: list[int] = field(default_factory=list)

    def write(self, value: int) -> None:
        self.state = value & 0xFF
        self.writes.append(self.state)

    def read(self) -> int:
        return self.state


@dataclass
class Radio:
    """Latches a low byte, transmits on the high-byte write."""

    latch: int = 0
    sent: list[int] = field(default_factory=list)

    def write_lo(self, value: int) -> None:
        self.latch = value & 0xFF

    def write_hi(self, value: int) -> None:
        self.sent.append(self.latch | ((value & 0xFF) << 8))


@dataclass
class Timer:
    """Periodic timer with a latched fired flag (read clears).

    ``period_cycles`` models the 1 Hz / 4 Hz TinyOS timers scaled to
    simulation time; the poll loop of the benchmarks reads the flag via
    ``timer_fired()``.

    ``fire_every_polls`` switches to a *logical* timer that fires on
    every Nth poll regardless of cycle time.  Cycle-driven timers make
    two binaries of slightly different speed execute different event
    sequences, which pollutes Diff_cycle comparisons; the poll-driven
    mode gives both versions the identical logical schedule (used by
    :func:`repro.core.update.measure_cycles`).
    """

    period_cycles: int = 500
    fire_every_polls: int | None = None
    fired: bool = False
    fires: int = 0
    _next_fire: int = 0
    _polls: int = 0

    def __post_init__(self):
        self._next_fire = self.period_cycles

    def tick(self, now_cycles: int) -> None:
        if self.fire_every_polls is not None:
            return
        while now_cycles >= self._next_fire:
            self.fired = True
            self.fires += 1
            self._next_fire += self.period_cycles

    def read_and_clear(self) -> int:
        if self.fire_every_polls is not None:
            self._polls += 1
            if self._polls % self.fire_every_polls == 0:
                self.fires += 1
                return 1
            return 0
        value = 1 if self.fired else 0
        self.fired = False
        return value


@dataclass
class Adc:
    """Deterministic synthetic sensor: a 16-bit LCG sample stream."""

    seed: int = 0x1234
    reads: int = 0

    def sample(self) -> int:
        # Numerical Recipes LCG, truncated to 16 bits - deterministic
        # and platform-independent.
        self.seed = (1664525 * self.seed + 1013904223) & 0xFFFFFFFF
        self.reads += 1
        return (self.seed >> 8) & 0xFFFF


@dataclass
class DeviceBoard:
    """All peripherals plus the I/O-port dispatch."""

    led: LedBank = field(default_factory=LedBank)
    radio: Radio = field(default_factory=Radio)
    timer: Timer = field(default_factory=Timer)
    adc: Adc = field(default_factory=Adc)
    _adc_latch: int = 0

    def io_read(self, port: int, now_cycles: int) -> int:
        if port == ports.PORT_LED:
            return self.led.read()
        if port == ports.PORT_TIMER:
            self.timer.tick(now_cycles)
            return self.timer.read_and_clear()
        if port == ports.PORT_ADC_LO:
            self._adc_latch = self.adc.sample()
            return self._adc_latch & 0xFF
        if port == ports.PORT_ADC_HI:
            return (self._adc_latch >> 8) & 0xFF
        raise ValueError(f"read from unknown port {port:#x}")

    def io_write(self, port: int, value: int) -> None:
        if port == ports.PORT_LED:
            self.led.write(value)
        elif port == ports.PORT_RADIO_LO:
            self.radio.write_lo(value)
        elif port == ports.PORT_RADIO_HI:
            self.radio.write_hi(value)
        else:
            raise ValueError(f"write to unknown port {port:#x}")
