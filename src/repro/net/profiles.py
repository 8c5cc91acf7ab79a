"""Device profiles: radio, regulatory, flash, and power-storage models.

The paper's energy argument assumes a Mica2-class mote — steady battery,
always-willing radio, EEPROM writes cheap next to radio bits.  Real
fleets are harsher: LoRaWAN links carry tiny frames under a hard legal
duty-cycle budget, and batteryless harvesters brown out in the middle of
a flash write.  A :class:`DeviceProfile` bundles everything the
simulators need to model one device class:

* ``power`` — the per-component current draw table
  (:class:`repro.energy.PowerModel`) that prices every bit and cycle;
* ``mtu_bytes`` — the largest payload one frame may carry; blobs are
  fragmented down to it (``0`` = unconstrained);
* ``airtime_budget`` — the regulatory duty-cycle fraction (EU 868 MHz
  sub-band: 1%).  Enforced *in the simulators*: a node whose budget is
  exhausted defers TX to its next legal slot — the required off-time
  after a transmission of ``t`` seconds is ``t * (1/budget - 1)`` — and
  never violates the budget (``1.0`` = unregulated);
* ``flash_page_bytes`` / ``flash_write_j_per_page`` — page-granular
  apply: the new image is burned one page at a time, each write costing
  real energy, with the page counter checkpointed in nonvolatile flash
  so a brownout between two page writes resumes rather than restarts
  (``0`` = the legacy whole-rounds apply);
* ``storage_j`` / ``harvest_w`` / ``start_fraction`` /
  ``restart_fraction`` — the capacitor charge model: stored energy is
  debited for every radio bit, CPU cycle, and flash page; hitting zero
  browns the node out (volatile staging lost, committed bank and page
  checkpoint kept), and the node restarts once harvesting has refilled
  the capacitor to ``restart_fraction`` (``storage_j == 0`` = mains or
  big battery, no brownout model).

Three built-ins cover the regimes the ROADMAP calls out: :data:`MICA2`
(all-neutral — campaigns run byte-identical to a profile-less run),
:data:`LORAWAN_DR3` (51-byte MTU, 1% duty cycle, SX1276-class draws at
SF9/125 kHz), and :data:`BATTERYLESS_HARVEST` (small capacitor, page-wise
flash apply where write energy dominates).  Look profiles up by their
registry name via :func:`get_profile` (CLI ``--profile`` flag).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Tuple

from ..energy.power_model import MICA2 as MICA2_POWER
from ..energy.power_model import PowerModel
from .errors import NetConfigError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .faults import FaultPlan

__all__ = [
    "BATTERYLESS_HARVEST",
    "DeviceProfile",
    "LORAWAN_DR3",
    "LORA_SX1276_POWER",
    "MICA2_PROFILE",
    "PROFILES",
    "check_power_traces",
    "get_profile",
]

#: SX1276-class LoRa radio at EU868 DR3 (SF9/125 kHz, ~1.76 kbit/s on
#: air): TX 28 mA at +13 dBm, RX 10.8 mA, everything else Mica2-like.
LORA_SX1276_POWER = PowerModel(
    radio_rx_a=10.8e-3,
    radio_tx_a=28.0e-3,
    radio_bps=1760.0,
)


@dataclass(frozen=True)
class DeviceProfile:
    """Frozen bundle of radio, regulatory, flash, and storage parameters.

    All constraint fields default to "off" (``0`` / ``1.0``), so
    ``DeviceProfile(name="x")`` is behaviourally neutral: the simulators
    treat it exactly like running without a profile and produce
    byte-identical reports.
    """

    name: str
    power: PowerModel = field(default=MICA2_POWER)
    #: Largest payload one frame carries; ``0`` disables fragmentation.
    mtu_bytes: int = 0
    #: Regulatory duty-cycle fraction in (0, 1]; ``1.0`` = unregulated.
    airtime_budget: float = 1.0
    #: Flash page size for page-granular apply; ``0`` = legacy apply.
    flash_page_bytes: int = 0
    #: Energy to program one flash page (includes the erase share).
    flash_write_j_per_page: float = 0.0
    #: Capacitor / battery capacity in joules; ``0`` = no brownout model.
    storage_j: float = 0.0
    #: Harvest income in watts while the node is deployed.
    harvest_w: float = 0.0
    #: Fraction of ``storage_j`` stored at deployment time.
    start_fraction: float = 1.0
    #: Stored fraction a browned-out node needs before it restarts.
    restart_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.name:
            raise NetConfigError("name", self.name, "profile name must be non-empty")
        if self.mtu_bytes < 0:
            raise NetConfigError(
                "mtu_bytes", self.mtu_bytes, "mtu_bytes must be >= 0 (0 disables)"
            )
        if not 0.0 < self.airtime_budget <= 1.0:
            raise NetConfigError(
                "airtime_budget",
                self.airtime_budget,
                "airtime_budget must be in (0, 1]",
            )
        if self.flash_page_bytes < 0:
            raise NetConfigError(
                "flash_page_bytes",
                self.flash_page_bytes,
                "flash_page_bytes must be >= 0 (0 disables)",
            )
        if self.flash_write_j_per_page < 0.0:
            raise NetConfigError(
                "flash_write_j_per_page",
                self.flash_write_j_per_page,
                "flash_write_j_per_page must be >= 0",
            )
        if self.storage_j < 0.0 or self.harvest_w < 0.0:
            raise NetConfigError(
                "storage_j",
                (self.storage_j, self.harvest_w),
                "storage_j and harvest_w must be >= 0",
            )
        if not 0.0 < self.start_fraction <= 1.0:
            raise NetConfigError(
                "start_fraction",
                self.start_fraction,
                "start_fraction must be in (0, 1]",
            )
        if not 0.0 < self.restart_fraction <= 1.0:
            raise NetConfigError(
                "restart_fraction",
                self.restart_fraction,
                "restart_fraction must be in (0, 1]",
            )

    # ------------------------------------------------------------------
    # Capability predicates — the simulators gate every new code path on
    # these, so a neutral profile stays byte-identical to no profile.
    @property
    def is_airtime_limited(self) -> bool:
        return self.airtime_budget < 1.0

    @property
    def is_energy_limited(self) -> bool:
        return self.storage_j > 0.0

    @property
    def is_paged(self) -> bool:
        return self.flash_page_bytes > 0

    @property
    def is_neutral(self) -> bool:
        """True when no constraint deviates from the legacy defaults."""
        return not (
            self.mtu_bytes > 0
            or self.is_airtime_limited
            or self.is_energy_limited
            or self.is_paged
        )

    def effective_payload(self, default_payload: int) -> int:
        """Fragment ``default_payload`` down to the profile MTU."""
        if self.mtu_bytes <= 0:
            return default_payload
        return max(1, min(default_payload, self.mtu_bytes))

    def pages_for(self, blob_len: int) -> int:
        """Flash pages a ``blob_len``-byte image occupies (at least 1)."""
        if not self.is_paged:
            return 0
        return max(1, -(-blob_len // self.flash_page_bytes))

    def off_time_s(self, airtime_s: float) -> float:
        """Regulatory off-time after a transmission of ``airtime_s``."""
        if not self.is_airtime_limited:
            return 0.0
        return airtime_s * (1.0 / self.airtime_budget - 1.0)


#: Paper-faithful Mica2 mote: all constraints off, digest-identical to a
#: profile-less campaign by construction.
MICA2_PROFILE = DeviceProfile(name="mica2")

#: EU868 LoRaWAN at DR3: 51-byte application payload (the conservative
#: repeater-compatible limit), 1% sub-band duty cycle enforced in the
#: kernel, SX1276 radio draws at ~1.76 kbit/s.
LORAWAN_DR3 = DeviceProfile(
    name="lorawan-dr3",
    power=LORA_SX1276_POWER,
    mtu_bytes=51,
    airtime_budget=0.01,
)

#: Batteryless harvester: 50 mJ capacitor, 5 mW harvest income, 64-byte
#: flash pages at 2 mJ per programmed page — flash writes dominate the
#: apply-phase budget, so brownouts land *between* page writes and the
#: checkpointed page counter is what makes resume possible.
BATTERYLESS_HARVEST = DeviceProfile(
    name="batteryless",
    flash_page_bytes=64,
    flash_write_j_per_page=2.0e-3,
    storage_j=0.05,
    harvest_w=5.0e-3,
    start_fraction=1.0,
    restart_fraction=0.5,
)

#: Registry keyed by the CLI ``--profile`` spelling.
PROFILES: Dict[str, DeviceProfile] = {
    "mica2": MICA2_PROFILE,
    "lorawan-dr3": LORAWAN_DR3,
    "batteryless": BATTERYLESS_HARVEST,
}

#: CLI choices, in registry order.
PROFILE_NAMES: Tuple[str, ...] = tuple(PROFILES)


def get_profile(name: str) -> DeviceProfile:
    """Look a built-in profile up by registry name.

    Raises :class:`~repro.net.errors.NetConfigError` for unknown names so
    the CLI and fleet service report the bad knob without a traceback.
    """
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise NetConfigError(
            "profile", name, f"unknown device profile {name!r}; expected one of {known}"
        ) from None


def check_power_traces(plan: FaultPlan, profile: DeviceProfile | None) -> None:
    """Refuse a plan that scripts power traces unless ``profile`` is
    energy-limited: the traces act only on its capacitor model.  Every
    engine calls this, so no campaign ignores a trace silently."""
    if plan.power_traces and (profile is None or not profile.is_energy_limited):
        raise NetConfigError(
            "profile", None if profile is None else profile.name,
            "the fault plan scripts power traces, which only act under an "
            "energy-limited device profile (storage_j > 0)",
        )
