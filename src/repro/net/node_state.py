"""Per-node OTA update state machine (staging bank + two-bank commit).

Each simulated sensor assembles the incoming update script into a
*staging bank*, one CRC-checked packet at a time, then applies it with
the crash-consistency discipline energy-aware OTA work prescribes for
flash devices: the new image is written to the inactive bank over
several rounds and the boot pointer flips **only after** the whole
staged script has been verified.  A crash at any point before the flip
leaves the node running the resident golden image; a crash after the
flip leaves it on the fully verified new one.  A torn binary is never
bootable by construction — the invariant the campaign layer's
differential oracle checks against the simulator.

The state machine also owns the node's NACK backoff (exponential,
capped) and its *advertised* missing set: neighbours only learn what a
node misses in rounds the node actually NACKs, which is what makes
backoff meaningful and is how a rebooted or late node re-syncs — its
first NACK re-advertises everything.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from .errors import NetConfigError

#: Rounds a complete, verified staging bank takes to write to the
#: inactive flash bank before the boot-pointer flip (the window in
#: which a crash must roll back to the golden image).
APPLY_ROUNDS = 2

#: Ceiling of the exponential NACK backoff, in rounds.
MAX_NACK_INTERVAL = 8


def packet_crc(index: int, payload: bytes) -> int:
    """Per-packet integrity check covering the index and the payload."""
    return zlib.crc32(index.to_bytes(4, "little") + payload) & 0xFFFFFFFF


@dataclass(frozen=True)
class ScriptPacket:
    """One wire packet of the update script."""

    index: int
    payload: bytes
    crc: int

    @staticmethod
    def make(index: int, payload: bytes) -> "ScriptPacket":
        return ScriptPacket(
            index=index, payload=payload, crc=packet_crc(index, payload)
        )

    def corrupted(self, flip_at: int) -> "ScriptPacket":
        """This packet with one payload byte bit-flipped in flight (the
        CRC field still describes the original payload)."""
        if not self.payload:
            return ScriptPacket(index=self.index, payload=b"", crc=self.crc ^ 1)
        at = flip_at % len(self.payload)
        mutated = bytearray(self.payload)
        mutated[at] ^= 0xFF
        return ScriptPacket(index=self.index, payload=bytes(mutated), crc=self.crc)


def packetise_blob(blob: bytes, payload_per_packet: int) -> list[ScriptPacket]:
    """Split the wire blob into CRC-trailed script packets."""
    if payload_per_packet < 1:
        raise NetConfigError(
            "payload_per_packet", payload_per_packet,
            f"payload_per_packet must be >= 1, got {payload_per_packet}",
        )
    return [
        ScriptPacket.make(i, blob[start : start + payload_per_packet])
        for i, start in enumerate(range(0, len(blob), payload_per_packet))
    ]


@dataclass
class NodeUpdateState:
    """The update lifecycle of one sensor node.

    States: ``idle`` → ``receiving`` → ``staged`` → ``applying`` →
    ``committed``, with ``down`` overlaid while crashed.  Only the
    transition into ``committed`` changes the running version.
    """

    node: int
    version: int
    apply_rounds: int = APPLY_ROUNDS
    alive: bool = True
    state: str = "idle"
    committed: bool = False
    bank: dict[int, bytes] = field(default_factory=dict)
    crc_rejections: int = 0
    duplicates: int = 0
    #: what neighbours believe this node misses (updated on NACK)
    advertised_missing: set[int] = field(default_factory=set)
    #: page-granular apply checkpoint (nonvolatile: survives brownouts);
    #: ``pages_total == 0`` means the legacy whole-rounds apply is in use
    pages_total: int = 0
    pages_done: int = 0
    brownouts: int = 0
    resumed_applies: int = 0
    _apply_left: int = 0
    _nack_interval: int = 1
    _next_nack_round: int = 1

    # -- packet intake --------------------------------------------------

    def receive(self, packet: ScriptPacket, expected_count: int) -> str:
        """Take one delivery; returns ``"accepted"``, ``"duplicate"``,
        ``"corrupt"``, or ``"ignored"`` (dead or already committed)."""
        if not self.alive or self.committed:
            return "ignored"
        if packet_crc(packet.index, packet.payload) != packet.crc:
            self.crc_rejections += 1
            return "corrupt"
        if packet.index in self.bank:
            self.duplicates += 1
            return "duplicate"
        self.bank[packet.index] = packet.payload
        self.advertised_missing.discard(packet.index)
        self.state = "receiving"
        if len(self.bank) == expected_count:
            self.state = "staged"
            self._apply_left = self.apply_rounds
        return "accepted"

    def holds_all(self, expected_count: int) -> bool:
        return len(self.bank) >= expected_count

    def assembled_blob(self) -> bytes:
        """The staged script, in packet order."""
        return b"".join(self.bank[i] for i in sorted(self.bank))

    # -- crash-consistent apply ----------------------------------------

    def tick_apply(self, new_version: int) -> bool:
        """Advance the inactive-bank write by one round; returns True on
        the round the boot pointer flips (the commit point)."""
        if not self.alive or self.committed or self.state not in (
            "staged",
            "applying",
        ):
            return False
        self.state = "applying"
        self._apply_left -= 1
        if self._apply_left > 0:
            return False
        self.commit(new_version)
        return True

    def commit(self, new_version: int) -> None:
        """Boot-pointer flip: atomic, and only ever called after the
        whole update has been verified."""
        self.committed = True
        self.version = new_version
        self.state = "committed"
        self.advertised_missing.clear()

    # -- page-granular checkpointed apply -------------------------------
    #
    # Under an energy-limited device profile the inactive-bank write is
    # page-wise: each flash page costs real energy and a brownout can
    # land between any two page writes.  ``pages_done`` is the
    # *nonvolatile* checkpoint — flash already programmed survives power
    # loss — so a resumed node continues from its last completed page
    # instead of restarting, while the boot pointer still only flips in
    # :meth:`commit_pages` after every page is down and the staged blob
    # verified.  Rollback to the golden image stays the fallback: until
    # the flip, the resident image is untouched.

    def begin_pages(self, pages_total: int) -> None:
        """Start (or resume) a page-wise apply pass of ``pages_total``
        pages.  Counts a resume when a brownout checkpoint is present."""
        if pages_total < 1:
            raise NetConfigError(
                "pages_total", pages_total,
                f"pages_total must be >= 1, got {pages_total}",
            )
        if not self.alive or self.committed or self.state != "staged":
            return
        if self.pages_total not in (0, pages_total):
            raise NetConfigError(
                "pages_total", pages_total,
                f"page plan changed mid-apply: checkpoint says "
                f"{self.pages_total} pages, caller says {pages_total}",
            )
        self.pages_total = pages_total
        if self.pages_done:
            # Flash written before the brownout is still valid: resume
            # from the checkpoint rather than erasing and restarting.
            self.resumed_applies += 1
        self.state = "applying"

    def write_page(self) -> bool:
        """Program one flash page of the inactive bank; returns True when
        every page has been written (commit becomes legal)."""
        if not self.alive or self.committed or self.state != "applying":
            return False
        if self.pages_done < self.pages_total:
            self.pages_done += 1
        return self.pages_done >= self.pages_total

    def commit_pages(self, new_version: int) -> bool:
        """Boot-pointer flip for the page-wise apply: atomic, legal only
        once every page is programmed.  Returns True on the flip."""
        if not self.alive or self.committed or self.state != "applying":
            return False
        if self.pages_done < self.pages_total or self.pages_total == 0:
            return False
        self.commit(new_version)
        return True

    # -- crash / reboot -------------------------------------------------

    def crash(self) -> None:
        """Power loss.  Volatile staging state is gone; the boot pointer
        is untouched, so the resident image stays whichever bank was
        last committed (golden until the flip, new after)."""
        self.alive = False
        if not self.committed:
            # Mid-patch crash: discard the staging bank and the
            # half-written inactive bank.  Rollback is implicit — the
            # boot pointer never moved.
            self.bank.clear()
            self.advertised_missing.clear()
            self._apply_left = 0
            self.state = "down"

    def brownout(self) -> None:
        """Stored energy hit zero (or a scripted power cut fired) —
        possibly between two flash page writes.  Volatile staging state
        is lost exactly as in :meth:`crash`, but the nonvolatile page
        checkpoint (``pages_done``) and the committed bank survive, so a
        later :meth:`resume` continues the apply from the last completed
        page instead of restarting it."""
        self.brownouts += 1
        self.crash()

    def reboot(self, round_no: int) -> None:
        """Power restored; the node boots whichever image the boot
        pointer targets and re-syncs from scratch if uncommitted."""
        self.alive = True
        self.state = "committed" if self.committed else "idle"
        self._nack_interval = 1
        self._next_nack_round = round_no

    def resume(self, round_no: int) -> None:
        """Capacitor recharged after a brownout: boot the resident image
        (golden until the flip, new after) and re-sync.  Re-received
        packets refill the volatile bank; the page checkpoint makes the
        next apply pass a resume."""
        self.reboot(round_no)

    # -- NACK backoff ---------------------------------------------------

    def should_nack(self, round_no: int, expected_count: int) -> bool:
        if not self.alive or self.committed:
            return False
        if self.holds_all(expected_count):
            return False
        return round_no >= self._next_nack_round

    def note_nack(self, round_no: int, expected_count: int) -> None:
        """The node NACKed this round: re-advertise its missing set and
        schedule the next NACK."""
        self.advertised_missing = {
            i for i in range(expected_count) if i not in self.bank
        }
        self._next_nack_round = round_no + self._nack_interval

    def note_round(self, made_progress: bool) -> None:
        """Feed the backoff: progress resets the interval, a dry round
        doubles it (capped)."""
        if made_progress:
            self._nack_interval = 1
        else:
            self._nack_interval = min(MAX_NACK_INTERVAL, self._nack_interval * 2)


__all__ = [
    "APPLY_ROUNDS",
    "MAX_NACK_INTERVAL",
    "NodeUpdateState",
    "ScriptPacket",
    "packet_crc",
    "packetise_blob",
]
