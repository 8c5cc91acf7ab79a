"""The bounded LRU behind the fleet update service's caches.

A :class:`ContentCache` maps a content digest (any string, typically a
SHA-256 hex from :mod:`repro.config`) to an arbitrary value.  It is
deliberately dumb: it neither computes digests nor publishes telemetry
— call sites own their key derivation and emit their own literal
metric names (`docs/OBSERVABILITY.md` requires metric names to be
literals at the call site, so a generic cache must not publish on
behalf of its users).

Two caches matter in practice:

* the **compile cache** — ``(source digest, CompileConfig digest)`` →
  :class:`~repro.core.compiler.CompiledProgram`; shared by every job
  of a batch that redeploys the same old program;
* the **job cache** — :meth:`repro.config.FleetJob.digest` →
  :class:`~repro.service.fleet.JobOutcome`; a warm batch replays
  without planning anything.

(The third content-addressed cache, for canonicalised ILP models,
lives with the solver in :mod:`repro.ilp.canonical`.)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional


class ContentCache:
    """A bounded LRU keyed by content digest."""

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def get(self, digest: str) -> Optional[Any]:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        return entry

    def put(self, digest: str, value: Any) -> None:
        self._entries[digest] = value
        self._entries.move_to_end(digest)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


__all__ = ["ContentCache"]
