"""Fleet update service: batched, cached planning, in-process.

Public entry points:

* :class:`FleetUpdateService` — owns the caches, runs batches of
  :class:`~repro.config.FleetJob`;
* :func:`run_batch` — one-shot convenience wrapper;
* :func:`execute_job` — one job, outside any service;
* :class:`JobOutcome` / :class:`FleetResult` — what comes back.
"""

from .cache import ContentCache
from .fleet import FleetResult, FleetUpdateService, JobOutcome, execute_job, run_batch

__all__ = [
    "ContentCache",
    "FleetResult",
    "FleetUpdateService",
    "JobOutcome",
    "execute_job",
    "run_batch",
]
