"""The fleet update service: batched, cached planning, in-process.

The paper's sink plans one update at a time; a production fleet plans
*many* — several program versions across several node groups, often
with heavy overlap between jobs.  :class:`FleetUpdateService` executes
a batch of :class:`~repro.config.FleetJob`s in job order, one outcome
per job:

* **content-addressed caching** — compiles are memoised on ``(source
  digest, CompileConfig digest)``, whole jobs on
  :meth:`~repro.config.FleetJob.digest`, and register-allocation ILPs
  on their canonical model (:mod:`repro.ilp.canonical`), so a warm
  batch replays without redoing any of the work;
* **telemetry** — ``service.*`` spans and metrics (see
  ``docs/OBSERVABILITY.md``) report batch/job wall time and cache
  hit-rates; every executed job's ``service.job`` span, and all the
  pipeline spans under it, nest inside its batch's ``service.batch``
  span.

Outcomes are flat metric records, so the job cache holds nothing
heavyweight (IR, images, solver state).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..config import FleetJob
from ..core.compiler import compile_source
from ..core.session import UpdateSession
from ..core.update import UpdatePlanner, measure_cycles
from ..obs import metrics, trace
from .cache import ContentCache


@dataclass(frozen=True)
class JobOutcome:
    """Flat record of one executed (or failed) job.

    Everything except ``index``/``job_id``/``cached``/``wall_ms`` is a
    pure function of the job's content — that is what
    :meth:`key_metrics` exposes and what the determinism tests pin.
    """

    index: int
    job_id: str
    ok: bool
    error: str = ""
    cached: bool = False
    wall_ms: float = 0.0
    # -- plan metrics (the paper's vocabulary) ---------------------------
    ra: str = ""
    da: str = ""
    cp: str = ""
    diff_inst: int = 0
    diff_words: int = 0
    reused_instructions: int = 0
    script_bytes: int = 0
    code_script_bytes: int = 0
    data_script_bytes: int = 0
    packet_count: int = 0
    bytes_on_air: int = 0
    old_instructions: int = 0
    new_instructions: int = 0
    moves_inserted: int = 0
    #: first bytes of the edit script's rendering digest — lets tests
    #: assert bit-identical scripts without shipping the script itself
    script_digest: str = ""
    # -- dissemination (zeros when the job had no topology) --------------
    nodes_patched: int = 0
    network_energy_j: float = 0.0
    dissemination_rounds: int = 0
    # -- campaign (empty/zero unless the job carried a fault plan) -------
    #: "converged" or "partial"; "" for plain dissemination jobs
    campaign_outcome: str = ""
    nodes_quarantined: int = 0
    #: sha256 of the canonical CampaignReport JSON — pins determinism
    campaign_digest: str = ""
    # -- simulation (None unless measure_cycles) -------------------------
    old_cycles: Optional[int] = None
    new_cycles: Optional[int] = None

    def key_metrics(self) -> dict:
        """The deterministic slice of the outcome (execution-mode and
        cache-state independent)."""
        skip = {"index", "job_id", "cached", "wall_ms"}
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in skip
        }


@dataclass
class FleetResult:
    """Outcome of one batch, in job order."""

    outcomes: List[JobOutcome]
    wall_ms: float = 0.0
    job_cache_hits: int = 0
    job_cache_misses: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0

    @property
    def mode(self) -> str:
        """``"serial"`` when a job executed, ``"cached"`` when every
        job replayed from the job cache."""
        return "serial" if self.job_cache_misses else "cached"

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def cache_hit_rate(self) -> float:
        total = self.job_cache_hits + self.job_cache_misses
        return self.job_cache_hits / total if total else 0.0

    def render(self) -> str:
        lines = [
            f"fleet batch: {len(self.outcomes)} jobs, mode={self.mode}, "
            f"wall={self.wall_ms:.1f} ms",
            f"job cache  : {self.job_cache_hits} hits / "
            f"{self.job_cache_misses} misses "
            f"(hit rate {100.0 * self.cache_hit_rate:.0f}%)",
            "",
            f"{'job':<14} {'ra/da/cp':<16} {'Diff_inst':>9} {'script B':>8} "
            f"{'packets':>7} {'wall ms':>8}  status",
        ]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else f"FAIL: {outcome.error}"
            if outcome.ok and outcome.campaign_outcome == "partial":
                status = (
                    f"partial ({outcome.nodes_quarantined} quarantined)"
                )
            if outcome.cached:
                status += " (cached)"
            strategy = f"{outcome.ra}/{outcome.da}/{outcome.cp}"
            lines.append(
                f"{outcome.job_id:<14} {strategy:<16} {outcome.diff_inst:>9} "
                f"{outcome.script_bytes:>8} {outcome.packet_count:>7} "
                f"{outcome.wall_ms:>8.1f}  {status}"
            )
        return "\n".join(lines)


def execute_job(
    job: FleetJob,
    index: int = 0,
    compile_cache: Optional[ContentCache] = None,
) -> JobOutcome:
    """Plan (and optionally disseminate/simulate) one job.

    Never raises: expected failures — bad source, infeasible update,
    incomplete dissemination — come back as ``ok=False`` outcomes with
    the exception message, so a batch always yields one outcome per
    job.
    """
    start = time.perf_counter()
    with trace.span("service.job", index=index, ra=job.update.ra):
        try:
            old = _compile_cached(job.old_source, job.compile, compile_cache)
            nodes = 0
            energy_j = 0.0
            rounds = 0
            campaign_outcome = ""
            nodes_quarantined = 0
            campaign_digest = ""
            if job.topology is None:
                result = UpdatePlanner(old, config=job.update).plan(job.new_source)
            else:
                session = UpdateSession(
                    old,
                    topology=job.topology.build(),
                    loss=job.loss,
                    loss_seed=job.loss_seed,
                    config=job.update,
                )
                if job.fault_plan is not None:
                    # Fault-tolerant campaign: graceful degradation —
                    # an unconverged fleet is a structured partial
                    # outcome, never an exception.
                    pushed = session.push_campaign(
                        {1: job.new_source},
                        plan=job.fault_plan,
                        max_rounds=job.max_rounds,
                    )
                    report = pushed.report
                    rounds = report.rounds
                    campaign_outcome = report.outcome
                    nodes_quarantined = len(report.quarantined)
                    campaign_digest = report.digest()
                else:
                    pushed = session.push_update(job.new_source)
                    rounds = pushed.dissemination.rounds
                result = pushed.update
                nodes = pushed.nodes_patched
                energy_j = pushed.network_energy_j
            if job.measure_cycles:
                measure_cycles(result)
            script_digest = hashlib.sha256(
                result.diff.script.render().encode("utf-8")
            ).hexdigest()
        except Exception as exc:  # noqa: BLE001 — the contract is one
            # outcome per job, whatever the planner raises.
            return JobOutcome(
                index=index,
                job_id=job.job_id or str(index),
                ok=False,
                error=f"{type(exc).__name__}: {exc}",
                wall_ms=(time.perf_counter() - start) * 1000.0,
                ra=job.update.ra,
                da=job.update.da,
                cp=job.update.resolved_cp(),
            )
        return JobOutcome(
            index=index,
            job_id=job.job_id or str(index),
            ok=True,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            ra=result.ra_strategy,
            da=result.da_strategy,
            cp=result.new.placement.algorithm,
            diff_inst=result.diff_inst,
            diff_words=result.diff_words,
            reused_instructions=result.reused_instructions,
            script_bytes=result.script_bytes,
            code_script_bytes=result.code_script_bytes,
            data_script_bytes=result.data_script_bytes,
            packet_count=result.packets.packet_count,
            bytes_on_air=result.packets.bytes_on_air,
            old_instructions=result.diff.old_instructions,
            new_instructions=result.diff.new_instructions,
            moves_inserted=result.moves_inserted(),
            script_digest=script_digest,
            nodes_patched=nodes,
            network_energy_j=energy_j,
            dissemination_rounds=rounds,
            campaign_outcome=campaign_outcome,
            nodes_quarantined=nodes_quarantined,
            campaign_digest=campaign_digest,
            old_cycles=result.old_cycles,
            new_cycles=result.new_cycles,
        )


def _compile_cached(source, config, cache: Optional[ContentCache]):
    if cache is None:
        return compile_source(source, config)
    source_digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    key = f"{source_digest}:{config.digest()}"
    program = cache.get(key)
    if program is not None:
        metrics.counter("service.cache.compile_hits").inc()
        return program
    metrics.counter("service.cache.compile_misses").inc()
    program = compile_source(source, config)
    cache.put(key, program)
    return program


#: Entries a service keeps of whole job outcomes and of compiles.
JOB_CACHE_SIZE = 1024
COMPILE_CACHE_SIZE = 256


class FleetUpdateService:
    """Executes batches of update jobs in-process, with caching.

    One service instance owns the caches; reuse it across batches to
    keep them warm.
    """

    def __init__(self):
        self.job_cache = ContentCache(JOB_CACHE_SIZE)
        self.compile_cache = ContentCache(COMPILE_CACHE_SIZE)

    def run(self, jobs: Sequence[FleetJob]) -> FleetResult:
        """Execute a batch; outcomes come back in job order."""
        start = time.perf_counter()
        job_hits_before = self.job_cache.hits
        job_misses_before = self.job_cache.misses
        compile_hits_before = self.compile_cache.hits
        compile_misses_before = self.compile_cache.misses
        jobs = list(jobs)
        outcomes: List[JobOutcome] = []
        with trace.span("service.batch", jobs=len(jobs)):
            metrics.counter("service.batches").inc()
            for index, job in enumerate(jobs):
                outcomes.append(self._outcome(index, job))
                metrics.counter("service.jobs").inc()
        wall_ms = (time.perf_counter() - start) * 1000.0
        metrics.histogram("service.batch_wall_ms").observe(wall_ms)
        return FleetResult(
            outcomes=outcomes,
            wall_ms=wall_ms,
            job_cache_hits=self.job_cache.hits - job_hits_before,
            job_cache_misses=self.job_cache.misses - job_misses_before,
            compile_cache_hits=self.compile_cache.hits - compile_hits_before,
            compile_cache_misses=self.compile_cache.misses - compile_misses_before,
        )

    def _outcome(self, index: int, job: FleetJob) -> JobOutcome:
        """Replay one job from the job cache, or execute it."""
        digest = job.digest()
        hit = self.job_cache.get(digest)
        if hit is not None:
            metrics.counter("service.cache.job_hits").inc()
            return replace(
                hit, index=index, job_id=job.job_id or str(index), cached=True
            )
        metrics.counter("service.cache.job_misses").inc()
        outcome = execute_job(job, index=index, compile_cache=self.compile_cache)
        metrics.histogram("service.job_wall_ms").observe(outcome.wall_ms)
        if outcome.ok:
            self.job_cache.put(digest, outcome)
        else:
            metrics.counter("service.job_failures").inc()
        return outcome


def run_batch(jobs: Sequence[FleetJob]) -> FleetResult:
    """One-shot convenience: a fresh service, one batch."""
    return FleetUpdateService().run(jobs)


__all__ = [
    "FleetResult",
    "FleetUpdateService",
    "JobOutcome",
    "execute_job",
    "run_batch",
]
