"""The fleet update service: batched, cached, process-parallel planning.

The paper's sink plans one update at a time; a production fleet plans
*many* — several program versions across several node groups, often
with heavy overlap between jobs.  :class:`FleetUpdateService` executes
a batch of :class:`~repro.config.FleetJob`s with three accelerations:

* **content-addressed caching** — compiles are memoised on ``(source
  digest, CompileConfig digest)``, whole jobs on
  :meth:`~repro.config.FleetJob.digest`, and register-allocation ILPs
  on their canonical model (:mod:`repro.ilp.canonical`), so a warm
  batch replays without redoing any of the work;
* **process parallelism** — cache misses fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with deterministic
  result ordering (outcomes always return in job order), a per-job
  timeout, bounded retries, and graceful degradation to in-process
  serial execution when the pool cannot be created or breaks;
* **telemetry** — ``service.*`` spans and metrics (see
  ``docs/OBSERVABILITY.md``) report batch/job wall time, cache
  hit-rates, retries, and fallbacks.

Jobs are plain frozen dataclasses of sources and configs — cheap to
pickle, deterministic to digest — and outcomes are flat metric
records, so nothing heavyweight (IR, images, solver state) ever
crosses a process boundary.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..config import FleetJob
from ..obs import metrics, trace
from .cache import ContentCache, compile_key


@dataclass(frozen=True)
class JobOutcome:
    """Flat, picklable record of one executed (or failed) job.

    Everything except ``index``/``job_id``/``cached``/``attempts``/
    ``wall_ms`` is a pure function of the job's content — that is what
    :meth:`key_metrics` exposes and what the determinism tests pin.
    """

    index: int
    job_id: str
    ok: bool
    error: str = ""
    cached: bool = False
    attempts: int = 1
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
        skip = {"index", "job_id", "cached", "attempts", "wall_ms"}
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
    workers: int = 1
    #: "serial", "parallel", "cached", "serial-fallback", or
    #: "parallel+serial-fallback"
    mode: str = "serial"
    job_cache_hits: int = 0
    job_cache_misses: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0

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
            f"workers={self.workers}, wall={self.wall_ms:.1f} ms",
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


def _failed(job: FleetJob, index: int, error: str, attempts: int) -> JobOutcome:
    return JobOutcome(
        index=index,
        job_id=job.job_id or str(index),
        ok=False,
        error=error,
        attempts=attempts,
        ra=job.update.ra,
        da=job.update.da,
        cp=job.update.resolved_cp(),
    )


def execute_job(
    job: FleetJob,
    index: int = 0,
    compile_cache: Optional[ContentCache] = None,
) -> JobOutcome:
    """Plan (and optionally disseminate/simulate) one job, serially.

    Never raises: expected failures — bad source, infeasible update,
    incomplete dissemination — come back as ``ok=False`` outcomes with
    the exception message, so a batch always yields one outcome per
    job.  Shared by the in-process serial path and the pool workers.
    """
    # Imported here so a forked worker only pays for what it runs.
    import hashlib

    from ..core.session import UpdateSession
    from ..core.update import UpdatePlanner, measure_cycles

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
            detail = traceback.format_exc(limit=2).strip().splitlines()[-1]
            outcome = _failed(job, index, f"{type(exc).__name__}: {exc}", 1)
            return replace(
                outcome,
                error=f"{outcome.error} ({detail})" if detail else outcome.error,
                wall_ms=(time.perf_counter() - start) * 1000.0,
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
    from ..core.compiler import compile_source

    if cache is None:
        return compile_source(source, config)
    key = compile_key(source, config.digest())
    program = cache.get(key)
    if program is not None:
        metrics.counter("service.cache.compile_hits").inc()
        return program
    metrics.counter("service.cache.compile_misses").inc()
    program = compile_source(source, config)
    cache.put(key, program)
    return program


#: Per-worker-process compile cache (module global: survives across the
#: jobs one worker executes; with fork start, seeds from the parent).
_WORKER_COMPILE_CACHE = ContentCache(maxsize=256, name="worker-compile")


def _worker_run(payload: Tuple[int, FleetJob]) -> JobOutcome:
    index, job = payload
    return execute_job(job, index=index, compile_cache=_WORKER_COMPILE_CACHE)


class FleetUpdateService:
    """Executes batches of update jobs with caching and parallelism.

    One service instance owns the parent-side caches; reuse it across
    batches to keep them warm.  ``workers=1`` (or
    ``use_processes=False``) forces the in-process serial path —
    results are identical either way, only wall time changes.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        use_processes: bool = True,
        job_cache_size: int = 1024,
        compile_cache_size: int = 256,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.workers = workers or min(8, os.cpu_count() or 1)
        self.timeout_s = timeout_s
        self.retries = retries
        self.use_processes = use_processes
        self.job_cache = ContentCache(job_cache_size, name="job")
        self.compile_cache = ContentCache(compile_cache_size, name="compile")

    # -- public API -----------------------------------------------------

    def run(self, jobs: Sequence[FleetJob]) -> FleetResult:
        """Execute a batch; outcomes come back in job order."""
        jobs = list(jobs)
        start = time.perf_counter()
        job_hits_before = self.job_cache.hits
        job_misses_before = self.job_cache.misses
        compile_hits_before = self.compile_cache.hits
        compile_misses_before = self.compile_cache.misses
        with trace.span("service.batch", jobs=len(jobs), workers=self.workers):
            metrics.counter("service.batches").inc()
            metrics.gauge("service.workers").set(self.workers)
            outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
            pending: List[Tuple[int, str, FleetJob]] = []
            for index, job in enumerate(jobs):
                digest = job.digest()
                hit = self.job_cache.get(digest)
                if hit is not None:
                    metrics.counter("service.cache.job_hits").inc()
                    metrics.counter("service.jobs").inc()
                    outcomes[index] = replace(
                        hit,
                        index=index,
                        job_id=job.job_id or str(index),
                        cached=True,
                    )
                else:
                    metrics.counter("service.cache.job_misses").inc()
                    pending.append((index, digest, job))

            mode = "cached"
            if pending:
                parallel_worthwhile = (
                    self.use_processes and self.workers > 1 and len(pending) > 1
                )
                if parallel_worthwhile:
                    mode = self._run_parallel(pending, outcomes)
                else:
                    self._run_serial(pending, outcomes)
                    mode = "serial"

        wall_ms = (time.perf_counter() - start) * 1000.0
        metrics.histogram("service.batch_wall_ms").observe(wall_ms)
        done = [outcome for outcome in outcomes if outcome is not None]
        assert len(done) == len(jobs), "every job must produce an outcome"
        return FleetResult(
            outcomes=done,
            wall_ms=wall_ms,
            workers=self.workers,
            mode=mode,
            job_cache_hits=self.job_cache.hits - job_hits_before,
            job_cache_misses=self.job_cache.misses - job_misses_before,
            compile_cache_hits=self.compile_cache.hits - compile_hits_before,
            compile_cache_misses=self.compile_cache.misses - compile_misses_before,
        )

    # -- execution paths ------------------------------------------------

    def _finish(
        self,
        index: int,
        digest: str,
        outcome: JobOutcome,
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        outcomes[index] = outcome
        metrics.counter("service.jobs").inc()
        metrics.histogram("service.job_wall_ms").observe(outcome.wall_ms)
        if outcome.ok:
            self.job_cache.put(digest, outcome)
        else:
            metrics.counter("service.job_failures").inc()

    def _run_serial(
        self,
        pending: List[Tuple[int, str, FleetJob]],
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        for index, digest, job in pending:
            outcome = execute_job(job, index=index, compile_cache=self.compile_cache)
            self._finish(index, digest, outcome, outcomes)

    def _run_parallel(
        self,
        pending: List[Tuple[int, str, FleetJob]],
        outcomes: List[Optional[JobOutcome]],
    ) -> str:
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending))
            )
        except Exception:
            metrics.counter("service.serial_fallbacks").inc()
            self._run_serial(pending, outcomes)
            return "serial-fallback"

        attempts = {index: 0 for index, _, _ in pending}
        remaining = list(pending)
        degraded = False
        try:
            while remaining:
                futures = [
                    (index, digest, job, pool.submit(_worker_run, (index, job)))
                    for index, digest, job in remaining
                ]
                retry: List[Tuple[int, str, FleetJob]] = []
                for index, digest, job, future in futures:
                    attempts[index] += 1
                    try:
                        outcome = future.result(timeout=self.timeout_s)
                        outcome = replace(outcome, attempts=attempts[index])
                    except FutureTimeoutError:
                        future.cancel()
                        metrics.counter("service.job_timeouts").inc()
                        outcome = _failed(
                            job,
                            index,
                            f"timeout after {self.timeout_s:g}s",
                            attempts[index],
                        )
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:  # infrastructure failure
                        if attempts[index] <= self.retries:
                            metrics.counter("service.job_retries").inc()
                            retry.append((index, digest, job))
                            continue
                        # Last resort: run it here, in-process.
                        metrics.counter("service.serial_fallbacks").inc()
                        degraded = True
                        outcome = execute_job(
                            job, index=index, compile_cache=self.compile_cache
                        )
                        if outcome.ok:
                            outcome = replace(outcome, attempts=attempts[index])
                        else:
                            outcome = replace(
                                outcome,
                                attempts=attempts[index],
                                error=f"{outcome.error} (after pool error: "
                                f"{type(exc).__name__})",
                            )
                    self._finish(index, digest, outcome, outcomes)
                remaining = retry
        except (BrokenProcessPool, OSError):
            # The pool is gone; degrade every job still unaccounted for.
            metrics.counter("service.serial_fallbacks").inc()
            degraded = True
            leftovers = [
                (index, digest, job)
                for index, digest, job in pending
                if outcomes[index] is None
            ]
            self._run_serial(leftovers, outcomes)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return "parallel+serial-fallback" if degraded else "parallel"


def run_batch(
    jobs: Sequence[FleetJob],
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    use_processes: bool = True,
) -> FleetResult:
    """One-shot convenience: a fresh service, one batch."""
    service = FleetUpdateService(
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
        use_processes=use_processes,
    )
    return service.run(jobs)


__all__ = [
    "FleetResult",
    "FleetUpdateService",
    "JobOutcome",
    "execute_job",
    "run_batch",
]
