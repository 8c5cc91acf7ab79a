"""The fleet update service (`repro.service`).

Pins the four service guarantees:

* **determinism** — executed and cached outcomes carry identical
  per-job metrics (down to the edit-script digest), and outcomes
  always come back in job order;
* **the acceptance batch** — the 16-job Figure-9 batch on a 5x5 grid
  runs >= 2x faster through a warm service than through a plain
  serial loop, with identical per-job metrics;
* **resilience** — a per-job failure is an ``ok=False`` outcome, never
  a raised batch;
* **telemetry** — a batch and every job it executes land in the one
  process-wide trace, and the ``service.*`` counters agree with the
  batch's own counts.
"""

import dataclasses
import time

import pytest

from repro.config import CompileConfig, FleetJob, TopologySpec, UpdateConfig
from repro.obs import metrics, trace
from repro.service import ContentCache, FleetUpdateService, execute_job, run_batch
from repro.workloads import CASES, RA_CASE_IDS

GRID = TopologySpec.grid(5, 5)


def _case_job(case_id, ra="ucc", da="ucc", topology=GRID, job_id=""):
    case = CASES[case_id]
    return FleetJob(
        old_source=case.old_source,
        new_source=case.new_source,
        compile=CompileConfig(),
        update=UpdateConfig(ra=ra, da=da),
        topology=topology,
        job_id=job_id or f"case{case_id}/{ra}",
    )


def _small_batch():
    return [
        _case_job("1", topology=None),
        _case_job("6", topology=None),
        _case_job("6", ra="gcc", da="gcc", topology=None),
    ]


def _metrics(outcomes):
    return [outcome.key_metrics() for outcome in outcomes]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_outcomes_come_back_in_job_order(self):
        """A batch whose middle job replays from the job cache still
        returns its outcomes in job order."""
        jobs = _small_batch()
        service = FleetUpdateService()
        service.run(jobs[1:2])
        result = service.run(jobs)
        assert [outcome.index for outcome in result.outcomes] == [0, 1, 2]
        assert [outcome.job_id for outcome in result.outcomes] == [
            job.job_id for job in jobs
        ]
        assert [outcome.cached for outcome in result.outcomes] == [
            False, True, False
        ]
        assert result.mode == "serial"

    def test_a_repeated_job_executes_once(self):
        job = _small_batch()[0]
        result = FleetUpdateService().run([job, job])
        assert [outcome.cached for outcome in result.outcomes] == [False, True]
        assert [outcome.index for outcome in result.outcomes] == [0, 1]
        assert _metrics(result.outcomes[:1]) == _metrics(result.outcomes[1:])

    def test_warm_replay_is_bit_identical(self):
        jobs = _small_batch()
        service = FleetUpdateService()
        cold = service.run(jobs)
        warm = service.run(jobs)
        assert warm.mode == "cached"
        assert warm.cache_hit_rate == 1.0
        assert all(outcome.cached for outcome in warm.outcomes)
        assert not any(outcome.cached for outcome in cold.outcomes)
        # Bit-identical edit scripts, not just equal sizes.
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert after.script_digest == before.script_digest
        assert _metrics(cold.outcomes) == _metrics(warm.outcomes)

    def test_compile_cache_dedupes_shared_old_sources(self):
        # Jobs 2 and 3 of the small batch share old_source under the
        # same CompileConfig: the second compile must be a hit.
        service = FleetUpdateService()
        result = service.run(_small_batch())
        assert result.compile_cache_hits >= 1

    def test_run_batch_convenience(self):
        result = run_batch(_small_batch())
        assert result.ok
        assert len(result.outcomes) == 3


# ---------------------------------------------------------------------------
# The ISSUE acceptance batch: 16 Figure-9 jobs on a 5x5 grid
# ---------------------------------------------------------------------------


def _acceptance_jobs():
    """16 jobs: the 12 Figure 9/10 RA cases under ucc/ucc, plus four
    gcc/gcc baselines — every job disseminated over a 5x5 grid."""
    jobs = [_case_job(case_id) for case_id in RA_CASE_IDS]
    jobs += [_case_job(case_id, ra="gcc", da="gcc") for case_id in RA_CASE_IDS[:4]]
    assert len(jobs) == 16
    return jobs


class TestAcceptanceBatch:
    def test_warm_service_beats_serial_loop_2x(self):
        jobs = _acceptance_jobs()

        start = time.perf_counter()
        loop_outcomes = [
            execute_job(job, index=index) for index, job in enumerate(jobs)
        ]
        serial_ms = (time.perf_counter() - start) * 1000.0
        assert all(outcome.ok for outcome in loop_outcomes)

        service = FleetUpdateService()
        cold = service.run(jobs)  # warms the job cache
        warm = service.run(jobs)

        assert cold.ok and warm.ok
        assert warm.mode == "cached"
        assert warm.cache_hit_rate == 1.0
        assert warm.wall_ms * 2 <= serial_ms, (
            f"warm batch took {warm.wall_ms:.1f} ms vs {serial_ms:.1f} ms serial"
        )
        # Identical per-job metrics: plain loop, executed, replayed.
        assert _metrics(loop_outcomes) == _metrics(cold.outcomes)
        assert _metrics(loop_outcomes) == _metrics(warm.outcomes)
        # Every job disseminated to the 24 sensor nodes of the grid.
        assert all(outcome.nodes_patched == 24 for outcome in warm.outcomes)
        assert all(outcome.network_energy_j > 0 for outcome in warm.outcomes)

    def test_fastpath_batch_digest_identical_to_reference(self):
        """The vectorized ILP fast path (repro.ilp.fastpath) re-runs a
        20-job batch — the 16 acceptance jobs plus four ucc-ilp jobs,
        whose chunk models are built on the switched generator — with
        bit-identical campaign and job digests.  Its wall-time gate is
        ``benchmarks/test_ilp_fastpath_speedup.py``'s."""
        from repro.ilp.canonical import SOLVE_CACHE
        from repro.ilp.fastpath import reference_mode

        jobs = _acceptance_jobs()
        jobs += [_case_job(case_id, ra="ucc-ilp") for case_id in RA_CASE_IDS[:4]]
        assert len(jobs) == 20

        def batch(reference):
            SOLVE_CACHE.clear()
            with reference_mode(reference):
                return FleetUpdateService().run(jobs)

        fast, ref = batch(False), batch(True)
        assert fast.ok and ref.ok
        assert _metrics(fast.outcomes) == _metrics(ref.outcomes)
        digests = [
            (outcome.script_digest, outcome.campaign_digest)
            for outcome in fast.outcomes
        ]
        assert digests == [
            (outcome.script_digest, outcome.campaign_digest)
            for outcome in ref.outcomes
        ]
        assert all(script for script, _campaign in digests)


# ---------------------------------------------------------------------------
# Resilience
# ---------------------------------------------------------------------------


class TestFailurePaths:
    def test_bad_source_fails_one_job_not_the_batch(self):
        jobs = [
            _case_job("1", topology=None),
            FleetJob(old_source="this is not ucc-C", new_source="nor is this"),
            _case_job("6", topology=None),
        ]
        result = FleetUpdateService().run(jobs)
        assert not result.ok
        assert [outcome.ok for outcome in result.outcomes] == [True, False, True]
        failed = result.outcomes[1]
        assert failed.error
        assert failed.script_digest == ""

    def test_failed_jobs_are_not_cached(self):
        bad = FleetJob(old_source="syntax error", new_source="syntax error")
        service = FleetUpdateService()
        service.run([bad])
        second = service.run([bad])
        # The failure re-executes (a transient infra failure must not
        # poison the cache); both runs miss.
        assert second.job_cache_hits == 0
        assert not second.outcomes[0].cached

    @pytest.mark.parametrize("side", [0, 1])
    def test_empty_fleet_fails_the_job(self, side):
        """A topology with no sensor node fails the job the way
        ``UpdateSession`` refuses it, instead of reporting -1 or 0
        patched nodes."""
        job = _case_job("6", topology=TopologySpec.grid(side, side))
        outcome = execute_job(job)
        assert not outcome.ok
        assert outcome.error.startswith("EmptyFleetError: fleet has no sensor nodes")
        assert outcome.nodes_patched == 0
        assert outcome.network_energy_j == 0.0

    def test_failure_message_is_written_once(self):
        """A job that cannot disseminate (an 8-node line at 99 % loss)
        reports ``"{Type}: {message}"`` with the message once."""
        job = _case_job("6", topology=TopologySpec.line(8))
        outcome = execute_job(dataclasses.replace(job, loss=0.99))
        assert not outcome.ok
        assert outcome.error.startswith(
            "DisseminationIncomplete: dissemination incomplete after 200 rounds"
        )
        assert outcome.error.count("dissemination incomplete") == 1


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


def _traced_run(service, jobs):
    """One batch on a fresh global trace: the result, its spans, and
    the change of every ``service.*`` metric."""
    before = metrics.REGISTRY.values("service.")
    trace.reset()
    trace.enable()
    try:
        result = service.run(jobs)
        events = trace.events()
    finally:
        trace.disable()
        trace.reset()
    return result, events, metrics.REGISTRY.delta(before, "service.")


def _counts(result):
    return {
        "service.jobs": len(result.outcomes),
        "service.cache.job_hits": result.job_cache_hits,
        "service.cache.job_misses": result.job_cache_misses,
        "service.cache.compile_hits": result.compile_cache_hits,
        "service.cache.compile_misses": result.compile_cache_misses,
    }


class TestTelemetry:
    def test_one_trace_per_batch(self):
        """Every job a batch executes opens its ``service.job`` span one
        level under the batch's span, in the same trace; a warm replay
        executes nothing.  The counters agree with the batch's counts."""
        service = FleetUpdateService()
        jobs = _small_batch()

        cold, events, delta = _traced_run(service, jobs)
        [batch] = [event for event in events if event.name == "service.batch"]
        assert batch.args["jobs"] == 3
        job_spans = [event for event in events if event.name == "service.job"]
        assert [span.args["index"] for span in job_spans] == [0, 1, 2]
        assert all(span.depth == batch.depth + 1 for span in job_spans)
        assert cold.job_cache_misses == 3
        assert {name: delta.get(name, 0.0) for name in _counts(cold)} == _counts(cold)

        warm, events, delta = _traced_run(service, jobs)
        names = [event.name for event in events]
        assert names.count("service.batch") == 1
        assert "service.job" not in names
        assert warm.job_cache_hits == 3
        assert {name: delta.get(name, 0.0) for name in _counts(warm)} == _counts(warm)


# ---------------------------------------------------------------------------
# The cache primitive
# ---------------------------------------------------------------------------


class TestContentCache:
    def test_lru_eviction(self):
        cache = ContentCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_rate_accounting(self):
        cache = ContentCache(maxsize=4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("missing") is None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5
