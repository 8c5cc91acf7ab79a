"""The fleet update service (`repro.service`).

Pins the three service guarantees:

* **determinism** — serial, parallel, and cached execution produce
  identical per-job metrics (down to the edit-script digest), and
  outcomes always come back in job order;
* **the acceptance batch** — the ISSUE's 16-job Figure-9 batch on a
  5x5 grid runs >= 2x faster through a warm service than through a
  plain serial loop, with identical per-job metrics;
* **resilience** — per-job failures, pool breakage, and timeouts
  degrade to ``ok=False`` outcomes or serial execution, never to a
  raised batch.
"""

import time

import pytest

from repro.config import CompileConfig, FleetJob, TopologySpec, UpdateConfig
from repro.service import ContentCache, FleetUpdateService, execute_job, run_batch
from repro.service import fleet as fleet_module
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
    def test_serial_and_parallel_agree(self):
        jobs = _small_batch()
        serial = FleetUpdateService(workers=1, use_processes=False).run(jobs)
        parallel = FleetUpdateService(workers=2).run(jobs)
        assert serial.ok and parallel.ok
        assert serial.mode == "serial"
        assert parallel.mode == "parallel"
        assert _metrics(serial.outcomes) == _metrics(parallel.outcomes)

    def test_outcomes_come_back_in_job_order(self):
        jobs = _small_batch()
        result = FleetUpdateService(workers=2).run(jobs)
        assert [outcome.index for outcome in result.outcomes] == [0, 1, 2]
        assert [outcome.job_id for outcome in result.outcomes] == [
            job.job_id for job in jobs
        ]

    def test_warm_replay_is_bit_identical(self):
        jobs = _small_batch()
        service = FleetUpdateService(workers=1, use_processes=False)
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
        service = FleetUpdateService(workers=1, use_processes=False)
        result = service.run(_small_batch())
        assert result.compile_cache_hits >= 1

    def test_run_batch_convenience(self):
        result = run_batch(_small_batch(), workers=1, use_processes=False)
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

        service = FleetUpdateService(workers=4)
        cold = service.run(jobs)  # warms the job cache
        warm = service.run(jobs)

        assert cold.ok and warm.ok
        assert warm.mode == "cached"
        assert warm.cache_hit_rate == 1.0
        assert warm.wall_ms * 2 <= serial_ms, (
            f"warm batch took {warm.wall_ms:.1f} ms vs {serial_ms:.1f} ms serial"
        )
        # Identical per-job metrics across all three execution modes.
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
            # reference_mode is process-local, so both runs stay
            # in-process (a worker pool would ignore the toggle).
            SOLVE_CACHE.clear()
            with reference_mode(reference):
                return FleetUpdateService(workers=1, use_processes=False).run(jobs)

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
        result = FleetUpdateService(workers=1, use_processes=False).run(jobs)
        assert not result.ok
        assert [outcome.ok for outcome in result.outcomes] == [True, False, True]
        failed = result.outcomes[1]
        assert failed.error
        assert failed.script_digest == ""

    def test_failed_jobs_are_not_cached(self):
        bad = FleetJob(old_source="syntax error", new_source="syntax error")
        service = FleetUpdateService(workers=1, use_processes=False)
        service.run([bad])
        second = service.run([bad])
        # The failure re-executes (a transient infra failure must not
        # poison the cache); both runs miss.
        assert second.job_cache_hits == 0
        assert not second.outcomes[0].cached

    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(fleet_module, "ProcessPoolExecutor", broken_pool)
        jobs = _small_batch()
        result = FleetUpdateService(workers=4).run(jobs)
        assert result.ok
        assert result.mode == "serial-fallback"
        reference = FleetUpdateService(workers=1, use_processes=False).run(jobs)
        assert _metrics(result.outcomes) == _metrics(reference.outcomes)

    def test_timeout_produces_failed_outcome(self):
        jobs = [_case_job("1", topology=None), _case_job("6", topology=None)]
        result = FleetUpdateService(workers=2, timeout_s=1e-6).run(jobs)
        assert not result.ok
        timed_out = [outcome for outcome in result.outcomes if not outcome.ok]
        assert timed_out
        assert all("timeout" in outcome.error for outcome in timed_out)

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

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FleetUpdateService(workers=0)
        with pytest.raises(ValueError, match="retries"):
            FleetUpdateService(retries=-1)


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
