"""Sweep engine: determinism, memoization and fingerprinting.

The contract under test is the one the experiment harness relies on:
batched execution, any ``REPRO_SWEEP_WORKERS`` setting and cache hits
must be *bit-identical* to a fresh per-job run — same rows, same
makespans, same byte counts, same report text — because the
paper-comparison report is compared byte-for-byte against the seed
output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.audit import AuditError
from repro.experiments.ccr import run_ccr_sweep
from repro.experiments.question1 import run_question1
from repro.sweep import (
    FailureSpec,
    SimCache,
    SimJob,
    SweepExecutor,
    resolve_audit,
    run_jobs,
    set_default_audit,
)
from repro.sweep import cache as cache_module
from repro.sweep import executor as executor_module
from repro.workflow.dag import FileSpec, Task, Workflow


@pytest.fixture
def isolated_default_cache(monkeypatch):
    """A fresh default cache per test, no disk layer, restored after."""
    monkeypatch.delenv(cache_module.CACHE_DIR_ENV, raising=False)
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    cache_module.reset_default_cache()
    yield cache_module.default_cache()
    cache_module.reset_default_cache()


PROCESSORS = [1, 4, 16]


class TestParallelSerialIdentity:
    def test_question1_parallel_identical_to_serial(
        self, montage1, isolated_default_cache, monkeypatch
    ):
        serial = run_question1(montage1, processors=PROCESSORS)
        cache_module.reset_default_cache()
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        parallel = run_question1(montage1, processors=PROCESSORS)
        assert parallel.rows == serial.rows
        assert parallel.as_table() == serial.as_table()
        assert parallel.as_csv() == serial.as_csv()

    def test_ccr_sweep_parallel_identical_to_serial(
        self, montage1, isolated_default_cache, monkeypatch
    ):
        serial = run_ccr_sweep(montage1, ccr_values=(0.1, 0.5, 1.0))
        cache_module.reset_default_cache()
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        parallel = run_ccr_sweep(montage1, ccr_values=(0.1, 0.5, 1.0))
        assert parallel.points == serial.points
        assert parallel.as_table() == serial.as_table()
        assert parallel.as_csv() == serial.as_csv()

    def test_results_in_submission_order(self, montage1):
        jobs = [SimJob(montage1, p) for p in (16, 1, 4)]
        results = run_jobs(jobs, cache=SimCache())
        assert [r.n_processors for r in results] == [16, 1, 4]
        # Monotone: more processors never lengthens the makespan.
        by_p = {r.n_processors: r.makespan for r in results}
        assert by_p[16] <= by_p[4] <= by_p[1]


class TestMemoization:
    def test_cache_hit_returns_equal_result(self, montage1):
        cache = SimCache()
        executor = SweepExecutor(cache=cache)
        job = SimJob(montage1, 4, "cleanup")
        first = executor.run_one(job)
        assert cache.misses == 1 and cache.hits == 0
        second = executor.run_one(job)
        assert cache.hits == 1
        assert second == first

    def test_batch_level_dedup_simulates_once(self, montage1):
        cache = SimCache()
        job = SimJob(montage1, 2)
        results = SweepExecutor(cache=cache).run([job, job, job])
        assert len(cache) == 1
        assert results[0] == results[1] == results[2]

    def test_disk_cache_round_trip(self, montage1, tmp_path):
        job = SimJob(montage1, 4)
        first = SweepExecutor(cache=SimCache(tmp_path)).run_one(job)
        # A brand-new cache over the same directory answers from disk.
        fresh = SimCache(tmp_path)
        second = SweepExecutor(cache=fresh).run_one(job)
        assert fresh.hits == 1 and fresh.misses == 0
        assert second == first

    def test_failure_spec_is_replayable(self, montage1):
        # A stateful FailureModel is rebuilt per execution, so a cache
        # miss after a clear reproduces the identical failure pattern.
        job = SimJob(montage1, 8, failures=FailureSpec(0.05, seed=7))
        first = SweepExecutor(cache=SimCache()).run_one(job)
        second = SweepExecutor(cache=SimCache()).run_one(job)
        assert first.n_task_failures > 0
        assert second == first


@pytest.mark.audit
class TestAuditedSweeps:
    def test_audited_run_bypasses_cache(self, montage1):
        cache = SimCache()
        executor = SweepExecutor(cache=cache, audit=True)
        job = SimJob(montage1, 4)
        first = executor.run_one(job)
        second = executor.run_one(job)
        assert len(cache) == 0  # nothing memoized under audit
        assert executor.audited_jobs == 2
        assert second == first  # deterministic, just recomputed

    def test_audited_results_match_cached_results(self, montage1):
        job = SimJob(montage1, 4, "cleanup")
        plain = SweepExecutor(cache=SimCache()).run_one(job)
        audited = SweepExecutor(cache=SimCache(), audit=True).run_one(job)
        # The audited run forces tracing; aggregates must be identical.
        assert audited.makespan == plain.makespan
        assert audited.bytes_in == plain.bytes_in
        assert audited.storage_byte_seconds == plain.storage_byte_seconds
        assert audited.task_records  # trace forced on

    def test_audited_pool_run_propagates_audit_error(
        self, montage1, monkeypatch
    ):
        # A job whose audit fails must surface AuditError to the caller.
        def broken(job):
            from dataclasses import replace

            from repro.audit import audit_simulation

            traced = replace(job, record_trace=True)
            result = traced.run()
            result.makespan += 1.0  # corrupt before the audit
            audit_simulation(
                result, job.workflow, traced.environment()
            ).raise_if_failed()
            return result

        monkeypatch.setattr(executor_module, "_execute_audited", broken)
        executor = SweepExecutor(cache=SimCache(), audit=True)
        with pytest.raises(AuditError):
            executor.run([SimJob(montage1, 2)])

    def test_resolve_audit_argument_wins_over_default(self):
        assert resolve_audit() is False
        assert resolve_audit(True) is True
        previous = set_default_audit(True)
        try:
            assert resolve_audit(False) is False
        finally:
            set_default_audit(previous)

    def test_set_default_audit_round_trip(self, montage1):
        previous = set_default_audit(True)
        try:
            assert resolve_audit() is True
            executor = SweepExecutor(cache=SimCache())
            assert executor.audit is True
            executor.run([SimJob(montage1, 2)])
            assert executor.audited_jobs == 1
        finally:
            set_default_audit(previous)
        assert resolve_audit() is False


def _tiny_workflow(name="wf", size=10.0):
    wf = Workflow(name)
    wf.add_file(FileSpec("a", size))
    wf.add_file(FileSpec("b", size))
    wf.add_task(Task("t", 5.0, inputs=("a",), outputs=("b",)))
    wf.validate()
    return wf


class TestFingerprints:
    def test_workflow_fingerprint_content_addressed(self):
        assert (
            _tiny_workflow().fingerprint() == _tiny_workflow().fingerprint()
        )
        assert (
            _tiny_workflow(size=20.0).fingerprint()
            != _tiny_workflow().fingerprint()
        )
        assert (
            _tiny_workflow(name="other").fingerprint()
            != _tiny_workflow().fingerprint()
        )

    def test_workflow_fingerprint_invalidated_on_mutation(self):
        wf = _tiny_workflow()
        before = wf.fingerprint()
        wf.add_file(FileSpec("c", 1.0))
        wf.add_task(Task("t2", 1.0, inputs=("b",), outputs=("c",)))
        assert wf.fingerprint() != before

    def test_job_fingerprint_covers_parameters(self):
        wf = _tiny_workflow()
        base = SimJob(wf, 2)
        assert SimJob(wf, 2).fingerprint() == base.fingerprint()
        distinct = {
            SimJob(wf, 4).fingerprint(),
            SimJob(wf, 2, "cleanup").fingerprint(),
            SimJob(wf, 2, bandwidth_bytes_per_sec=1e6).fingerprint(),
            SimJob(wf, 2, link_contention=True).fingerprint(),
            SimJob(wf, 2, ordering="longest-first").fingerprint(),
            SimJob(wf, 2, failures=FailureSpec(0.1)).fingerprint(),
            SimJob(wf, 2, record_trace=True).fingerprint(),
            SimJob(wf, 2, kernel="event").fingerprint(),
            base.fingerprint(),
        }
        assert len(distinct) == 9

    def test_kernel_resolved_at_construction(self, monkeypatch):
        # The env var is applied when the job is built, so fingerprints
        # (and cache keys) never depend on the executing process's env.
        wf = _tiny_workflow()
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        assert SimJob(wf, 2).kernel == "auto"
        monkeypatch.setenv("REPRO_SIM_KERNEL", "event")
        env_job = SimJob(wf, 2)
        assert env_job.kernel == "event"
        assert env_job.fingerprint() == SimJob(wf, 2, kernel="event").fingerprint()
        with pytest.raises(ValueError):
            SimJob(wf, 2, kernel="turbo")

    def test_invalid_mode_and_ordering_rejected_eagerly(self):
        wf = _tiny_workflow()
        with pytest.raises(ValueError):
            SimJob(wf, 2, "no-such-mode")
        with pytest.raises(KeyError):
            SimJob(wf, 2, ordering="no-such-ordering")


class TestSerialFallback:
    """Sweeps run in-process; the worker count sizes only the grid's pool."""

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        assert executor_module.resolve_workers(8) == 2
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        assert executor_module.resolve_workers(8) == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert executor_module.resolve_workers() == 1

    def test_workers_still_validated(self):
        with pytest.raises(ValueError):
            executor_module.resolve_workers(0)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Record every ``ProcessPoolExecutor`` constructed during a test."""
        constructed = []
        original_init = ProcessPoolExecutor.__init__

        def recording_init(self, *args, **kwargs):
            constructed.append((args, kwargs))
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", recording_init)
        return constructed

    def test_small_batch_stays_serial(self, montage1, monkeypatch, pools):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        jobs = [SimJob(montage1, p) for p in (1, 2, 3)]
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert executor_module.resolve_workers() == 4
        four = SweepExecutor(cache=SimCache()).run(jobs)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        one = SweepExecutor(cache=SimCache()).run(jobs)
        assert pools == []
        assert four == one

    def test_single_worker_stays_serial(self, montage1, monkeypatch, pools):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        jobs = [SimJob(montage1, p) for p in (1, 2, 3, 4, 5)]
        plain = SweepExecutor(cache=SimCache()).run(jobs)
        audited = SweepExecutor(cache=SimCache(), audit=True).run(jobs)
        assert pools == []
        assert [r.makespan for r in audited] == [r.makespan for r in plain]


class TestBatchGrouping:
    """Cache-missed jobs sharing a workflow ride one batched kernel call.

    The grouping is an execution detail: submission order, per-job
    fingerprints, cache contents and the results themselves must be
    byte-identical to independent ``job.run()`` calls.
    """

    def test_mixed_batch_matches_per_job_runs(self, montage1):
        wf2 = _tiny_workflow("second")
        jobs = [
            SimJob(montage1, 16, "cleanup"),
            SimJob(wf2, 2),  # different workflow → separate unit
            SimJob(montage1, 4, "regular", link_contention=True),
            SimJob(montage1, 2, kernel="event"),  # pinned → solo unit
            SimJob(montage1, 8, "remote-io", record_trace=True),
            SimJob(montage1, 1, failures=FailureSpec(0.05, seed=3)),
            SimJob(montage1, 4, "cleanup", storage_capacity_bytes=5e9),
        ]
        expected = [job.run() for job in jobs]
        got = SweepExecutor(cache=SimCache()).run(jobs)
        assert got == expected

    def test_grouped_results_keep_submission_order(self, montage1):
        wf2 = _tiny_workflow("interleaved")
        jobs = [
            SimJob(montage1, 16),
            SimJob(wf2, 1),
            SimJob(montage1, 1),
            SimJob(wf2, 2),
            SimJob(montage1, 4),
        ]
        results = SweepExecutor(cache=SimCache()).run(jobs)
        assert [(r.workflow_name, r.n_processors) for r in results] == [
            (j.workflow.name, j.n_processors) for j in jobs
        ]

    def test_batched_jobs_still_cached_per_fingerprint(self, montage1):
        cache = SimCache()
        jobs = [SimJob(montage1, p, "cleanup") for p in (1, 2, 4, 8)]
        executor = SweepExecutor(cache=cache)
        first = executor.run(jobs)
        assert len(cache) == len(jobs)
        assert cache.misses == len(jobs)
        second = executor.run(jobs)
        assert cache.hits == len(jobs)
        assert second == first

    def test_report_byte_identical_with_and_without_grouping(
        self, montage1, isolated_default_cache, monkeypatch
    ):
        # Force every unit to be a singleton by pinning the event kernel
        # via the env var (resolved at job construction), and compare a
        # whole experiment report against the default batched path.
        batched = run_question1(montage1, processors=PROCESSORS)
        cache_module.reset_default_cache()
        monkeypatch.setenv("REPRO_SIM_KERNEL", "event")
        solo = run_question1(montage1, processors=PROCESSORS)
        assert batched.as_table() == solo.as_table()
        assert batched.as_csv() == solo.as_csv()

    def test_failure_jobs_join_fast_batches(self, montage1):
        # Since the Monte Carlo PR, failure-carrying jobs are batchable:
        # they resolve to the fast kernel under auto/fast and ride the
        # fingerprint-grouped batch calls, bit-identical to event runs.
        spec = FailureSpec(0.05, seed=3, max_retries=25)
        jobs = [
            SimJob(montage1, p, failures=spec, kernel=k)
            for p in (2, 8)
            for k in ("auto", "fast")
        ]
        from repro.sweep.executor import _batchable

        assert all(_batchable(job) for job in jobs)
        batched = SweepExecutor(cache=SimCache()).run(jobs)
        event = [
            SimJob(montage1, p, failures=spec, kernel="event").run()
            for p in (2, 8)
            for _ in ("auto", "fast")
        ]
        assert batched == event

    def test_zero_probability_spec_normalizes_to_none(self):
        # FailureSpec(p=0) is behaviourally no failure model at all; the
        # job normalizes it away so both spellings share one cache key
        # and one byte-identical result.
        wf = _tiny_workflow()
        zero = SimJob(wf, 2, failures=FailureSpec(0.0, seed=9))
        none = SimJob(wf, 2)
        assert zero.failures is None
        assert zero.fingerprint() == none.fingerprint()
        assert zero == none
        assert zero.run() == none.run()

    def test_audited_jobs_not_grouped(self, montage1):
        # Audit pins the event engine per job; grouping must not change
        # that (audited_jobs counts individual executions).
        executor = SweepExecutor(cache=SimCache(), audit=True)
        jobs = [SimJob(montage1, p) for p in (2, 4)]
        results = executor.run(jobs)
        assert executor.audited_jobs == 2
        assert [r.n_processors for r in results] == [2, 4]


class TestKernelDispatch:
    def test_sweep_default_kernel_matches_event(self, montage1):
        # auto-mode sweeps take the fast kernel for eligible jobs; the
        # results must be indistinguishable from event-engine sweeps.
        auto = SweepExecutor(cache=SimCache()).run(
            [SimJob(montage1, p, "cleanup") for p in (2, 8)]
        )
        event = SweepExecutor(cache=SimCache()).run(
            [SimJob(montage1, p, "cleanup", kernel="event") for p in (2, 8)]
        )
        assert auto == event

    def test_audited_sweep_pins_event_engine(self, montage1):
        # kernel="fast" jobs under audit are re-run on the event engine
        # (the oracle's subject), traced, and still reconcile.
        executor = SweepExecutor(cache=SimCache(), audit=True)
        results = executor.run([SimJob(montage1, 4, kernel="fast")])
        assert executor.audited_jobs == 1
        reference = SimJob(
            montage1, 4, record_trace=True, kernel="event"
        ).run()
        assert results[0] == reference
