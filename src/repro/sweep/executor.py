"""Memoized, batched execution of independent simulation points.

:class:`SweepExecutor` takes a list of :class:`~repro.sweep.job.SimJob`
and returns their results **in submission order**, so callers that build
tables row-by-row stay byte-identical to a plain loop regardless of how
the misses were grouped.  The pipeline per batch is:

1. answer every job the cache already knows;
2. deduplicate the remaining misses by fingerprint (a batch often
   contains the same point twice — e.g. Question 1 asks for regular and
   cleanup storage of the same ladder);
3. group the misses into execution units: jobs whose resolved kernel
   is ``auto``/``fast`` — failure-injecting jobs included, since the
   kernel replays :class:`~repro.sim.failures.FailureModel` draws
   bit-identically — and that share a workflow (by
   :meth:`~repro.workflow.dag.Workflow.fingerprint`) become one
   :func:`repro.sim.kernel.run_fast_kernel_batch` call — the DAG is
   lowered once for the whole unit — while explicit ``kernel="event"``
   jobs stay per-job :meth:`SimJob.run` calls;
4. execute the units in-process, one after another;
5. populate the cache and reassemble the results in input order.

Batched units return results bit-identical to per-job runs (the batch
entry point is differentially tested against the event engine), so
per-job fingerprints and cache semantics are unchanged.  Audited runs
bypass both the cache and the batching: every audited job is executed
on the event engine with tracing forced on.

Sweeps never fan out over processes: on the 2-vCPU hosts this project
is measured on, a pool made the paper report slower, not faster (see
``docs/performance.md``).  :func:`resolve_workers` lives here because
the campaign grid (:mod:`repro.grid.engine`) sizes its shard pool with
it: an explicit ``workers=`` argument wins, then the
``REPRO_SWEEP_WORKERS`` environment variable, then ``MAX_AUTO_WORKERS``
— and the result is always capped at the machine's core count.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import replace

from repro.audit import audit_simulation
from repro.sim.kernel import run_fast_kernel_batch
from repro.sim.results import SimulationResult
from repro.sweep.cache import SimCache, default_cache
from repro.sweep.job import SimJob

__all__ = [
    "SweepExecutor",
    "run_jobs",
    "resolve_workers",
    "resolve_audit",
    "set_default_audit",
]

#: Environment override for the worker count (1 = force serial).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Cap on the auto-detected worker count; the grid's default plan has
#: eight shards, so more workers than that would only idle.
MAX_AUTO_WORKERS = 8


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the effective worker count (see module docstring).

    The count is capped at the machine's core count: the simulator is
    pure CPU, so oversubscribing only adds spawn and pickling overhead —
    on a 1-core box even an explicit ``REPRO_SWEEP_WORKERS=4`` resolves
    to the serial path.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
    if workers is None:
        workers = MAX_AUTO_WORKERS
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    return min(workers, os.cpu_count() or 1)


_default_audit = False


def set_default_audit(enabled: bool) -> bool:
    """Set the process-wide audit default; returns the previous value.

    The report runner flips this around a full run so every simulation
    executed anywhere below it — all experiment modules route through
    :func:`run_jobs` — is reconciled against its trace.
    """
    global _default_audit
    previous = _default_audit
    _default_audit = bool(enabled)
    return previous


def resolve_audit(audit: bool | None = None) -> bool:
    """Effective audit flag: explicit arg, else the process-wide default."""
    if audit is not None:
        return bool(audit)
    return _default_audit


def _batchable(job: SimJob) -> bool:
    """Can this job join a fast-kernel batch?

    The batch entry point handles every configuration — contended links,
    finite capacities, and failure injection (the kernel replays the
    model's seeded RNG stream bit-identically) — so only an explicit
    ``kernel="event"`` pins a job to its own :func:`repro.sim.simulate`
    call.
    """
    return job.kernel in ("auto", "fast")


def _run_unit(jobs: Sequence[SimJob]) -> list[SimulationResult]:
    """One execution unit → its results, in order.

    A unit of several jobs shares a workflow and rides one batched
    fast-kernel call (the DAG is lowered once); a single job runs alone.
    """
    if len(jobs) > 1:
        configs = [job.kernel_config() for job in jobs]
        return run_fast_kernel_batch(jobs[0].workflow, configs)
    return [jobs[0].run()]


def _execute_audited(job: SimJob) -> SimulationResult:
    """Run one job with tracing forced on and audit the result.

    Raises :class:`repro.audit.AuditError` on any reconciliation
    violation.  The audited run is pinned to the event engine: the
    audit's whole point is to exercise the engine against the oracle,
    and the kernel's own equivalence is established separately
    (differential suite + audited kernel traces in ``tests/sim/``).
    """
    traced = replace(job, record_trace=True, kernel="event")
    result = traced.run()
    audit_simulation(
        result, job.workflow, traced.environment(), failures=job.failures
    ).raise_if_failed()
    return result


class SweepExecutor:
    """Run batches of simulation jobs with memoization and batching."""

    def __init__(
        self,
        cache: SimCache | None = None,
        audit: bool | None = None,
    ) -> None:
        self.cache = cache if cache is not None else default_cache()
        #: reconcile every executed job against its trace (see
        #: :mod:`repro.audit`); audited runs bypass the cache entirely so
        #: the engine is actually exercised, not replayed
        self.audit = resolve_audit(audit)
        #: jobs run under the auditor so far (observability/tests)
        self.audited_jobs = 0

    def run(self, jobs: Sequence[SimJob]) -> list[SimulationResult]:
        """Execute ``jobs``; results are aligned with the input order."""
        keys = [job.fingerprint() for job in jobs]
        results: dict[str, SimulationResult] = {}
        pending: list[tuple[str, SimJob]] = []
        seen: set[str] = set()
        for key, job in zip(keys, jobs):
            if key in seen:
                continue
            seen.add(key)
            if not self.audit:
                cached = self.cache.get(key)
                if cached is not None:
                    results[key] = cached
                    continue
            pending.append((key, job))

        if self.audit:
            for key, job in pending:
                results[key] = _execute_audited(job)
                self.audited_jobs += 1
        elif pending:
            # Group the misses into execution units: batch-eligible jobs
            # sharing a workflow ride one run_fast_kernel_batch call
            # (the DAG is lowered once per unit); the rest run solo.
            units: list[list[tuple[str, SimJob]]] = []
            by_workflow: dict[str, int] = {}
            for key, job in pending:
                if _batchable(job):
                    wkey = job.workflow.fingerprint()
                    idx = by_workflow.get(wkey)
                    if idx is None:
                        by_workflow[wkey] = len(units)
                        units.append([(key, job)])
                    else:
                        units[idx].append((key, job))
                else:
                    units.append([(key, job)])
            for unit in units:
                unit_results = _run_unit([j for _, j in unit])
                for (key, _), result in zip(unit, unit_results):
                    self.cache.put(key, result)
                    results[key] = result

        return [results[key] for key in keys]

    def run_one(self, job: SimJob) -> SimulationResult:
        """Single-point convenience (still memoized)."""
        return self.run([job])[0]


def run_jobs(
    jobs: Sequence[SimJob],
    cache: SimCache | None = None,
    audit: bool | None = None,
) -> list[SimulationResult]:
    """One-call sweep: memoized, batched, results in input order.

    This is what the experiment modules use; with default arguments every
    call in the process shares one cache, so repeated points across
    experiments are simulated exactly once.  ``audit=True`` (or
    :func:`set_default_audit`) instead runs every job fresh under the
    trace auditor, raising :class:`repro.audit.AuditError` on the first
    violation.
    """
    return SweepExecutor(cache=cache, audit=audit).run(jobs)
