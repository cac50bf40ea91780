"""Sweep engine with content-addressed simulation memoization.

The paper's results are all *sweeps* — processor ladders, data-mode
comparisons, CCR grids, whole-sky campaigns — and every point is an
independent deterministic simulation.  This package turns those loops
into batches:

* :class:`~repro.sweep.job.SimJob` — one simulation point as a frozen,
  picklable value with a content-addressed fingerprint;
* :class:`~repro.sweep.cache.SimCache` — fingerprint-keyed result store,
  in-memory plus optional on-disk (``REPRO_SWEEP_CACHE``);
* :class:`~repro.sweep.executor.SweepExecutor` / :func:`run_jobs` — memo
  lookup, batch-level deduplication, then in-process execution with
  workflow-sharing misses batched through the fast kernel, with results
  returned in submission order so sweep output is byte-identical however
  the misses were grouped.

See ``docs/architecture.md`` ("Sweep & caching layer") for the design
and ``docs/tutorial.md`` for a worked example.
"""

from repro.sweep.builders import clear_build_caches, scaled_ccr_workflow
from repro.sweep.cache import SimCache, default_cache, reset_default_cache
from repro.sweep.executor import (
    SweepExecutor,
    resolve_audit,
    resolve_workers,
    run_jobs,
    set_default_audit,
)
from repro.sweep.job import FailureSpec, SimJob

__all__ = [
    "SimJob",
    "FailureSpec",
    "SimCache",
    "SweepExecutor",
    "run_jobs",
    "resolve_workers",
    "resolve_audit",
    "set_default_audit",
    "default_cache",
    "reset_default_cache",
    "scaled_ccr_workflow",
    "clear_build_caches",
]
