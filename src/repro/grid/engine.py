"""Sharded, checkpointed execution of campaign grids.

:func:`run_grid` partitions a :class:`~repro.grid.plan.GridPlan` into
*shards* by plate fingerprint — ``shard_of(fp, shards)`` hashes the
plate's content, so the partition is stable across processes, machines
and plate orderings — and executes each shard's cells columnar on the
fast kernel: one :class:`~repro.sim.kernel._Lowering` per plate (the
kernel memoizes it), one grow-only per-seed draw buffer dict shared by
every plate and ladder point of the shard, and every cell written
straight into a preallocated :data:`~repro.sim.kernel.SUMMARY_DTYPE`
record batch.  The per-cell replay is :func:`run_monte_carlo`'s:
failure-free cells reuse one baseline run per ladder point, and failing
cells on traceless shared-storage FIFO points fork the turbo loop from
the baseline's nearest checkpoint, bit-identically.

Shards run serially, or over a ``ProcessPoolExecutor`` when more than
one worker resolves (:func:`~repro.sweep.executor.resolve_workers`:
``REPRO_SWEEP_WORKERS``, capped at the core count — a 1-core box takes
the serial path).  This shard pool is the only process pool in the
package; plain sweeps always run in-process.  As each
shard completes, its record batch is *checkpointed* into the sweep
cache as a whole-shard blob keyed by (plan fingerprint, shard plate
set); a rerun of an interrupted campaign answers completed shards from
the cache and executes only the missing ones.  Merge order is
deterministic: rows land in the plan's canonical order whatever order
shards finish in.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from hashlib import sha256

import numpy as np

from repro.grid.plan import GridPlan
from repro.grid.result import GridResult
from repro.sim.kernel import SUMMARY_DTYPE, run_monte_carlo, summary_batch
from repro.sweep.cache import SimCache, default_cache
from repro.sweep.executor import resolve_workers
from repro.workflow.dag import Workflow

__all__ = ["plan_shards", "run_grid", "shard_of"]

#: Default shard count: enough slices for an 8-way pool while keeping
#: per-shard checkpoints coarse.  Machine-independent, so the same plan
#: produces the same shard keys (and reuses the same checkpoints)
#: everywhere.
DEFAULT_SHARDS = 8


def shard_of(fingerprint: str, shards: int) -> int:
    """Stable shard index of a plate fingerprint (hex SHA-256)."""
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    return int(fingerprint[:16], 16) % shards


def plan_shards(
    plan: GridPlan, shards: int | None = None
) -> list[list[int]]:
    """Partition the plan's plates into non-empty shards.

    Returns lists of plate indices (each ascending, so a shard's cells
    are in canonical relative order).  Shards that no plate hashes into
    are dropped — the schedule only carries real work.
    """
    n = DEFAULT_SHARDS if shards is None else shards
    buckets: dict[int, list[int]] = {}
    for i, fp in enumerate(plan.plate_fingerprints()):
        buckets.setdefault(shard_of(fp, n), []).append(i)
    return [buckets[s] for s in sorted(buckets)]


def _shard_key(plan_fingerprint: str, plate_fps: Sequence[str]) -> str:
    """Checkpoint key of one shard: plan identity + its plate set."""
    return sha256(
        "\x1e".join((plan_fingerprint, *plate_fps)).encode()
    ).hexdigest()


def _execute_shard(
    plates: Sequence[Workflow],
    processors: Sequence[int],
    probabilities: Sequence[float],
    seeds: Sequence[int],
    data_mode: str,
    bandwidth: float,
    ordering: str,
    max_retries: int,
) -> np.ndarray:
    """Run one shard's cells columnar; module-level so pools can pickle it.

    The ordering travels by name and the kernel configs are rebuilt
    here, because ordering key functions are lambdas.  One ``streams``
    dict serves every plate and ladder point of the shard — the
    pre-drawn uniforms depend only on the seed.
    """
    sub = GridPlan(
        plates=tuple(plates),
        processors=tuple(processors),
        probabilities=tuple(probabilities),
        seeds=tuple(seeds),
        data_mode=data_mode,
        bandwidth_bytes_per_sec=bandwidth,
        ordering=ordering,
        max_retries=max_retries,
    )
    out = summary_batch(sub.n_cells)
    streams: dict = {}
    k = 0
    grid = len(sub.probabilities) * len(sub.seeds)
    for plate in sub.plates:
        for n_proc in sub.processors:
            run_monte_carlo(
                plate,
                sub.kernel_config(n_proc),
                sub.probabilities,
                sub.seeds,
                max_retries=sub.max_retries,
                out=out,
                out_offset=k,
                streams=streams,
            )
            k += grid
    return out


def _shard_args(plan: GridPlan, plate_indices: Sequence[int]) -> tuple:
    return (
        tuple(plan.plates[i] for i in plate_indices),
        plan.processors,
        plan.probabilities,
        plan.seeds,
        plan.data_mode,
        plan.bandwidth_bytes_per_sec,
        plan.ordering,
        plan.max_retries,
    )


def run_grid(
    plan: GridPlan,
    shards: int | None = None,
    workers: int | None = None,
    cache: SimCache | None = None,
    progress: Callable[[str], None] | None = None,
) -> GridResult:
    """Execute a campaign grid; returns rows in canonical plan order.

    ``shards`` controls the checkpoint/parallelism granularity (default
    :data:`DEFAULT_SHARDS`); ``workers`` is resolved by
    :func:`~repro.sweep.executor.resolve_workers`; ``cache`` (default:
    the process-wide sweep cache) supplies shard checkpoints when it has
    a disk layer — pass a cache without one to disable checkpointing.
    ``progress`` receives one human-readable line per shard event.
    """
    say = progress if progress is not None else (lambda _msg: None)
    cache = cache if cache is not None else default_cache()
    shard_plates = plan_shards(plan, shards)
    plan_fp = plan.fingerprint()
    plate_fps = plan.plate_fingerprints()
    per_plate = plan.cells_per_plate

    batch = summary_batch(plan.n_cells)

    def merge(plate_indices: Sequence[int], shard_out: np.ndarray) -> None:
        for j, plate_i in enumerate(plate_indices):
            batch[plate_i * per_plate:(plate_i + 1) * per_plate] = (
                shard_out[j * per_plate:(j + 1) * per_plate]
            )

    # Answer completed shards from their checkpoints.
    pending: list[tuple[str, list[int]]] = []
    for plate_indices in shard_plates:
        key = _shard_key(plan_fp, [plate_fps[i] for i in plate_indices])
        cached = cache.get_blob(key)
        if (
            isinstance(cached, np.ndarray)
            and cached.dtype == SUMMARY_DTYPE
            and len(cached) == len(plate_indices) * per_plate
        ):
            merge(plate_indices, cached)
            say(
                f"shard {key[:8]}: {len(plate_indices)} plates "
                "from checkpoint"
            )
        else:
            pending.append((key, plate_indices))

    n_workers = min(resolve_workers(workers), max(len(pending), 1))
    if pending and n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = {
                pool.submit(
                    _execute_shard, *_shard_args(plan, plate_indices)
                ): (key, plate_indices)
                for key, plate_indices in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    key, plate_indices = futures[fut]
                    shard_out = fut.result()
                    # Checkpoint first: a crash after this line costs
                    # nothing on rerun.
                    cache.put_blob(key, shard_out)
                    merge(plate_indices, shard_out)
                    say(
                        f"shard {key[:8]}: {len(plate_indices)} plates "
                        "executed"
                    )
    else:
        for key, plate_indices in pending:
            shard_out = _execute_shard(*_shard_args(plan, plate_indices))
            cache.put_blob(key, shard_out)
            merge(plate_indices, shard_out)
            say(
                f"shard {key[:8]}: {len(plate_indices)} plates executed"
            )

    return GridResult(
        plate_names=tuple(plate.name for plate in plan.plates),
        processors=plan.processors,
        probabilities=plan.probabilities,
        seeds=plan.seeds,
        batch=batch,
    )
