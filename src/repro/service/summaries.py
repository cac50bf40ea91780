"""Per-workflow-class resource summaries for the fluid service engine.

The scale engine (:mod:`repro.service.scale`) never simulates individual
requests; it works from a compact summary of each *workflow class* in the
request mix — the solo makespan as a function of pool share, the
processor-seconds one execution holds, and its data volumes.  Those are
exactly the scalars the fast kernel already produces, so a summary is one
:func:`~repro.sim.kernel.run_fast_kernel_batch` call over a share ladder
(a few milliseconds, contended-link and finite-capacity service
environments included), and the result is memoized in the sweep cache's
blob store keyed on the workflow's content fingerprint — the same
machinery the grid engine uses for shard checkpoints, so summaries
survive across processes and sessions.

The share ladder is powers of two extended until the makespan stops
improving: list scheduling with a pool at least as wide as the
workflow's maximum parallelism produces the identical schedule for any
wider pool, so exact equality of consecutive makespans marks saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256

import numpy as np

from repro.sim.executor import DEFAULT_BANDWIDTH, ExecutionEnvironment
from repro.sim.kernel import KernelConfig, run_fast_kernel_batch, summary_batch
from repro.sweep.cache import SimCache, default_cache
from repro.workflow.dag import Workflow

__all__ = ["ClassSummary", "summarize_class", "summarize_mix"]

#: Bump to invalidate memoized summaries when their layout changes.
SUMMARY_VERSION = 1

#: Never probe shares beyond this (guards pathological workflows).
MAX_SHARE = 65_536


@dataclass(frozen=True)
class ClassSummary:
    """Resource profile of one workflow class, per pool share.

    ``shares`` is ascending and ends at the saturating share: the
    makespan at any wider pool equals ``makespans[-1]`` exactly.
    ``busy_seconds``/``storage_byte_seconds`` are per-share columns
    aligned with ``shares``; the data volumes are share-invariant.
    """

    name: str
    fingerprint: str
    data_mode: str
    bandwidth_bytes_per_sec: float
    shares: tuple[int, ...]
    makespans: tuple[float, ...]
    busy_seconds: tuple[float, ...]
    storage_byte_seconds: tuple[float, ...]
    compute_seconds: float
    bytes_in: float
    bytes_out: float
    mosaic_bytes: float

    def _interp(self, column: tuple[float, ...], share: float) -> float:
        shares = np.asarray(self.shares, dtype=float)
        if share >= shares[-1]:
            return column[-1]
        if share <= shares[0]:
            return column[0]
        # Exact ladder hits return exact kernel values; between rungs,
        # interpolate in log2(share) where makespan is near-linear.
        return float(
            np.interp(np.log2(share), np.log2(shares), np.asarray(column))
        )

    def makespan(self, share: float) -> float:
        """Solo makespan on a pool of ``share`` processors."""
        return self._interp(self.makespans, share)

    def busy(self, share: float) -> float:
        """Processor-seconds one execution holds at ``share``."""
        return self._interp(self.busy_seconds, share)

    def storage(self, share: float) -> float:
        """Storage byte-seconds of one execution at ``share``."""
        return self._interp(self.storage_byte_seconds, share)

    def parallelism(self, share: float) -> float:
        """Average processors held while running at ``share``."""
        makespan = self.makespan(share)
        return self.busy(share) / makespan if makespan > 0 else 0.0

    @property
    def saturating_share(self) -> int:
        """Smallest pool at which the makespan stops improving."""
        return self.shares[-1]


def _summary_key(
    workflow: Workflow,
    data_mode: str,
    bandwidth: float,
    extra_shares: tuple[int, ...],
) -> str:
    parts = (
        "service-class-summary",
        str(SUMMARY_VERSION),
        workflow.fingerprint(),
        data_mode,
        float(bandwidth).hex(),
        ",".join(str(s) for s in extra_shares),
    )
    return sha256("\x1e".join(parts).encode()).hexdigest()


def _probe(
    workflow: Workflow,
    shares: list[int],
    data_mode: str,
    bandwidth: float,
) -> np.ndarray:
    out = summary_batch(len(shares))
    run_fast_kernel_batch(
        workflow,
        [
            KernelConfig(
                environment=ExecutionEnvironment(
                    n_processors=p, bandwidth_bytes_per_sec=bandwidth
                ),
                data_mode=data_mode,
            )
            for p in shares
        ],
        out=out,
    )
    return out


def summarize_class(
    workflow: Workflow,
    *,
    data_mode: str = "cleanup",
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
    extra_shares: tuple[int, ...] = (),
    cache: SimCache | None = None,
) -> ClassSummary:
    """Summarize one workflow class via the fast kernel, memoized.

    ``extra_shares`` are pool sizes guaranteed to appear on the ladder
    exactly (the scale engine passes its actual pool so that class
    service times need no interpolation at the operating point).
    """
    extra = tuple(sorted({int(s) for s in extra_shares if s >= 1}))
    cache = cache if cache is not None else default_cache()
    key = _summary_key(workflow, data_mode, bandwidth_bytes_per_sec, extra)
    cached = cache.get_blob(key)
    if isinstance(cached, ClassSummary):
        return cached

    # Powers of two until the makespan flattens (exact equality: a pool
    # wider than the DAG's width replays the identical schedule).
    shares: list[int] = [1]
    while shares[-1] < MAX_SHARE:
        shares.append(shares[-1] * 2)
        if len(shares) >= 4 and shares[-1] >= 64:
            break
    rows = _probe(workflow, shares, data_mode, bandwidth_bytes_per_sec)
    while (
        rows["makespan"][-1] < rows["makespan"][-2]
        and shares[-1] < MAX_SHARE
    ):
        shares.append(shares[-1] * 2)
        more = _probe(
            workflow, shares[-1:], data_mode, bandwidth_bytes_per_sec
        )
        rows = np.concatenate([rows, more])

    ladder = sorted(set(shares) | set(extra))
    if ladder != shares:
        rows = _probe(workflow, ladder, data_mode, bandwidth_bytes_per_sec)
    mosaic = workflow.file("mosaic.fits").size_bytes if _has_mosaic(
        workflow
    ) else float(rows["bytes_out"][-1])

    summary = ClassSummary(
        name=workflow.name,
        fingerprint=workflow.fingerprint(),
        data_mode=data_mode,
        bandwidth_bytes_per_sec=float(bandwidth_bytes_per_sec),
        shares=tuple(int(s) for s in ladder),
        makespans=tuple(float(m) for m in rows["makespan"]),
        busy_seconds=tuple(float(b) for b in rows["cpu_busy_seconds"]),
        storage_byte_seconds=tuple(
            float(s) for s in rows["storage_byte_seconds"]
        ),
        compute_seconds=float(rows["compute_seconds"][-1]),
        bytes_in=float(rows["bytes_in"][-1]),
        bytes_out=float(rows["bytes_out"][-1]),
        mosaic_bytes=float(mosaic),
    )
    cache.put_blob(key, summary)
    return summary


def _has_mosaic(workflow: Workflow) -> bool:
    try:
        workflow.file("mosaic.fits")
    except (KeyError, ValueError):
        return False
    return True


def summarize_mix(
    mix,
    *,
    data_mode: str = "cleanup",
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
    extra_shares: tuple[int, ...] = (),
    cache: SimCache | None = None,
) -> tuple[ClassSummary, ...]:
    """Summaries for every workflow class of a request mix, in order."""
    return tuple(
        summarize_class(
            component.workflow,
            data_mode=data_mode,
            bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
            extra_shares=extra_shares,
            cache=cache,
        )
        for component in mix
    )
