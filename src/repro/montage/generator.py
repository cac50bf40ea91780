"""Montage workflow generator.

Materializes the Montage DAG of Figure 1 of the paper from a calibrated
:class:`~repro.montage.profiles.MontageProfile`:

* level 1 — ``mProject`` × N: reproject each input image (reads the raw
  survey image and the shared template header; writes the projected image
  and its area/weight file);
* level 2 — ``mDiffFit`` × M: fit a background-difference plane to each
  overlapping pair of projected images (writes a small fit record);
* level 3 — ``mConcatFit``: concatenate all fit records into one table;
* level 4 — ``mBgModel``: solve for per-image background corrections;
* level 5 — ``mBackground`` × N: apply its correction to each projected
  image (writes the corrected image and area file);
* level 6 — ``mImgtbl``: build the metadata table over corrected images;
* level 7 — ``mAdd``: co-add everything into the final mosaic;
* level 8 — ``mShrink``: produce the shrunken preview mosaic.

Net outputs staged back to the user are the mosaic and its preview, and the
total staged-out volume is dominated by the mosaic — 173.46 MB / 557.9 MB /
2.229 GB for the paper's three sizes.

An optional deterministic runtime ``jitter`` perturbs individual task
runtimes (log-uniform, seeded) while renormalizing so the workflow's
*total* runtime — and hence its CPU cost — is unchanged; the calibration
targets stay exact while schedules become less synchronized.
"""

from __future__ import annotations

import math

import numpy as np

from repro.montage.profiles import (
    CONCAT_TABLE_BYTES,
    CORRECTIONS_TABLE_BYTES,
    FIT_FILE_BYTES,
    IMAGE_TABLE_BYTES,
    SHRUNKEN_FRACTION,
    TEMPLATE_HEADER_BYTES,
    MontageProfile,
    profile_for_degree,
)
from repro.montage.tiles import build_tile_grid
from repro.workflow.dag import FileSpec, Task, Workflow

__all__ = [
    "montage_workflow",
    "montage_1_degree",
    "montage_2_degree",
    "montage_4_degree",
]

def _jittered_runtimes(
    calibrated: np.ndarray, jitter: float, seed: int
) -> np.ndarray:
    """Per-task runtimes from the ``calibrated`` vector, optionally
    perturbed but sum-preserving.

    With ``jitter == 0`` every task keeps its calibrated type runtime.
    With ``jitter > 0`` each runtime is multiplied by ``exp(U(-jitter,
    jitter))`` and the whole vector rescaled so the total equals the
    calibrated total exactly (keeping CPU cost pinned to the paper).
    """
    if jitter == 0.0:
        return calibrated
    rng = np.random.default_rng(seed)
    perturbed = calibrated * np.exp(
        rng.uniform(-jitter, jitter, size=calibrated.size)
    )
    return perturbed * (calibrated.sum() / perturbed.sum())


#: Memoized unjittered default builds (no profile override, ``jitter ==
#: 0``), keyed by degree and name — the paper's few shared workflows,
#: which the experiment harness asks for 10+ times per report.  Callers
#: get a shared instance and must treat it as immutable (``.copy()``
#: before mutating).  Jittered plates are never memoized: each one is
#: distinct by construction, so a memo would only pin every plate of a
#: streamed sky pass in memory; callers that reuse them hold them.  A
#: plate does keep its degree's ``(degree, None)`` base alive, since it
#: shares that base's files and topology.
_BUILD_CACHE: dict[tuple[float, str | None], Workflow] = {}


def _memoized_build(degree: float, name: str | None) -> Workflow:
    key = (float(degree), name)
    cached = _BUILD_CACHE.get(key)
    if cached is None:
        cached = _build_montage_workflow(degree, None, 0.0, 0, name)
        _BUILD_CACHE[key] = cached
    return cached


def montage_workflow(
    degree: float = 1.0,
    profile: MontageProfile | None = None,
    jitter: float = 0.0,
    seed: int = 0,
    name: str | None = None,
) -> Workflow:
    """Build a Montage workflow for a mosaic of ``degree`` square degrees.

    Unjittered calls without a ``profile`` override are memoized: the
    same ``degree`` and ``name`` return the *same* (shared, fully built
    and validated) ``Workflow`` instance.  Copy it before mutating.

    Jitter changes task runtimes only — task ids, files, sizes and edges
    are those of the unjittered build — so a jittered call without a
    ``profile`` is derived from the memoized unjittered base of its
    degree: the plate shares the base's file set, consumer table
    (copy-on-write) and topology, its tasks are trusted copies of the
    base's with the new runtimes, and the fast kernel derives its
    lowering from the base's, so it costs about its own runtime vector.
    The result equals a from-scratch build (same tasks, files and
    :meth:`~repro.workflow.dag.Workflow.fingerprint`) and is a fresh
    instance that no mutation of the base can reach.  On a 2-vCPU Xeon
    a 4° plate builds in ~0.004 s this way against ~0.04 s from scratch
    (the ``profile`` override path, and each degree's first base
    build).  A
    jittered plate lives only as long as its caller holds it —
    :class:`~repro.grid.GridPlan`,
    :func:`~repro.montage.campaign.campaign_plates` and a streamed sky
    pass each keep exactly the plates they use.

    Parameters
    ----------
    degree:
        Mosaic size; 1.0, 2.0 and 4.0 reproduce the paper's workflows with
        exactly 203, 731 and 3,027 tasks.
    profile:
        Override the calibrated profile (for sensitivity studies).
    jitter, seed:
        Deterministic, total-preserving runtime perturbation (see module
        docstring).  ``jitter`` must be finite and non-negative;
        ``seed`` has no effect when ``jitter == 0``.
    """
    if not (math.isfinite(jitter) and jitter >= 0.0):
        raise ValueError(
            f"jitter must be finite and non-negative, got {jitter}"
        )
    if profile is not None:
        return _build_montage_workflow(degree, profile, jitter, seed, name)
    if jitter == 0.0:
        return _memoized_build(degree, name)
    base = _memoized_build(degree, None)
    # The unjittered base carries the calibrated vector as its runtimes.
    calibrated = np.fromiter(
        (t.runtime for t in base.tasks.values()), float, len(base)
    )
    runtimes = _jittered_runtimes(calibrated, jitter, seed)
    return base._with_runtimes(runtimes.tolist(), name or base.name)


def _build_montage_workflow(
    degree: float,
    profile: MontageProfile | None,
    jitter: float,
    seed: int,
    name: str | None,
) -> Workflow:
    prof = profile or profile_for_degree(degree)
    grid = build_tile_grid(prof.n_images, prof.n_overlaps)
    wf = Workflow(name or f"montage-{prof.degree:g}deg")

    n = prof.n_images
    img = prof.image_bytes
    # Each per-image / per-fit file name is formatted once and reused by
    # its file spec and every task that reads or writes it.
    raw = [f"raw_{i:04d}.fits" for i in range(n)]
    proj = [f"proj_{i:04d}.fits" for i in range(n)]
    proj_area = [f"proj_{i:04d}_area.fits" for i in range(n)]
    corr = [f"corr_{i:04d}.fits" for i in range(n)]
    corr_area = [f"corr_{i:04d}_area.fits" for i in range(n)]
    fits = [f"fit_{k:05d}.txt" for k in range(grid.n_overlaps)]

    # ---------------------------------------------------------------- files
    wf.add_file(FileSpec("template.hdr", TEMPLATE_HEADER_BYTES))
    for i in range(n):
        wf.add_file(FileSpec(raw[i], img))
        wf.add_file(FileSpec(proj[i], img))
        wf.add_file(FileSpec(proj_area[i], img))
        wf.add_file(FileSpec(corr[i], img))
        wf.add_file(FileSpec(corr_area[i], img))
    for fit in fits:
        wf.add_file(FileSpec(fit, FIT_FILE_BYTES))
    wf.add_file(FileSpec("fits.tbl", CONCAT_TABLE_BYTES))
    wf.add_file(FileSpec("corrections.tbl", CORRECTIONS_TABLE_BYTES))
    wf.add_file(FileSpec("images.tbl", IMAGE_TABLE_BYTES))
    wf.add_file(FileSpec("mosaic.fits", prof.mosaic_bytes))
    wf.add_file(
        FileSpec("mosaic_small.fits", prof.mosaic_bytes * SHRUNKEN_FRACTION)
    )

    # ---------------------------------------------------------------- tasks
    transformations: list[str] = (
        ["mProject"] * n
        + ["mDiffFit"] * grid.n_overlaps
        + ["mConcatFit", "mBgModel"]
        + ["mBackground"] * n
        + ["mImgtbl", "mAdd", "mShrink"]
    )
    calibrated = np.array([prof.runtime(t) for t in transformations])
    runtimes = _jittered_runtimes(calibrated, jitter, seed)
    runtime_iter = iter(runtimes.tolist())

    for i in range(n):
        wf.add_task(
            Task(
                task_id=f"mProject_{i:04d}",
                runtime=next(runtime_iter),
                inputs=(raw[i], "template.hdr"),
                outputs=(proj[i], proj_area[i]),
                transformation="mProject",
            )
        )
    for k, (a, b) in enumerate(grid.overlaps):
        wf.add_task(
            Task(
                task_id=f"mDiffFit_{k:05d}",
                runtime=next(runtime_iter),
                inputs=(proj[a], proj[b]),
                outputs=(fits[k],),
                transformation="mDiffFit",
            )
        )
    wf.add_task(
        Task(
            task_id="mConcatFit",
            runtime=next(runtime_iter),
            inputs=tuple(fits),
            outputs=("fits.tbl",),
            transformation="mConcatFit",
        )
    )
    wf.add_task(
        Task(
            task_id="mBgModel",
            runtime=next(runtime_iter),
            inputs=("fits.tbl",),
            outputs=("corrections.tbl",),
            transformation="mBgModel",
        )
    )
    for i in range(n):
        wf.add_task(
            Task(
                task_id=f"mBackground_{i:04d}",
                runtime=next(runtime_iter),
                inputs=(proj[i], proj_area[i], "corrections.tbl"),
                outputs=(corr[i], corr_area[i]),
                transformation="mBackground",
            )
        )
    wf.add_task(
        Task(
            task_id="mImgtbl",
            runtime=next(runtime_iter),
            inputs=tuple(corr),
            outputs=("images.tbl",),
            transformation="mImgtbl",
        )
    )
    wf.add_task(
        Task(
            task_id="mAdd",
            runtime=next(runtime_iter),
            inputs=("images.tbl", *corr, *corr_area),
            outputs=("mosaic.fits",),
            transformation="mAdd",
        )
    )
    wf.add_task(
        Task(
            task_id="mShrink",
            runtime=next(runtime_iter),
            inputs=("mosaic.fits",),
            outputs=("mosaic_small.fits",),
            transformation="mShrink",
        )
    )
    wf.mark_output("mosaic.fits")  # consumed by mShrink but still the product
    wf.validate()
    return wf


def montage_1_degree(**kwargs) -> Workflow:
    """The paper's Montage 1° workflow (203 tasks, M17 region)."""
    return montage_workflow(1.0, **kwargs)


def montage_2_degree(**kwargs) -> Workflow:
    """The paper's Montage 2° workflow (731 tasks)."""
    return montage_workflow(2.0, **kwargs)


def montage_4_degree(**kwargs) -> Workflow:
    """The paper's Montage 4° workflow (3,027 tasks)."""
    return montage_workflow(4.0, **kwargs)
