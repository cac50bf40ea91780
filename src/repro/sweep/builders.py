"""Cached workflow construction for sweeps.

Workflow builds are pure functions of their arguments, but not free:
materializing the 4° Montage DAG from scratch takes ~0.04 s (2-vCPU
Xeon, Python 3.11), and CCR rescaling walks the whole file set.  The
experiment harness asks for the same few workflows over and over (every
figure, the verification pass and the benchmarks all start from the
paper's three sizes), so this module keeps them —
:func:`repro.montage.generator.montage_workflow` memoizes its own
unjittered default builds, and :func:`scaled_ccr_workflow` does the same
for the Figure 11 rescalings, keyed by the source workflow's content
fingerprint.  Jittered plates are not memoized: each is distinct, and a
whole-sky stream would otherwise keep every plate alive; whoever reuses
them (a grid plan, a campaign's plate tuple) holds them.  They are not
rebuilt from scratch either: a plate is its degree's memoized base plus
its own runtime vector (~0.004 s at 4°), and keeps that base alive
after :func:`clear_build_caches` drops it from the memo.

Cached workflows are shared instances: treat them as immutable (use
``Workflow.copy()`` before mutating).
"""

from __future__ import annotations

from repro.workflow.dag import Workflow
from repro.workflow.scaling import scale_to_ccr

__all__ = ["scaled_ccr_workflow", "clear_build_caches"]

_CCR_CACHE: dict[tuple[str, float, float], Workflow] = {}


def scaled_ccr_workflow(
    workflow: Workflow, desired_ccr: float, bandwidth: float
) -> Workflow:
    """Memoized :func:`~repro.workflow.scaling.scale_to_ccr`.

    Keyed by the source workflow's fingerprint, so structurally identical
    source workflows share their rescaled variants.
    """
    key = (workflow.fingerprint(), float(desired_ccr), float(bandwidth))
    cached = _CCR_CACHE.get(key)
    if cached is None:
        cached = scale_to_ccr(workflow, desired_ccr, bandwidth)
        _CCR_CACHE[key] = cached
    return cached


def clear_build_caches() -> None:
    """Drop every cached build (tests and benchmarks)."""
    from repro.montage import generator

    _CCR_CACHE.clear()
    generator._BUILD_CACHE.clear()
