"""Enumerating provisioning candidates for a workflow.

A candidate is a provisioned pool size together with its simulated
makespan and priced cost, a :class:`repro.core.tradeoff.SweepPoint`.
Candidates come from the paper's geometric ladder 1..128 (or the
caller's), cut by :func:`repro.core.tradeoff.capped_ladder` at the
workflow's maximum useful parallelism: provisioning more processors than
the workflow can ever use only adds idle-processor cost.
"""

from __future__ import annotations

from repro.core.plans import VMOverhead, NO_OVERHEAD
from repro.core.pricing import AWS_2008, PricingModel
from repro.core.tradeoff import SweepPoint, capped_ladder, processor_sweep
from repro.sim.datamanager import DataMode
from repro.sim.executor import DEFAULT_BANDWIDTH
from repro.workflow.dag import Workflow

__all__ = ["candidate_plans"]


def candidate_plans(
    workflow: Workflow,
    processors: list[int] | None = None,
    data_mode: DataMode | str = DataMode.REGULAR,
    pricing: PricingModel = AWS_2008,
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
    vm_overhead: VMOverhead = NO_OVERHEAD,
) -> list[SweepPoint]:
    """Simulate and price the workflow's capped ladder of pool sizes.

    The ladder keeps its pool sizes below the workflow's maximum
    parallelism plus the first one at or above it (which realizes the
    full-parallelism makespan); an uncapped ladder is
    :func:`repro.core.tradeoff.processor_sweep`.
    """
    return processor_sweep(
        workflow,
        capped_ladder(workflow, processors),
        data_mode,
        pricing,
        bandwidth_bytes_per_sec,
        vm_overhead,
    )
