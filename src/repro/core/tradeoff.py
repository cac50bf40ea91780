"""Cost/performance sweeps and the Pareto view of Question 1.

The paper's Figures 4-6 sweep the provisioned processor count from 1 to
128 "in a geometric progression" and plot every cost component plus the
makespan.  :func:`processor_sweep` produces those series, and every
provisioning ladder; :func:`pareto_frontier` extracts the provisioning
choices a rational user would actually pick (no other point is both
cheaper and faster) — the paper's 16-processor example for the 4°
workflow is such a compromise point.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.costs import CostBreakdown, compute_cost
from repro.core.plans import ExecutionPlan, VMOverhead, NO_OVERHEAD
from repro.core.pricing import AWS_2008, PricingModel
from repro.sim.datamanager import DataMode
from repro.sim.executor import DEFAULT_BANDWIDTH
from repro.sim.resources import check_count
from repro.sim.results import SimulationResult
from repro.workflow.analysis import max_parallelism
from repro.workflow.dag import Workflow

__all__ = [
    "SweepPoint",
    "processor_sweep",
    "geometric_processors",
    "capped_ladder",
    "pareto_frontier",
]


@dataclass(frozen=True)
class SweepPoint:
    """One provisioning choice: its plan, simulated metrics and price."""

    plan: ExecutionPlan
    result: SimulationResult
    cost: CostBreakdown

    @property
    def n_processors(self) -> int:
        return self.plan.n_processors

    @property
    def makespan(self) -> float:
        return self.result.makespan

    @property
    def total_cost(self) -> float:
        return self.cost.total


def geometric_processors(max_processors: int = 128) -> list[int]:
    """The paper's processor counts: 1, 2, 4, ... up to the maximum."""
    check_count("max_processors", max_processors)
    out = []
    p = 1
    while p <= max_processors:
        out.append(p)
        p *= 2
    return out


def capped_ladder(
    workflow: Workflow, processors: Sequence[int] | None = None
) -> list[int]:
    """The ladder (default :func:`geometric_processors`), sorted and
    deduplicated, up to ``workflow``'s maximum parallelism plus its first
    value at or above it, which already gives the full-parallelism
    makespan: more processors only add idle-processor cost."""
    ladder = sorted(set(geometric_processors() if processors is None
                        else processors))
    limit = max_parallelism(workflow)
    kept = [p for p in ladder if p < limit]
    return kept + ladder[len(kept):len(kept) + 1]


def processor_sweep(
    workflow: Workflow,
    processors: Sequence[int] | None = None,
    data_mode: DataMode | str | Sequence[DataMode | str] = DataMode.REGULAR,
    pricing: PricingModel = AWS_2008,
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
    vm_overhead: VMOverhead = NO_OVERHEAD,
) -> list[SweepPoint]:
    """Simulate and price a workflow across provisioned pool sizes.

    This is the computation behind Figures 4, 5 and 6.  ``data_mode`` may
    be a sequence of modes, swept one after the other over the ladder.
    All points are one memoized, batched :func:`repro.sweep.run_jobs` call.
    """
    # Imported here: repro.sweep imports repro.core (via repro.audit).
    from repro.sweep import SimJob, run_jobs

    modes = [data_mode] if isinstance(data_mode, (str, DataMode)) else data_mode
    plans = [
        ExecutionPlan.provisioned(p, mode, vm_overhead)
        for mode in modes
        for p in (geometric_processors() if processors is None else processors)
    ]
    results = run_jobs([
        SimJob(workflow, plan.n_processors, plan.data_mode,
               bandwidth_bytes_per_sec=bandwidth_bytes_per_sec)
        for plan in plans
    ])
    return [
        SweepPoint(plan, result, compute_cost(result, pricing, plan))
        for plan, result in zip(plans, results)
    ]


def pareto_frontier(points: list[SweepPoint]) -> list[SweepPoint]:
    """Points not dominated in (total cost, makespan), sorted by cost.

    A point dominates another when it is at least as cheap *and* at least
    as fast, and strictly better in one dimension.
    """
    ordered = sorted(points, key=lambda s: (s.total_cost, s.makespan))
    frontier: list[SweepPoint] = []
    best_makespan = float("inf")
    for pt in ordered:
        if pt.makespan < best_makespan:
            frontier.append(pt)
            best_makespan = pt.makespan
    return frontier
