"""Analytic (simulation-free) cost and makespan estimates.

Most of the paper's quantities are determined by workflow structure and
rates alone; this module computes them in closed form so that a user can
price a provisioning plan in microseconds instead of running the
simulator:

* **transfer fees** — exact, from the static data-flow analysis
  (:func:`repro.workflow.dataflow.predict_transfers`);
* **on-demand CPU fee** — exact: Σ task runtimes × rate;
* **makespan** — bounded by Graham's list-scheduling bound:
  ``max(CP, W/P) <= makespan <= CP + (W - CP)/P`` (compute only); our
  estimate adds the unavoidable transfer lead-in (the largest input file
  must arrive before the last first-level task can start) and the
  stage-out tail (net outputs leave after the final task);
* **storage fee** — bracketed, not pinned: occupancy depends on the
  schedule, so we return a conservative upper bound (the full footprint
  resident for the whole estimated makespan, which for Regular mode is
  within ~2x) and use half of it as the point estimate.  Storage is three
  orders of magnitude below the other fees at Amazon's rates (the paper's
  own observation), so this slack is immaterial to totals.

The estimator-accuracy benchmark quantifies all of this against the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costs import CostBreakdown
from repro.core.plans import ExecutionPlan, ProvisioningMode
from repro.core.pricing import AWS_2008, PricingModel
from repro.sim.executor import DEFAULT_BANDWIDTH
from repro.sim.resources import check_bandwidth, processor_count
from repro.workflow.analysis import critical_path_length
from repro.workflow.dag import Workflow
from repro.workflow.dataflow import predict_transfers

__all__ = ["CostEstimate", "estimate_cost", "makespan_bounds"]


def makespan_bounds(
    workflow: Workflow,
    n_processors: int,
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
) -> tuple[float, float]:
    """(lower, upper) bounds on the regular-mode makespan.

    Lower: compute bound ``max(CP, W/P)`` plus the earliest possible data
    arrival — no task can start before the first root's own inputs land
    (each initial input transfers at full bandwidth from t = 0).  Upper:
    every input has landed after the *largest* input's transfer time;
    list scheduling then obeys Graham's bound, and the net outputs drain
    within their summed transfer time (a sum is conservative for both the
    dedicated and the contended link models).
    """
    processor_count(n_processors)
    check_bandwidth(bandwidth_bytes_per_sec)
    work = workflow.total_runtime()
    cp = critical_path_length(workflow)

    def arrival(task_id: str) -> float:
        task = workflow.task(task_id)
        return max(
            (workflow.file(f).size_bytes for f in task.inputs),
            default=0.0,
        ) / bandwidth_bytes_per_sec

    roots = workflow.roots()
    earliest_start = min((arrival(t) for t in roots), default=0.0)
    lead_in = (
        max(
            (workflow.file(f).size_bytes for f in workflow.input_files()),
            default=0.0,
        )
        / bandwidth_bytes_per_sec
    )
    out_tail = workflow.output_bytes() / bandwidth_bytes_per_sec
    lower = earliest_start + max(cp, work / n_processors)
    upper = lead_in + cp + (work - cp) / n_processors + out_tail
    return lower, upper


@dataclass(frozen=True)
class CostEstimate:
    """Closed-form estimate of one execution plan's price."""

    plan: ExecutionPlan
    makespan_lower: float
    makespan_upper: float
    makespan_estimate: float
    cost: CostBreakdown
    #: conservative ceiling on the storage component alone
    storage_cost_upper_bound: float

    @property
    def total(self) -> float:
        return self.cost.total


def estimate_cost(
    workflow: Workflow,
    plan: ExecutionPlan,
    pricing: PricingModel = AWS_2008,
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
) -> CostEstimate:
    """Price an execution plan without simulating it.

    Transfer and on-demand CPU components are exact; the provisioned CPU
    component uses the midpoint of the makespan bounds; storage uses half
    its footprint-x-makespan ceiling.
    """
    lower, upper = makespan_bounds(
        workflow, plan.n_processors, bandwidth_bytes_per_sec
    )
    makespan = 0.5 * (lower + upper)
    transfers = predict_transfers(workflow, plan.data_mode)
    if plan.provisioning is ProvisioningMode.PROVISIONED:
        held = plan.n_processors * (
            makespan + plan.vm_overhead.total_seconds
        )
        cpu = pricing.cpu_cost(held, n_instances=plan.n_processors)
        vm_fixed = plan.vm_overhead.fixed_cost_per_vm * plan.n_processors
    else:
        cpu = pricing.cpu_cost(workflow.total_runtime())
        vm_fixed = 0.0
    storage_upper = pricing.storage_cost(
        workflow.total_file_bytes() * upper
    )
    return CostEstimate(
        plan=plan,
        makespan_lower=lower,
        makespan_upper=upper,
        makespan_estimate=makespan,
        cost=CostBreakdown(
            cpu_cost=cpu,
            storage_cost=0.5 * storage_upper,
            transfer_in_cost=pricing.transfer_in_cost(transfers.bytes_in),
            transfer_out_cost=pricing.transfer_out_cost(transfers.bytes_out),
            vm_fixed_cost=vm_fixed,
        ),
        storage_cost_upper_bound=storage_upper,
    )
