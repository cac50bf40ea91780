"""Cloud bursting: local resources first, cloud for the overflow.

The paper's Question 1 premise: "an application has a set of resources
available to them but sometimes it needs more resources than it has, so it
reaches out to the cloud from time to time to meet the additional
demands."  This module makes that decision per request:

* requests are examined in arrival order against the *local* cluster's
  projected backlog (a conservative work-queue estimate: queued compute
  seconds / local pool width);
* a request whose estimated local wait would break the response-time
  objective is *burst*: it runs on its own freshly provisioned cloud
  allocation (the paper's Question-1 plan), paying the provisioned price;
* everything else runs locally at zero marginal cost.

The interesting output is the trade-off: the smaller the owned cluster,
the more requests burst and the higher the cloud bill — quantifying how
much local hardware a given workload justifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costs import CostBreakdown, compute_cost
from repro.core.estimate import estimate_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008, PricingModel
from repro.service.arrivals import ServiceRequest
from repro.service.simulator import RequestOutcome, ServiceSimulator
from repro.sim.datamanager import DataMode
from repro.sim.executor import simulate
from repro.sim.resources import check_finite

__all__ = ["BurstDecision", "BurstingOutcome", "simulate_bursting"]


@dataclass(frozen=True)
class BurstDecision:
    """Routing decision for one request."""

    request_id: str
    burst: bool
    estimated_local_wait: float


@dataclass
class BurstingOutcome:
    """The whole bursting episode, priced."""

    objective_seconds: float
    local_processors: int
    cloud_processors_per_burst: int
    decisions: list[BurstDecision]
    local_outcomes: list[RequestOutcome]
    cloud_outcomes: list[RequestOutcome]
    cloud_cost: CostBreakdown
    _local_response_cache: list[float] = field(default_factory=list)

    @property
    def n_burst(self) -> int:
        return sum(1 for d in self.decisions if d.burst)

    @property
    def n_local(self) -> int:
        return len(self.decisions) - self.n_burst

    def response_times(self) -> list[float]:
        return sorted(
            o.response_time
            for o in (*self.local_outcomes, *self.cloud_outcomes)
        )

    def max_response_time(self) -> float:
        times = self.response_times()
        return times[-1] if times else 0.0


def simulate_bursting(
    requests: list[ServiceRequest],
    local_processors: int,
    objective_seconds: float,
    cloud_processors_per_burst: int = 16,
    data_mode: DataMode | str = DataMode.CLEANUP,
    pricing: PricingModel = AWS_2008,
) -> BurstingOutcome:
    """Route a request stream across a local cluster and the cloud.

    The burst predicate uses the analytic estimator: a request bursts when
    its projected local wait (queued local compute divided by the local
    width) plus its own estimated local makespan exceeds the objective.
    Burst requests are simulated on dedicated ``cloud_processors_per_burst``
    pools and priced at the provisioned rate; local requests share the
    owned cluster for free.
    """
    if local_processors < 1:
        raise ValueError("need at least one local processor")
    check_finite("objective_seconds", objective_seconds, positive=True)
    mode = DataMode(data_mode) if isinstance(data_mode, str) else data_mode

    decisions: list[BurstDecision] = []
    local_requests: list[ServiceRequest] = []
    cloud_requests: list[ServiceRequest] = []
    #: projected time at which the local cluster drains its queue
    local_drain = 0.0
    for request in sorted(requests, key=lambda r: r.arrival_time):
        plan = ExecutionPlan.provisioned(local_processors, mode)
        own_makespan = estimate_cost(
            request.workflow, plan, pricing
        ).makespan_estimate
        wait = max(0.0, local_drain - request.arrival_time)
        burst = wait + own_makespan > objective_seconds
        decisions.append(
            BurstDecision(request.request_id, burst, estimated_local_wait=wait)
        )
        if burst:
            cloud_requests.append(request)
        else:
            local_requests.append(request)
            # The cluster absorbs this request's compute after the queue.
            busy_from = max(local_drain, request.arrival_time)
            local_drain = busy_from + (
                request.workflow.total_runtime() / local_processors
            )

    # Local share: one shared pool of the owned size.
    local_result = ServiceSimulator(local_processors, mode).run(
        local_requests
    )

    # Cloud bursts: dedicated provisioned allocations, one per request.
    cloud_outcomes: list[RequestOutcome] = []
    cloud_cost = CostBreakdown(0.0, 0.0, 0.0, 0.0)
    for request in cloud_requests:
        result = simulate(
            request.workflow,
            cloud_processors_per_burst,
            mode,
            record_trace=False,
        )
        plan = ExecutionPlan.provisioned(cloud_processors_per_burst, mode)
        cloud_cost = cloud_cost + compute_cost(result, pricing, plan)
        cloud_outcomes.append(
            RequestOutcome(
                request=request,
                result=result,
                finished_at=request.arrival_time + result.makespan,
            )
        )

    return BurstingOutcome(
        objective_seconds=objective_seconds,
        local_processors=local_processors,
        cloud_processors_per_burst=cloud_processors_per_burst,
        decisions=decisions,
        local_outcomes=local_result.outcomes,
        cloud_outcomes=cloud_outcomes,
        cloud_cost=cloud_cost,
    )
