"""Service-level billing: the pool versus per-use accounting.

The paper prices a single request two ways — a pool held for the run
(Question 1) or charges for resources actually used (Question 2).  At the
service level both views coexist: the operator pays Amazon for the
provisioned pool over the whole period, while each request's imputed
on-demand cost says what the operator should recover from users.  The gap
between the two is idle-pool waste — the quantitative version of the
paper's "CPU utilization can be low in the provisioned case".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costs import CostBreakdown, compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008, PricingModel
from repro.service.simulator import ServiceResult
from repro.sim.resources import check_finite

__all__ = ["ServiceEconomics", "service_economics"]


@dataclass(frozen=True)
class ServiceEconomics:
    """The service's bill over one horizon, itemized.

    The pool is billed for every provisioned processor-second; misses
    are also imputed their on-demand cost, a hit pays its mosaic's
    outbound transfer and takes that transfer's time, and the result
    cache pays rent on its residency.  Response times cover every
    request; utilization is the pool's busy fraction over the run.
    """

    n_requests: int
    n_misses: int
    pool_processor_seconds: float
    #: what Amazon bills for holding the pool
    pool_cpu_cost: float
    #: summed per-miss costs under resources-used accounting
    on_demand_total: CostBreakdown
    serve_cost: float
    cache_storage_cost: float
    mean_response_time: float
    p95_response_time: float
    pool_utilization: float

    @property
    def hit_rate(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return 1.0 - self.n_misses / self.n_requests

    @property
    def total_cost(self) -> float:
        """Pool bill + data management + hit serving + cache rent."""
        return (
            self.pool_cpu_cost
            + self.on_demand_total.data_management_cost
            + self.serve_cost
            + self.cache_storage_cost
        )

    @property
    def cost_per_request(self) -> float:
        """Operator's cost per request when paying for the pool."""
        if self.n_requests == 0:
            return 0.0
        return self.total_cost / self.n_requests

    @property
    def cost_per_request_on_demand(self) -> float:
        """Imputed per-miss cost under resources-used accounting."""
        if self.n_misses == 0:
            return 0.0
        return self.on_demand_total.total / self.n_misses

    @property
    def idle_waste(self) -> float:
        """Pool dollars spent on processors nobody was using."""
        return self.pool_cpu_cost - self.on_demand_total.cpu_cost


def service_economics(
    result: ServiceResult,
    pricing: PricingModel = AWS_2008,
    period_seconds: float | None = None,
) -> ServiceEconomics:
    """Price one event-simulated service run (every request a miss).

    ``period_seconds`` is the provisioning period the pool was rented for;
    it defaults to the simulated horizon (last request completion) and
    must cover it.
    """
    horizon = result.horizon
    if period_seconds is None:
        period_seconds = horizon
    else:
        check_finite("period_seconds", period_seconds, positive=True)
    if period_seconds < horizon:
        raise ValueError(
            f"period {period_seconds} shorter than the simulated horizon "
            f"{horizon}"
        )
    plan = ExecutionPlan.on_demand(
        result.n_processors, result.data_mode
    )
    totals = CostBreakdown(0.0, 0.0, 0.0, 0.0)
    for outcome in result.outcomes:
        totals = totals + compute_cost(outcome.result, pricing, plan)
    pool_seconds = result.n_processors * period_seconds
    return ServiceEconomics(
        n_requests=result.n_requests,
        n_misses=result.n_requests,
        pool_processor_seconds=pool_seconds,
        pool_cpu_cost=pricing.cpu_cost(
            pool_seconds, n_instances=result.n_processors
        ),
        on_demand_total=totals,
        serve_cost=0.0,
        cache_storage_cost=0.0,
        mean_response_time=result.mean_response_time(),
        p95_response_time=result.percentile_response_time(95.0),
        pool_utilization=result.pool_utilization(),
    )
