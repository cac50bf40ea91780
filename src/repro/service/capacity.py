"""Pool sizing for the mosaic service.

Given a request stream and a response-time objective, find the smallest
shared pool that meets it, by simulation: double the pool until the
objective holds, then binary-search the boundary.  The returned plan
carries the economics of the chosen size and of the candidates examined,
so the operator sees the cost of tightening the SLA.

Two planners share that one search and its :class:`CapacityPlan`:
:func:`plan_capacity` runs each candidate through the event-based
simulator (exact, thousands of requests), and
:func:`plan_capacity_at_scale` runs each candidate through the fluid
engine (approximate, millions of requests in seconds) — the full-scale
sizing the paper's Question-2 service actually needs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.pricing import AWS_2008, PricingModel
from repro.service.arrivals import ServiceRequest
from repro.service.economics import ServiceEconomics, service_economics
from repro.service.simulator import ServiceResult, ServiceSimulator
from repro.sim.datamanager import DataMode
from repro.sim.resources import check_count, check_finite

__all__ = [
    "CandidateOutcome",
    "CapacityPlan",
    "plan_capacity",
    "plan_capacity_at_scale",
]


@dataclass(frozen=True)
class CandidateOutcome:
    """One examined pool size: the p95 response its objective tests
    (the miss path's at scale) and its bill."""

    n_processors: int
    meets_objective: bool
    p95_response_time: float
    economics: ServiceEconomics


@dataclass(frozen=True)
class CapacityPlan:
    """The sizing decision and every candidate examined on the way."""

    objective_p95_seconds: float
    chosen: CandidateOutcome | None
    candidates: list[CandidateOutcome]

    @property
    def feasible(self) -> bool:
        return self.chosen is not None

    @property
    def n_processors(self) -> int:
        if self.chosen is None:
            raise ValueError("objective infeasible within the search cap")
        return self.chosen.n_processors


def _search(
    evaluate: Callable[[int], CandidateOutcome], max_processors: int
) -> tuple[CandidateOutcome | None, list[CandidateOutcome]]:
    """Smallest pool whose candidate meets the objective, and every
    candidate examined on the way, sorted by pool size.

    Doubles the pool until the objective holds, then bisects the
    boundary; each pool size is evaluated at most once.
    """
    check_count("max_processors", max_processors)
    examined: dict[int, CandidateOutcome] = {}

    def meets(p: int) -> bool:
        if p not in examined:
            examined[p] = evaluate(p)
        return examined[p].meets_objective

    p = 1
    while p <= max_processors and not meets(p):
        p *= 2
    chosen = None
    if p <= max_processors:
        # Bisect (p/2, p]: lo failed (or is 0), hi met.
        lo, hi = p // 2, p
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if meets(mid):
                hi = mid
            else:
                lo = mid
        chosen = examined[hi]
    return chosen, sorted(examined.values(), key=lambda c: c.n_processors)


def plan_capacity(
    requests: list[ServiceRequest],
    objective_p95_seconds: float,
    data_mode: DataMode | str = DataMode.CLEANUP,
    pricing: PricingModel = AWS_2008,
    max_processors: int = 4096,
    period_seconds: float | None = None,
) -> CapacityPlan:
    """Smallest pool whose 95th-percentile response meets the objective.

    The p95 response time is monotone non-increasing in pool size for a
    fixed FCFS request stream (more processors never delay anyone), which
    justifies the doubling + binary search.
    """
    check_finite("objective_p95_seconds", objective_p95_seconds, positive=True)
    if not requests:
        raise ValueError("no requests supplied")

    def evaluate(p: int) -> CandidateOutcome:
        result: ServiceResult = ServiceSimulator(p, data_mode=data_mode).run(
            requests
        )
        p95 = result.percentile_response_time(95.0)
        # An undersized pool builds a backlog past the nominal rental
        # period; the pool must then be held until the work drains.
        period = (
            max(period_seconds, result.horizon)
            if period_seconds is not None
            else None
        )
        return CandidateOutcome(
            n_processors=p,
            meets_objective=p95 <= objective_p95_seconds,
            p95_response_time=p95,
            economics=service_economics(result, pricing, period_seconds=period),
        )

    return CapacityPlan(
        objective_p95_seconds, *_search(evaluate, max_processors)
    )


def plan_capacity_at_scale(
    sample,
    objective_p95_seconds: float,
    *,
    pricing: PricingModel = AWS_2008,
    max_processors: int = 65_536,
    epoch_seconds: float = 3600.0,
    cache=None,
) -> CapacityPlan:
    """Smallest pool meeting a p95 objective on the *miss* path, at scale.

    ``sample`` is a :class:`~repro.service.scale.TrafficSample` — the
    full-scale request stream with its cache verdicts.  Each candidate
    pool runs through the fluid engine (so 10⁶-request candidates cost
    ~100 ms each, not hours), and the objective applies to the 95th
    percentile of cache-miss response times: the generated-mosaic path
    whose latency provisioning actually controls (hits are a transfer,
    indifferent to the pool).  The same search as :func:`plan_capacity`
    picks the pool.
    """
    from repro.service.scale import FluidServiceEngine

    check_finite("objective_p95_seconds", objective_p95_seconds, positive=True)
    if sample.n_requests == 0:
        raise ValueError("empty traffic sample")

    def evaluate(p: int) -> CandidateOutcome:
        engine = FluidServiceEngine(
            p, epoch_seconds=epoch_seconds, pricing=pricing, cache=cache
        )
        result = engine.run(sample)
        p95_miss = result.miss_percentile_response_time(95.0)
        return CandidateOutcome(
            n_processors=p,
            meets_objective=p95_miss <= objective_p95_seconds,
            p95_response_time=p95_miss,
            economics=result.economics,
        )

    return CapacityPlan(
        objective_p95_seconds, *_search(evaluate, max_processors)
    )
