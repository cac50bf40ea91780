"""Multi-provider execution-plan advisor.

The paper closes by predicting a market of providers with different fee
structures, giving applications "more options to consider and more
execution and provisioning plans to develop to address their computational
needs."  The advisor explores that whole space for one workflow —
(provider x data-management mode x pool size) — and recommends the
cheapest plan that meets a deadline (or the fastest within a budget).

Each (mode, pool size) combination is simulated once; the resulting
metrics are priced under every provider (simulation results are
fee-independent), so the search costs |modes| x |pool sizes| simulations
regardless of how many providers are compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costs import CostBreakdown, compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008, PricingModel
from repro.core.tradeoff import geometric_processors
from repro.sim.executor import DEFAULT_BANDWIDTH, simulate
from repro.sim.resources import check_finite
from repro.workflow.analysis import max_parallelism
from repro.workflow.dag import Workflow

__all__ = ["PlanOption", "Recommendation", "advise_plan"]

#: Data-management modes explored by default.
DEFAULT_MODES = ("regular", "cleanup", "remote-io")


@dataclass(frozen=True)
class PlanOption:
    """One point of the (provider, mode, pool) space."""

    provider: str
    plan: ExecutionPlan
    makespan: float
    cost: CostBreakdown

    @property
    def total_cost(self) -> float:
        return self.cost.total

    @property
    def n_processors(self) -> int:
        return self.plan.n_processors

    @property
    def data_mode(self) -> str:
        return self.plan.data_mode.value


@dataclass(frozen=True)
class Recommendation:
    """The advisor's answer."""

    chosen: PlanOption | None
    criterion: str
    options: list[PlanOption]

    @property
    def feasible(self) -> bool:
        return self.chosen is not None


def advise_plan(
    workflow: Workflow,
    providers: dict[str, PricingModel] | None = None,
    deadline_seconds: float | None = None,
    budget_dollars: float | None = None,
    modes: tuple[str, ...] = DEFAULT_MODES,
    processors: list[int] | None = None,
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
) -> Recommendation:
    """Explore (provider x mode x pool) and recommend a provisioned plan.

    With a deadline: cheapest feasible option.  With a budget: fastest
    affordable option.  With both: cheapest option satisfying both.  With
    neither: the overall cheapest.  ``chosen`` is None when no option
    satisfies the constraints.
    """
    if providers is None:
        providers = {AWS_2008.name: AWS_2008}
    if not providers:
        raise ValueError("need at least one provider")
    if deadline_seconds is not None:
        check_finite("deadline_seconds", deadline_seconds, positive=True)
    if budget_dollars is not None:
        check_finite("budget_dollars", budget_dollars, positive=True)
    if processors is None:
        limit = max(1, max_parallelism(workflow))
        ladder = [p for p in geometric_processors(128) if p <= limit]
        if not ladder or ladder[-1] < limit:
            ladder.append(min(limit, 128) if limit <= 128 else 128)
        processors = sorted(set(ladder))

    options: list[PlanOption] = []
    for mode in modes:
        for p in processors:
            result = simulate(
                workflow,
                p,
                mode,
                bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
                record_trace=False,
            )
            plan = ExecutionPlan.provisioned(p, mode)
            for name, pricing in providers.items():
                options.append(
                    PlanOption(
                        provider=name,
                        plan=plan,
                        makespan=result.makespan,
                        cost=compute_cost(result, pricing, plan),
                    )
                )

    feasible = [
        o
        for o in options
        if (deadline_seconds is None or o.makespan <= deadline_seconds)
        and (budget_dollars is None or o.total_cost <= budget_dollars)
    ]
    if not feasible:
        return Recommendation(
            chosen=None,
            criterion="no option satisfies the constraints",
            options=options,
        )
    if deadline_seconds is None and budget_dollars is not None:
        chosen = min(feasible, key=lambda o: (o.makespan, o.total_cost))
        criterion = f"fastest within ${budget_dollars:g}"
    else:
        chosen = min(feasible, key=lambda o: (o.total_cost, o.makespan))
        criterion = (
            "cheapest overall"
            if deadline_seconds is None
            else f"cheapest with makespan <= {deadline_seconds:g}s"
        )
        if budget_dollars is not None:
            criterion += f" and cost <= ${budget_dollars:g}"
    return Recommendation(chosen=chosen, criterion=criterion, options=options)
