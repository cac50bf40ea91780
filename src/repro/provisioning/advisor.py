"""Multi-provider execution-plan advisor.

The paper closes by predicting a market of providers with different fee
structures, giving applications "more options to consider and more
execution and provisioning plans to develop to address their computational
needs."  The advisor explores that whole space for one workflow —
(provider x data-management mode x pool size) — and recommends the
cheapest plan that meets a deadline (or the fastest within a budget).

All (mode, pool size) combinations are one
:func:`repro.core.tradeoff.processor_sweep` over the workflow's capped
ladder; each result is priced under every provider (simulation results
are fee-independent), so the search costs |modes| x |pool sizes|
simulations regardless of how many providers are compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costs import CostBreakdown, compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008, PricingModel
from repro.core.tradeoff import capped_ladder, processor_sweep
from repro.provisioning.optimizer import best_feasible
from repro.sim.executor import DEFAULT_BANDWIDTH
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

    The pools are :func:`repro.core.tradeoff.capped_ladder` of
    ``processors`` (default: the geometric ladder 1..128).  With a
    deadline: cheapest feasible option.  With a budget: fastest
    affordable option.  With both: cheapest option satisfying both.  With
    neither: the overall cheapest.  ``chosen`` is None when no option
    satisfies the constraints.
    """
    if providers is None:
        providers = {AWS_2008.name: AWS_2008}
    if not providers:
        raise ValueError("need at least one provider")
    points = processor_sweep(
        workflow,
        capped_ladder(workflow, processors),
        modes,
        bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
    )
    # Simulation results are fee-independent: reprice each per provider.
    options = [
        PlanOption(
            provider=name,
            plan=pt.plan,
            makespan=pt.makespan,
            cost=compute_cost(pt.result, pricing, pt.plan),
        )
        for pt in points
        for name, pricing in providers.items()
    ]
    chosen = best_feasible(options, deadline_seconds, budget_dollars)
    if chosen is None:
        criterion = "no option satisfies the constraints"
    elif deadline_seconds is None and budget_dollars is not None:
        criterion = f"fastest within ${budget_dollars:g}"
    else:
        criterion = (
            "cheapest overall"
            if deadline_seconds is None
            else f"cheapest with makespan <= {deadline_seconds:g}s"
        )
        if budget_dollars is not None:
            criterion += f" and cost <= ${budget_dollars:g}"
    return Recommendation(chosen=chosen, criterion=criterion, options=options)
