"""Choosing a provisioning plan under deadline / budget constraints.

These selectors operate on the candidate lists produced by
:func:`repro.provisioning.provisioner.candidate_plans` and formalize the
compromise the paper makes by hand ("if the application provisions 16
processors ... the turnaround time for each will be approximately 5.5
hours with a cost of $9.25").  :func:`best_feasible` is the one
deadline/budget choice; the advisor and both best-effort selectors make
it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.tradeoff import SweepPoint
from repro.sim.resources import check_finite

__all__ = [
    "ProvisioningDecision",
    "best_feasible",
    "cheapest_within_deadline",
    "fastest_within_budget",
    "best_weighted",
]


@dataclass(frozen=True)
class ProvisioningDecision:
    """A chosen candidate plus why it was chosen."""

    chosen: SweepPoint
    criterion: str
    feasible: bool

    @property
    def n_processors(self) -> int:
        return self.chosen.n_processors


def _require_candidates(candidates: list[SweepPoint]) -> None:
    if not candidates:
        raise ValueError("no provisioning candidates supplied")


def _cheapest(options: Sequence[SweepPoint]) -> SweepPoint:
    return min(options, key=lambda o: (o.total_cost, o.makespan))


def _fastest(options: Sequence[SweepPoint]) -> SweepPoint:
    return min(options, key=lambda o: (o.makespan, o.total_cost))


def best_feasible(
    options: Sequence[SweepPoint],
    deadline_seconds: float | None = None,
    budget_dollars: float | None = None,
) -> SweepPoint | None:
    """The option within both limits that is cheapest (fastest with only a
    budget), or ``None``; any option with a ``makespan`` and a
    ``total_cost`` will do, such as the advisor's ``PlanOption``."""
    if deadline_seconds is not None:
        check_finite("deadline_seconds", deadline_seconds, positive=True)
    if budget_dollars is not None:
        check_finite("budget_dollars", budget_dollars, positive=True)
    feasible = [
        o
        for o in options
        if (deadline_seconds is None or o.makespan <= deadline_seconds)
        and (budget_dollars is None or o.total_cost <= budget_dollars)
    ]
    if not feasible:
        return None
    if deadline_seconds is None and budget_dollars is not None:
        return _fastest(feasible)
    return _cheapest(feasible)


def cheapest_within_deadline(
    candidates: list[SweepPoint], deadline_seconds: float
) -> ProvisioningDecision:
    """Cheapest plan whose makespan meets the deadline.

    If no plan meets the deadline, returns the fastest plan with
    ``feasible=False`` (best effort).
    """
    _require_candidates(candidates)
    chosen = best_feasible(candidates, deadline_seconds=deadline_seconds)
    if chosen is not None:
        return ProvisioningDecision(
            chosen, f"cheapest with makespan <= {deadline_seconds:g}s", True
        )
    return ProvisioningDecision(
        _fastest(candidates),
        f"deadline {deadline_seconds:g}s infeasible; fastest",
        False,
    )


def fastest_within_budget(
    candidates: list[SweepPoint], budget_dollars: float
) -> ProvisioningDecision:
    """Fastest plan whose total cost fits the budget.

    If nothing fits, returns the cheapest plan with ``feasible=False``.
    """
    _require_candidates(candidates)
    chosen = best_feasible(candidates, budget_dollars=budget_dollars)
    if chosen is not None:
        return ProvisioningDecision(
            chosen, f"fastest with cost <= ${budget_dollars:g}", True
        )
    return ProvisioningDecision(
        _cheapest(candidates),
        f"budget ${budget_dollars:g} infeasible; cheapest",
        False,
    )


def best_weighted(
    candidates: list[SweepPoint],
    cost_weight: float = 0.5,
) -> ProvisioningDecision:
    """Minimize a normalized blend of cost and makespan.

    Both dimensions are scaled by their minimum over the candidate set, so
    the score is dimensionless: ``w * cost/cost_min + (1-w) * time/time_min``.
    ``cost_weight=1`` reduces to cheapest; ``0`` to fastest.
    """
    _require_candidates(candidates)
    check_finite("cost_weight", cost_weight)
    if cost_weight > 1.0:
        raise ValueError(f"cost_weight must be in [0, 1], got {cost_weight}")
    cost_min = min(c.total_cost for c in candidates)
    time_min = min(c.makespan for c in candidates)

    def score(c: SweepPoint) -> float:
        cost_term = c.total_cost / cost_min if cost_min > 0 else 0.0
        time_term = c.makespan / time_min if time_min > 0 else 0.0
        return cost_weight * cost_term + (1.0 - cost_weight) * time_term

    chosen = min(candidates, key=lambda c: (score(c), c.total_cost))
    return ProvisioningDecision(
        chosen, f"weighted cost/time blend (w={cost_weight:g})", True
    )
