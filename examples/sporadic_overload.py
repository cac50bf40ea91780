"""Question 1 scenario: burst to the cloud for an overload of requests.

The Montage service normally runs on local resources but occasionally
receives more mosaic requests than it can absorb (the paper's Question 1).
For an incoming 4-degree request we enumerate provisioning candidates
(P = 1..128 as in Figure 6), show the cost/time trade-off and the Pareto
frontier, and let the optimizer pick plans for a deadline-driven user and
a budget-driven one — recovering the paper's hand-picked 16-processor
compromise (~5.5 h at ~$9.25).

Run:  python examples/sporadic_overload.py
"""

from repro.core import pareto_frontier
from repro.montage import montage_4_degree
from repro.provisioning import (
    candidate_plans,
    cheapest_within_deadline,
    fastest_within_budget,
)
from repro.util import HOUR, format_duration, format_money


def main() -> None:
    workflow = montage_4_degree()
    print(f"Incoming overload request: {workflow.name} "
          f"({len(workflow)} tasks)\n")

    candidates = candidate_plans(workflow)
    print("Provisioning candidates (regular mode, Amazon 2008 rates):")
    print(f"  {'procs':>5}  {'time':>9}  {'total cost':>10}  "
          f"{'utilization':>11}")
    for cand in candidates:
        print(
            f"  {cand.n_processors:>5}  "
            f"{format_duration(cand.makespan):>9}  "
            f"{format_money(cand.total_cost):>10}  "
            f"{cand.result.utilization:>10.0%}"
        )

    frontier = pareto_frontier(candidates)
    print("\nPareto-efficient pool sizes: "
          + ", ".join(str(p.n_processors) for p in frontier))

    deadline = 6.0 * HOUR
    decision = cheapest_within_deadline(candidates, deadline)
    print(f"\nDeadline user (must finish within {format_duration(deadline)}):")
    print(f"  -> provision {decision.n_processors} processors: "
          f"{format_duration(decision.chosen.makespan)} for "
          f"{format_money(decision.chosen.total_cost)} "
          f"[{decision.criterion}]")

    budget = 9.50
    decision = fastest_within_budget(candidates, budget)
    print(f"\nBudget user (at most {format_money(budget)}):")
    print(f"  -> provision {decision.n_processors} processors: "
          f"{format_duration(decision.chosen.makespan)} for "
          f"{format_money(decision.chosen.total_cost)} "
          f"[{decision.criterion}]")


if __name__ == "__main__":
    main()
