"""Resource-provisioning decision support.

The paper's Question 1 ends with exactly this decision: "a user who is
also concerned about the execution time faces a trade-off between
minimizing the execution cost and minimizing the execution time", and
illustrates it by picking 16 processors for the 4° workflow (≈5.5 h at
$9.25 instead of 85 h at $9 or 1 h at $14).  This subpackage automates the
choice:

* :mod:`repro.provisioning.provisioner` — price the workflow's capped
  ladder of pool sizes (:func:`repro.core.tradeoff.capped_ladder`: the
  ladder up to its maximum parallelism plus the first size at or above
  it) as :class:`repro.core.tradeoff.SweepPoint` candidates;
* :mod:`repro.provisioning.optimizer` — pick the cheapest plan meeting a
  deadline, the fastest plan within a budget, or a weighted compromise;
* :mod:`repro.provisioning.advisor` — the same ladder and the same
  deadline/budget choice across providers and data-management modes;
* :mod:`repro.provisioning.bursting` — own-cluster-first routing with
  cloud bursts;
* :mod:`repro.provisioning.autoscale` — epoch-granular pool elasticity
  for the full-scale service, evaluated through the fluid engine.
"""

from repro.provisioning.provisioner import candidate_plans
from repro.provisioning.optimizer import (
    ProvisioningDecision,
    best_feasible,
    cheapest_within_deadline,
    fastest_within_budget,
    best_weighted,
)
from repro.provisioning.bursting import (
    BurstDecision,
    BurstingOutcome,
    simulate_bursting,
)
from repro.provisioning.advisor import PlanOption, Recommendation, advise_plan
from repro.provisioning.autoscale import (
    AutoscaleOutcome,
    AutoscalePolicy,
    evaluate_autoscale,
)

__all__ = [
    "candidate_plans",
    "ProvisioningDecision",
    "best_feasible",
    "cheapest_within_deadline",
    "fastest_within_budget",
    "best_weighted",
    "BurstDecision",
    "BurstingOutcome",
    "simulate_bursting",
    "PlanOption",
    "Recommendation",
    "advise_plan",
    "AutoscaleOutcome",
    "AutoscalePolicy",
    "evaluate_autoscale",
]
