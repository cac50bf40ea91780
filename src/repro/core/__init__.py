"""The paper's primary contribution: the cloud cost/performance analysis.

* :mod:`repro.core.pricing` — cloud fee structures.  The paper's rates
  (Amazon, 2008): $0.15/GB-month storage, $0.10/GB transfer in, $0.16/GB
  transfer out, $0.10/CPU-hour, normalized to per-second/per-byte
  granularity; plus a billing-granularity extension.
* :mod:`repro.core.plans` — execution plans: how resources are provisioned
  (fixed pool for the run vs. pay-per-use) combined with a data-management
  mode and optional VM overheads.
* :mod:`repro.core.costs` — turn simulated metrics into dollar costs
  (CPU / storage / transfer-in / transfer-out breakdowns).
* :mod:`repro.core.economics` — the closed-form analyses of Questions 2b
  and 3: archive hosting break-even and store-vs-recompute horizons.
* :mod:`repro.core.tradeoff` — cost/performance sweeps and Pareto sets.
"""

from repro.core.pricing import (
    AWS_2008,
    PricingModel,
    STORAGE_HEAVY,
    TRANSFER_HEAVY,
)
from repro.core.plans import ExecutionPlan, ProvisioningMode, VMOverhead
from repro.core.costs import CostBreakdown, compute_cost
from repro.core.estimate import CostEstimate, estimate_cost, makespan_bounds
from repro.core.tiered import (
    AWS_2008_TIERED_EGRESS,
    TieredPricingModel,
    TieredRate,
)
from repro.core.placement import (
    DatasetProfile,
    PlacementDecision,
    optimize_placement,
)
from repro.core.economics import (
    ArchiveEconomics,
    archive_economics,
    full_sky_cost,
    store_vs_recompute_months,
)
from repro.core.tradeoff import (
    SweepPoint,
    capped_ladder,
    pareto_frontier,
    processor_sweep,
)

__all__ = [
    "AWS_2008",
    "PricingModel",
    "STORAGE_HEAVY",
    "TRANSFER_HEAVY",
    "ExecutionPlan",
    "ProvisioningMode",
    "VMOverhead",
    "CostBreakdown",
    "compute_cost",
    "CostEstimate",
    "estimate_cost",
    "makespan_bounds",
    "AWS_2008_TIERED_EGRESS",
    "TieredPricingModel",
    "TieredRate",
    "DatasetProfile",
    "PlacementDecision",
    "optimize_placement",
    "ArchiveEconomics",
    "archive_economics",
    "full_sky_cost",
    "store_vs_recompute_months",
    "SweepPoint",
    "capped_ladder",
    "pareto_frontier",
    "processor_sweep",
]
