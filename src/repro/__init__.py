"""repro — reproduction of *The Cost of Doing Science on the Cloud: The
Montage Example* (Deelman, Singh, Livny, Berriman, Good; SC 2008).

The library simulates workflow executions on a pay-per-use cloud and
prices them under a provider fee structure, reproducing the paper's full
evaluation: provisioning sweeps (Figures 4-6), data-management mode
comparisons (Figures 7-10), CCR sensitivity (Figure 11 and the CCR table)
and the archive/whole-sky economics (Questions 2b and 3).

Quickstart
----------
>>> from repro.montage import montage_1_degree
>>> from repro.sim import simulate
>>> from repro.core import AWS_2008, ExecutionPlan, compute_cost
>>> result = simulate(montage_1_degree(), n_processors=8,
...                   data_mode="cleanup")
>>> cost = compute_cost(result, AWS_2008,
...                     ExecutionPlan.provisioned(8, "cleanup"))
>>> round(cost.total, 2) > 0
True

Subpackages
-----------
- :mod:`repro.workflow` — the DAG model (tasks, files, levels, CCR).
- :mod:`repro.montage` — calibrated Montage workflow generators and the
  2MASS archive model.
- :mod:`repro.sim` — the discrete-event simulator (processors, storage
  accounting, network link, the three data-management modes).
- :mod:`repro.core` — pricing, execution plans, cost breakdowns and the
  closed-form economics.
- :mod:`repro.provisioning` — plan selection under deadlines/budgets.
- :mod:`repro.experiments` — per-figure experiment harness and report
  runner (``python -m repro report``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
