"""Execution and provisioning plans.

The paper contrasts two ways an application pays for compute:

* **Provisioned** (Question 1) — the application requests *P* processors
  and holds them "for as long as it takes for the workflow to complete";
  the CPU fee covers *P* x makespan whether or not every processor is busy
  (the paper: "CPU utilization can be low in the provisioned case").
* **On-demand** (Question 2) — a large pre-provisioned pool is shared by
  many requests, and a single request is charged "only for the resources
  used": the sum of its task runtimes.

A plan combines one of those with a data-management mode and, as an
extension the paper explicitly defers ("the startup cost of the
application on the cloud ... launching and configuring a virtual machine
and its teardown"), an optional per-VM overhead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.datamanager import DataMode
from repro.sim.resources import processor_count

__all__ = ["ProvisioningMode", "VMOverhead", "ExecutionPlan"]


class ProvisioningMode(enum.Enum):
    """How compute time is charged."""

    PROVISIONED = "provisioned"
    ON_DEMAND = "on-demand"


@dataclass(frozen=True)
class VMOverhead:
    """Virtual-machine lifecycle overhead (paper Section 8 future work).

    ``startup_seconds`` and ``teardown_seconds`` extend each provisioned
    instance's billed (and wall-clock) occupancy; ``fixed_cost_per_vm``
    models one-time image-deployment charges.
    """

    startup_seconds: float = 0.0
    teardown_seconds: float = 0.0
    fixed_cost_per_vm: float = 0.0

    def __post_init__(self) -> None:
        if self.startup_seconds < 0 or self.teardown_seconds < 0:
            raise ValueError("VM overhead durations must be non-negative")
        if self.fixed_cost_per_vm < 0:
            raise ValueError("VM fixed cost must be non-negative")

    @property
    def total_seconds(self) -> float:
        return self.startup_seconds + self.teardown_seconds


#: No VM overhead: the paper's simulations "do not include the cost of
#: setting up a virtual machine on the cloud or tearing it down".
NO_OVERHEAD = VMOverhead()


@dataclass(frozen=True)
class ExecutionPlan:
    """One way of running a request on the cloud.

    Parameters
    ----------
    provisioning:
        How CPU time is charged (see :class:`ProvisioningMode`).
    data_mode:
        Data-management strategy (see :class:`repro.sim.DataMode`).
    n_processors:
        Pool size.  Under PROVISIONED this is both the simulated
        parallelism and the billed width.  Under ON_DEMAND it is only the
        simulated parallelism: the paper sizes the shared pool above the
        workflow's maximum parallelism so requests "run at their full
        level of parallelism", and bills just the task runtimes.
    vm_overhead:
        Optional per-instance startup/teardown extension.
    """

    provisioning: ProvisioningMode = ProvisioningMode.PROVISIONED
    data_mode: DataMode = DataMode.REGULAR
    n_processors: int = 1
    vm_overhead: VMOverhead = NO_OVERHEAD

    def __post_init__(self) -> None:
        processor_count(self.n_processors)

    @staticmethod
    def provisioned(
        n_processors: int,
        data_mode: DataMode | str = DataMode.REGULAR,
        vm_overhead: VMOverhead = NO_OVERHEAD,
    ) -> "ExecutionPlan":
        """Question-1 style plan: hold ``n_processors`` for the run."""
        if isinstance(data_mode, str):
            data_mode = DataMode(data_mode)
        return ExecutionPlan(
            ProvisioningMode.PROVISIONED, data_mode, n_processors, vm_overhead
        )

    @staticmethod
    def on_demand(
        n_processors: int,
        data_mode: DataMode | str = DataMode.REGULAR,
    ) -> "ExecutionPlan":
        """Question-2 style plan: full parallelism, pay per use.

        ``n_processors`` should be at least the workflow's maximum
        parallelism so nothing queues.
        """
        if isinstance(data_mode, str):
            data_mode = DataMode(data_mode)
        return ExecutionPlan(
            ProvisioningMode.ON_DEMAND, data_mode, n_processors
        )
