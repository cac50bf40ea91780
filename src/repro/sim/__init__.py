"""Discrete-event workflow simulator (the paper's GridSim substitute).

The paper ran its study on the GridSim toolkit with "certain custom
modifications ... to perform accounting of the storage used during the
workflow execution."  This subpackage is a from-scratch Python equivalent:

* :mod:`repro.sim.engine` — the event loop;
* :mod:`repro.sim.resources` — a compute resource with *P* processors, a
  storage resource whose occupancy-over-time curve is integrated into
  byte-seconds (the paper's GB-hours), and a FIFO-serialized network link
  (10 Mbps between the user and cloud storage in the paper's setup);
* :mod:`repro.sim.datamanager` — the three data-management execution modes
  of Section 3: Remote I/O, Regular, Dynamic cleanup;
* :mod:`repro.sim.scheduler` — ready-task ordering policies;
* :mod:`repro.sim.failures` — task failure/retry injection (an extension:
  the paper flags resource reliability as an open question);
* :mod:`repro.sim.executor` — the workflow execution engine tying it all
  together; :func:`repro.sim.simulate` is the main entry point;
* :mod:`repro.sim.kernel` — the array-based fast-path kernel covering
  the full resource model (contended links, finite storage capacities
  and failure injection included), numerically identical to the event
  engine, selected automatically by ``simulate(..., kernel="auto")``,
  batched across whole sweeps by
  :func:`repro.sim.kernel.run_fast_kernel_batch`, and fanned over
  (probability, seed) grids by :func:`repro.sim.kernel.run_monte_carlo`;
* :mod:`repro.sim.results` — the measured metrics (makespan, bytes moved
  in/out, storage byte-seconds, per-task records).
"""

from repro.sim.engine import SimulationEngine
from repro.sim.resources import NetworkLink, ProcessorPool, Storage
from repro.sim.datamanager import (
    DataMode,
    CleanupDataManager,
    RegularDataManager,
    RemoteIODataManager,
    make_data_manager,
)
from repro.sim.scheduler import (
    FIFO_ORDER,
    LONGEST_FIRST,
    SHORTEST_FIRST,
    LEVEL_ORDER,
    TaskOrdering,
)
from repro.sim.failures import FailureModel
from repro.sim.executor import ExecutionEnvironment, WorkflowExecutor, simulate
from repro.sim.kernel import (
    KERNEL_ENV,
    SUMMARY_DTYPE,
    KernelConfig,
    MonteCarloCell,
    resolve_kernel,
    run_fast_kernel,
    run_fast_kernel_batch,
    run_monte_carlo,
    summary_batch,
)
from repro.sim.results import SimulationResult, TaskRecord, TransferRecord


__all__ = [
    "SimulationEngine",
    "NetworkLink",
    "ProcessorPool",
    "Storage",
    "DataMode",
    "CleanupDataManager",
    "RegularDataManager",
    "RemoteIODataManager",
    "make_data_manager",
    "FIFO_ORDER",
    "LONGEST_FIRST",
    "SHORTEST_FIRST",
    "LEVEL_ORDER",
    "TaskOrdering",
    "FailureModel",
    "ExecutionEnvironment",
    "WorkflowExecutor",
    "simulate",
    "KERNEL_ENV",
    "SUMMARY_DTYPE",
    "KernelConfig",
    "MonteCarloCell",
    "resolve_kernel",
    "run_fast_kernel",
    "run_fast_kernel_batch",
    "run_monte_carlo",
    "summary_batch",
    "SimulationResult",
    "TaskRecord",
    "TransferRecord",
]
