"""Derived workflow quantities reported in the paper.

* **CCR** — communication-to-computation ratio, Section 6:
  ``CCR = (Σ_f s(f) / B) / Σ_v r(v)`` with *B* a reference bandwidth
  (10 Mbps in the paper, giving 0.053 / 0.053 / 0.045 for the 1°/2°/4°
  Montage workflows).
* **critical path** — lower bound on makespan with unlimited processors
  (compute time only; the simulator adds transfer effects).
* **maximum parallelism** — the widest set of tasks that can run
  concurrently; the paper quotes 610 for the 4° workflow.
* **data footprint** — Σ file sizes, the quantity dynamic cleanup reduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import MBPS
from repro.workflow.dag import Workflow

__all__ = [
    "communication_to_computation_ratio",
    "critical_path",
    "critical_path_length",
    "data_footprint",
    "level_widths",
    "max_parallelism",
    "WorkflowStats",
    "workflow_stats",
]

#: The paper's reference bandwidth for CCR: 10 Mbps.
REFERENCE_BANDWIDTH = 10.0 * MBPS


def communication_to_computation_ratio(
    workflow: Workflow, bandwidth: float = REFERENCE_BANDWIDTH
) -> float:
    """CCR of a workflow at a reference bandwidth (bytes/second).

    Defined in Section 6 of the paper: total file bytes divided by the
    reference bandwidth, over total task runtime.
    """
    # Imported lazily: the sim layer sits above the workflow layer.
    from repro.sim.resources import check_bandwidth

    check_bandwidth(bandwidth)
    runtime = workflow.total_runtime()
    if runtime == 0:
        raise ValueError("CCR undefined for a workflow with zero total runtime")
    return (workflow.total_file_bytes() / bandwidth) / runtime


def data_footprint(workflow: Workflow) -> float:
    """Total bytes of all files used or produced by the workflow."""
    return workflow.total_file_bytes()


def critical_path(workflow: Workflow) -> tuple[float, list[str]]:
    """Longest compute-time path through the DAG.

    Returns ``(length_seconds, [task ids along the path])``.  This is the
    makespan lower bound with unlimited processors and free data movement.
    """
    dist: dict[str, float] = {}
    prev: dict[str, str | None] = {}
    best_tail: str | None = None
    for tid in workflow.topological_order():
        task = workflow.task(tid)
        parents = workflow.parents(tid)
        if parents:
            best_parent = max(parents, key=lambda p: dist[p])
            dist[tid] = dist[best_parent] + task.runtime
            prev[tid] = best_parent
        else:
            dist[tid] = task.runtime
            prev[tid] = None
        if best_tail is None or dist[tid] > dist[best_tail]:
            best_tail = tid
    if best_tail is None:
        return 0.0, []
    path = []
    cur: str | None = best_tail
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    path.reverse()
    return dist[best_tail], path


def critical_path_length(workflow: Workflow) -> float:
    """Length in seconds of the critical path."""
    return critical_path(workflow)[0]


def level_widths(workflow: Workflow) -> dict[int, int]:
    """Number of tasks at each level (level -> count)."""
    widths: dict[int, int] = {}
    for level in workflow.levels().values():
        widths[level] = widths.get(level, 0) + 1
    return widths


def max_parallelism(workflow: Workflow) -> int:
    """Maximum number of tasks that can execute concurrently.

    Computed as the peak number of simultaneously-running tasks under a
    free (unlimited-processor, zero-transfer) schedule where every task
    starts as soon as its parents finish.  For level-synchronous workflows
    this equals the widest level; for skewed runtimes it can differ.
    """
    if not workflow.tasks:
        return 0
    # Earliest start/finish under unlimited resources.
    finish: dict[str, float] = {}
    events: list[tuple[float, int]] = []
    for tid in workflow.topological_order():
        task = workflow.task(tid)
        start = max((finish[p] for p in workflow.parents(tid)), default=0.0)
        finish[tid] = start + task.runtime
        # A task occupies the half-open interval [start, finish): at a
        # shared timestamp, ends are processed before starts, so a task
        # finishing exactly when another begins is not "concurrent" with
        # it (and zero-runtime tasks are instantaneous, never counted).
        events.append((start, +1))
        events.append((finish[tid], -1))
    events.sort(key=lambda e: (e[0], e[1]))
    peak = cur = 0
    for _, delta in events:
        cur += delta
        peak = max(peak, cur)
    return peak


@dataclass(frozen=True)
class WorkflowStats:
    """Summary row for a workflow (used in reports and EXPERIMENTS.md)."""

    name: str
    n_tasks: int
    n_files: int
    depth: int
    total_runtime: float
    critical_path: float
    max_parallelism: int
    footprint_bytes: float
    input_bytes: float
    output_bytes: float
    ccr: float


def workflow_stats(
    workflow: Workflow, bandwidth: float = REFERENCE_BANDWIDTH
) -> WorkflowStats:
    """Compute the full summary row for a workflow."""
    return WorkflowStats(
        name=workflow.name,
        n_tasks=len(workflow),
        n_files=len(workflow.files),
        depth=workflow.depth(),
        total_runtime=workflow.total_runtime(),
        critical_path=critical_path_length(workflow),
        max_parallelism=max_parallelism(workflow),
        footprint_bytes=workflow.total_file_bytes(),
        input_bytes=workflow.input_bytes(),
        output_bytes=workflow.output_bytes(),
        ccr=communication_to_computation_ratio(workflow, bandwidth),
    )
