"""Question 1 — cost of running sporadic computations on the cloud.

Reproduces Figures 4, 5 and 6: for a Montage workflow, provision P
processors (P = 1, 2, 4, ..., 128) for the duration of the run and report
the CPU cost, storage cost (with and without dynamic cleanup, as the two
storage series in the figures), transfer cost, total cost, and the
execution time.  Per the paper, the *total* series uses the
without-cleanup storage cost ("The total costs shown in the Figure are
computed using the storage costs without cleanup"), and the difference is
invisible at figure scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pricing import AWS_2008, PricingModel
from repro.core.tradeoff import processor_sweep
from repro.montage.generator import montage_workflow
from repro.sim.executor import DEFAULT_BANDWIDTH
from repro.util.units import format_duration, format_money
from repro.workflow.dag import Workflow
from repro.experiments.report import format_table

__all__ = ["Question1Row", "Question1Result", "run_question1"]


@dataclass(frozen=True)
class Question1Row:
    """One provisioning point: the figures' x-axis value and all series."""

    n_processors: int
    makespan: float
    cpu_cost: float
    storage_cost: float
    storage_cost_cleanup: float
    transfer_cost: float
    total_cost: float


@dataclass(frozen=True)
class Question1Result:
    """All series of one of Figures 4/5/6."""

    workflow_name: str
    rows: list[Question1Row]

    def as_table(self) -> str:
        """Render the figure's data as text."""
        return format_table(
            (
                "procs",
                "time",
                "CPU cost",
                "storage",
                "storage (C)",
                "transfer",
                "total",
            ),
            [
                (
                    r.n_processors,
                    format_duration(r.makespan),
                    format_money(r.cpu_cost),
                    f"${r.storage_cost:.6f}",
                    f"${r.storage_cost_cleanup:.6f}",
                    format_money(r.transfer_cost),
                    format_money(r.total_cost),
                )
                for r in self.rows
            ],
            title=f"Execution costs and time vs processors — {self.workflow_name}",
        )

    def as_csv(self) -> str:
        """The figure's series as CSV (for replotting with any tool)."""
        lines = [
            "n_processors,makespan_s,cpu_cost,storage_cost,"
            "storage_cost_cleanup,transfer_cost,total_cost"
        ]
        for r in self.rows:
            lines.append(
                f"{r.n_processors},{r.makespan!r},{r.cpu_cost!r},"
                f"{r.storage_cost!r},{r.storage_cost_cleanup!r},"
                f"{r.transfer_cost!r},{r.total_cost!r}"
            )
        return "\n".join(lines) + "\n"

    def row(self, n_processors: int) -> Question1Row:
        for r in self.rows:
            if r.n_processors == n_processors:
                return r
        raise KeyError(f"no row for {n_processors} processors")


def run_question1(
    workflow: Workflow | float,
    processors: list[int] | None = None,
    pricing: PricingModel = AWS_2008,
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
) -> Question1Result:
    """Compute one of Figures 4/5/6.

    ``workflow`` may be a prebuilt workflow or a mosaic degree (1.0, 2.0,
    4.0 build the paper's workloads).
    """
    if not isinstance(workflow, Workflow):
        workflow = montage_workflow(float(workflow))
    # One sweep batch for the whole ladder, both storage series; the
    # cleanup run is only consumed for its storage cost, and both modes go
    # through the memo cache so repeated P values across
    # figures/verification are simulated exactly once.
    points = processor_sweep(
        workflow,
        processors,
        ("regular", "cleanup"),
        pricing,
        bandwidth_bytes_per_sec,
    )
    half = len(points) // 2
    rows = [
        Question1Row(
            n_processors=regular.n_processors,
            makespan=regular.makespan,
            cpu_cost=regular.cost.cpu_cost,
            storage_cost=regular.cost.storage_cost,
            storage_cost_cleanup=cleanup.cost.storage_cost,
            transfer_cost=regular.cost.transfer_cost,
            total_cost=regular.total_cost,
        )
        for regular, cleanup in zip(points[:half], points[half:])
    ]
    return Question1Result(workflow_name=workflow.name, rows=rows)
