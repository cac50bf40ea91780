"""Declarative description of a campaign grid.

A :class:`GridPlan` is the cross product
``plates × processors × probabilities × seeds`` under one data-management
mode, bandwidth and ready-queue ordering.  Like
:class:`~repro.sweep.job.SimJob` it references the ordering by *name*
(ordering key functions are lambdas and unpicklable), so a plan pickles
cleanly into pool workers, and it is content-addressed: two plans with
equal :meth:`fingerprint` describe byte-identical campaigns, which makes
the fingerprint a correct key for shard checkpoints.

The canonical cell order — the row order of the resulting record batch —
is plate-major (plan order), then processors, then probability-major,
seed-minor, i.e. the iteration order of::

    for plate in plates:
        for p in processors:
            for prob in probabilities:
                for seed in seeds: ...
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.sim.datamanager import DataMode
from repro.sim.executor import DEFAULT_BANDWIDTH, ExecutionEnvironment
from repro.sim.failures import check_failure_parameters
from repro.sim.kernel import KernelConfig
from repro.sim.resources import check_bandwidth, processor_count
from repro.sim.scheduler import ordering_by_name
from repro.workflow.dag import Workflow

__all__ = ["GridPlan"]


@dataclass(frozen=True)
class GridPlan:
    """One fully-specified campaign grid."""

    plates: tuple[Workflow, ...]
    processors: tuple[int, ...]
    probabilities: tuple[float, ...] = (0.0,)
    seeds: tuple[int, ...] = (0,)
    data_mode: str = DataMode.REGULAR.value
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH
    ordering: str = "fifo"
    max_retries: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "plates", tuple(self.plates))
        object.__setattr__(
            self, "processors", tuple(map(processor_count, self.processors))
        )
        object.__setattr__(
            self, "probabilities", tuple(float(p) for p in self.probabilities)
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if isinstance(self.data_mode, DataMode):
            object.__setattr__(self, "data_mode", self.data_mode.value)
        if not self.plates:
            raise ValueError("a grid needs at least one plate")
        if not self.processors:
            raise ValueError("a grid needs at least one processor count")
        if not self.probabilities or not self.seeds:
            raise ValueError(
                "a grid needs at least one probability and one seed"
            )
        # Fail fast on bad parameters and unknown modes/orderings at
        # plan-construction time, not inside a shard worker.
        check_failure_parameters(self.probabilities, self.max_retries)
        check_bandwidth(self.bandwidth_bytes_per_sec)
        DataMode(self.data_mode)
        ordering_by_name(self.ordering)

    # -------------------------------------------------------------- #
    # shape
    # -------------------------------------------------------------- #
    @property
    def cells_per_plate(self) -> int:
        return (
            len(self.processors) * len(self.probabilities) * len(self.seeds)
        )

    @property
    def n_cells(self) -> int:
        return len(self.plates) * self.cells_per_plate

    def plate_fingerprints(self) -> tuple[str, ...]:
        """Content fingerprints of the plates, in plan order."""
        return tuple(plate.fingerprint() for plate in self.plates)

    def fingerprint(self) -> str:
        """Content-addressed key (hex SHA-256) over plates + parameters."""
        spec = "\x1e".join(
            (
                *self.plate_fingerprints(),
                ",".join(str(p) for p in self.processors),
                ",".join(repr(p) for p in self.probabilities),
                ",".join(str(s) for s in self.seeds),
                self.data_mode,
                repr(self.bandwidth_bytes_per_sec),
                self.ordering,
                str(self.max_retries),
            )
        )
        return hashlib.sha256(spec.encode()).hexdigest()

    # -------------------------------------------------------------- #
    # execution building blocks
    # -------------------------------------------------------------- #
    def environment(self, n_processors: int) -> ExecutionEnvironment:
        return ExecutionEnvironment(
            n_processors=n_processors,
            bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec,
            record_trace=False,
        )

    def kernel_config(self, n_processors: int) -> KernelConfig:
        """The fast-kernel configuration of one ladder point.

        Failure models are *not* attached — the Monte Carlo fan-out
        supplies them per (probability, seed) cell.
        """
        return KernelConfig(
            environment=self.environment(n_processors),
            data_mode=self.data_mode,
            ordering=ordering_by_name(self.ordering),
        )
