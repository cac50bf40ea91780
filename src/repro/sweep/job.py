"""One simulation point of a sweep, with a content-addressed identity.

A :class:`SimJob` captures everything that determines the outcome of one
:func:`repro.sim.simulate` call — the workflow (by content, via
:meth:`repro.workflow.dag.Workflow.fingerprint`), the execution
environment, the data-management mode, the ready-queue ordering and the
failure injection — as a frozen, picklable value object.  Because the
simulator is fully deterministic, the job's :meth:`fingerprint` is a
correct memoization key: two jobs with equal fingerprints produce equal
:class:`~repro.sim.results.SimulationResult` objects, in any process.

Orderings and failure models are referenced by *spec* rather than by
object: ordering key functions are lambdas (unpicklable, and their
identity says nothing about their behaviour), and
:class:`~repro.sim.failures.FailureModel` carries consumed RNG state.  A
fresh model is built from the spec for every execution, which is exactly
what determinism requires.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.sim.datamanager import DataMode
from repro.sim.executor import (
    DEFAULT_BANDWIDTH,
    ExecutionEnvironment,
    simulate,
)
from repro.sim.failures import FailureModel, check_failure_parameters
from repro.sim.kernel import KernelConfig, resolve_kernel
from repro.sim.results import SimulationResult
from repro.sim.scheduler import ordering_by_name
from repro.workflow.dag import Workflow

__all__ = ["FailureSpec", "SimJob"]


@dataclass(frozen=True)
class FailureSpec:
    """Declarative form of a :class:`~repro.sim.failures.FailureModel`.

    The model itself is stateful (it consumes a seeded RNG stream), so the
    sweep layer stores the constructor arguments and instantiates a fresh
    model per execution.
    """

    task_failure_probability: float
    seed: int = 0
    max_retries: int = 10

    def __post_init__(self) -> None:
        check_failure_parameters(
            (self.task_failure_probability,), self.max_retries
        )

    def build(self) -> FailureModel:
        return FailureModel(
            self.task_failure_probability,
            seed=self.seed,
            max_retries=self.max_retries,
        )


@dataclass(frozen=True)
class SimJob:
    """One fully-specified simulation point.

    Field defaults mirror :func:`repro.sim.simulate` except
    ``record_trace``, which defaults to ``False``: sweep points are
    consumed for their aggregate metrics, and traceless results are small
    enough to memoize and ship between processes by the thousand.
    """

    workflow: Workflow
    n_processors: int
    data_mode: str = DataMode.REGULAR.value
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH
    storage_capacity_bytes: float | None = None
    task_overhead_seconds: float = 0.0
    compute_ready_seconds: float = 0.0
    link_contention: bool = False
    separate_links: bool = False
    ordering: str = "fifo"
    failures: FailureSpec | None = None
    record_trace: bool = False
    kernel: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.data_mode, DataMode):
            object.__setattr__(self, "data_mode", self.data_mode.value)
        # Fail fast on unknown modes/orderings at job-construction time,
        # not inside a worker process.
        DataMode(self.data_mode)
        ordering_by_name(self.ordering)
        # A zero-probability failure spec is behaviourally identical to
        # no failure model at all (the model consumes no draws and never
        # fails anything); normalize it away so both spellings share one
        # fingerprint — and therefore one memoization cache entry.
        if (
            self.failures is not None
            and self.failures.task_failure_probability == 0.0
        ):
            object.__setattr__(self, "failures", None)
        # Resolve the kernel (arg > REPRO_SIM_KERNEL > "auto") *now*, so
        # the fingerprint — and therefore the cache key — never depends
        # on the environment of whichever process later runs the job.
        object.__setattr__(self, "kernel", resolve_kernel(self.kernel))

    def fingerprint(self) -> str:
        """Content-addressed key (hex SHA-256) over workflow + parameters.

        Stable across processes and interpreter runs, so it doubles as an
        on-disk cache key.
        """
        spec = (
            f"{self.workflow.fingerprint()}\x1e{self.n_processors}"
            f"\x1e{self.data_mode}\x1e{self.bandwidth_bytes_per_sec!r}"
            f"\x1e{self.storage_capacity_bytes!r}"
            f"\x1e{self.task_overhead_seconds!r}"
            f"\x1e{self.compute_ready_seconds!r}"
            f"\x1e{int(self.link_contention)}{int(self.separate_links)}"
            f"\x1e{self.ordering}"
            f"\x1e{self.failures!r}"
            f"\x1e{int(self.record_trace)}"
            f"\x1e{self.kernel}"
        )
        return hashlib.sha256(spec.encode()).hexdigest()

    def environment(self, record_trace: bool | None = None) -> ExecutionEnvironment:
        """The :class:`ExecutionEnvironment` this job simulates under.

        The audit oracle reconciles a result against exactly this object;
        ``record_trace`` can be overridden to describe a traced re-run of
        an otherwise traceless job.
        """
        return ExecutionEnvironment(
            n_processors=self.n_processors,
            bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec,
            storage_capacity_bytes=self.storage_capacity_bytes,
            task_overhead_seconds=self.task_overhead_seconds,
            compute_ready_seconds=self.compute_ready_seconds,
            link_contention=self.link_contention,
            separate_links=self.separate_links,
            record_trace=(
                self.record_trace if record_trace is None else record_trace
            ),
        )

    def kernel_config(self) -> KernelConfig:
        """This point as a fast-kernel :class:`KernelConfig`.

        Every configuration is kernel-eligible (there is no demotion
        path any more), so this always succeeds; the batch executor and
        the campaign grid engine both build their
        :func:`~repro.sim.kernel.run_fast_kernel_batch` units from it.
        A fresh :class:`~repro.sim.failures.FailureModel` is built per
        call, exactly like :meth:`run`.
        """
        return KernelConfig(
            environment=self.environment(),
            data_mode=self.data_mode,
            ordering=ordering_by_name(self.ordering),
            failures=(
                self.failures.build() if self.failures is not None else None
            ),
        )

    def run(self) -> SimulationResult:
        """Execute this point (in whatever process we happen to be in)."""
        return simulate(
            self.workflow,
            self.n_processors,
            self.data_mode,
            bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec,
            storage_capacity_bytes=self.storage_capacity_bytes,
            task_overhead_seconds=self.task_overhead_seconds,
            compute_ready_seconds=self.compute_ready_seconds,
            link_contention=self.link_contention,
            separate_links=self.separate_links,
            ordering=ordering_by_name(self.ordering),
            failures=self.failures.build() if self.failures else None,
            record_trace=self.record_trace,
            kernel=self.kernel,
        )
