"""Shared-pool service simulation.

Runs a stream of workflow requests through one event engine with a single
shared :class:`~repro.sim.resources.ProcessorPool` — the paper's
Question-2 deployment.  Each request gets its own storage namespace and
link counters (the paper's storage is infinite and its link model
contention-free, so requests interact only through processors); ready
tasks from different requests compete FCFS for free processors.

Per request we record the usual :class:`~repro.sim.SimulationResult`
(makespan here means time from arrival to final stage-out, i.e. the user's
response time) plus queueing-sensitive aggregates for the whole service.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.service.arrivals import ServiceRequest
from repro.sim.datamanager import DataMode
from repro.sim.engine import SimulationEngine
from repro.sim.executor import DEFAULT_BANDWIDTH, ExecutionEnvironment, WorkflowExecutor
from repro.sim.resources import ProcessorPool
from repro.sim.results import SimulationResult
from repro.sim.scheduler import FIFO_ORDER, TaskOrdering
from repro.util.curve import StepCurve

__all__ = [
    "RequestOutcome",
    "ResponseStats",
    "ServiceResult",
    "ServiceSimulator",
]


class ResponseStats:
    """Aggregate views over a cached response-time column.

    Subclasses supply :meth:`response_times` as a (cached, read-only)
    float64 array built **once**; every aggregate here derives from that
    column, so repeated queries on million-outcome results cost one
    vectorized pass the first time and O(1) array reuse afterwards.
    """

    def response_times(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def mean_response_time(self) -> float:
        times = self.response_times()
        return float(times.mean()) if times.size else 0.0

    def percentile_response_time(self, q: float) -> float:
        """q-th percentile response time (q in [0, 100])."""
        times = self.response_times()
        # 0.0 without outcomes, but numpy still checks ``q``.
        return float(np.percentile(times if times.size else [0.0], q))


@dataclass(frozen=True)
class RequestOutcome:
    """One served request."""

    request: ServiceRequest
    result: SimulationResult
    finished_at: float

    @property
    def response_time(self) -> float:
        """Arrival to final stage-out — what the user experiences."""
        return self.finished_at - self.request.arrival_time


@dataclass
class ServiceResult(ResponseStats):
    """Everything measured over one service horizon.

    Aggregates are columnar: the response-time and compute-seconds
    columns are materialized from the outcome objects once, cached, and
    every subsequent query (means, percentiles, totals) reads the cached
    arrays instead of rebuilding Python lists per call.
    """

    n_processors: int
    data_mode: str
    outcomes: list[RequestOutcome]
    horizon: float
    pool_busy_curve: StepCurve = field(repr=False)
    _response_times: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _total_compute_seconds: float | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _peak_concurrency: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_requests(self) -> int:
        return len(self.outcomes)

    def response_times(self) -> np.ndarray:
        """Per-request response times, cached and read-only."""
        if self._response_times is None:
            times = np.fromiter(
                (o.finished_at - o.request.arrival_time
                 for o in self.outcomes),
                dtype=np.float64,
                count=len(self.outcomes),
            )
            times.setflags(write=False)
            self._response_times = times
        return self._response_times

    def total_compute_seconds(self) -> float:
        if self._total_compute_seconds is None:
            self._total_compute_seconds = float(
                np.fromiter(
                    (o.result.compute_seconds for o in self.outcomes),
                    dtype=np.float64,
                    count=len(self.outcomes),
                ).sum()
            )
        return self._total_compute_seconds

    def pool_utilization(self) -> float:
        """Busy fraction of the pool over the service horizon."""
        if self.horizon <= 0:
            return 0.0
        busy = self.pool_busy_curve.integral(0.0, self.horizon)
        return busy / (self.n_processors * self.horizon)

    def peak_concurrency(self) -> int:
        """Most processors ever busy at once."""
        if self._peak_concurrency is None:
            self._peak_concurrency = int(self.pool_busy_curve.max_value())
        return self._peak_concurrency


class ServiceSimulator:
    """Simulate a mosaic service over a request stream.

    Parameters mirror :func:`repro.sim.simulate`; ``n_processors`` is the
    size of the provisioned shared pool.
    """

    def __init__(
        self,
        n_processors: int,
        data_mode: DataMode | str = DataMode.CLEANUP,
        bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
        link_contention: bool = False,
        ordering: TaskOrdering = FIFO_ORDER,
        record_trace: bool = False,
    ) -> None:
        self.env = ExecutionEnvironment(
            n_processors=n_processors,
            bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
            link_contention=link_contention,
            record_trace=record_trace,
        )
        self.data_mode = (
            DataMode(data_mode) if isinstance(data_mode, str) else data_mode
        )
        self.ordering = ordering

    def run(self, requests: list[ServiceRequest]) -> ServiceResult:
        """Serve every request; returns per-request and pool metrics."""
        engine = SimulationEngine()
        pool = ProcessorPool(self.env.n_processors)
        finished: dict[str, float] = {}
        executors: list[tuple[ServiceRequest, WorkflowExecutor]] = []
        # Launch in arrival order so FCFS tie-breaks follow arrival.
        for request in sorted(requests, key=lambda r: r.arrival_time):
            executor = WorkflowExecutor(
                request.workflow,
                self.env,
                self.data_mode,
                ordering=self.ordering,
                engine=engine,
                processors=pool,
                start_time=request.arrival_time,
                on_finished=(
                    lambda ex, rid=request.request_id: finished.__setitem__(
                        rid, ex.engine.now
                    )
                ),
            )
            executor.start()
            executors.append((request, executor))
        engine.run()
        outcomes = []
        for request, executor in executors:
            if not executor.finished:
                raise RuntimeError(
                    f"request {request.request_id!r} never completed"
                )
            outcomes.append(
                RequestOutcome(
                    request=request,
                    result=executor.result(),
                    finished_at=finished[request.request_id],
                )
            )
        horizon = max(finished.values(), default=0.0)
        return ServiceResult(
            n_processors=self.env.n_processors,
            data_mode=self.data_mode.value,
            outcomes=outcomes,
            horizon=horizon,
            pool_busy_curve=pool.busy_curve,
        )
