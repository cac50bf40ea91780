"""The workflow execution engine.

Ties the event engine, resources and a data-management strategy together:
the data manager signals when a task's data is in place
(:meth:`WorkflowExecutor.task_data_ready`), the executor queues the task,
dispatches ready tasks onto free processors in scheduler order, and feeds
completions back to the data manager.  The run finishes when every task has
executed and the data manager has drained its final stage-outs; the finish
time is the paper's "workflow execution time".

:func:`simulate` is the public one-call entry point used by the experiment
harness, the examples and most tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count

from repro.sim.datamanager import DataManager, DataMode, make_data_manager
from repro.sim.engine import SimulationEngine
from repro.sim.failures import FailureModel
from repro.sim.resources import (
    NetworkLink,
    ProcessorPool,
    Storage,
    check_bandwidth,
    check_capacity,
    check_finite,
    processor_count,
)
from repro.sim.results import SimulationResult, TaskRecord, TransferRecord
from repro.sim.scheduler import FIFO_ORDER, TaskOrdering
from repro.util.units import MBPS
from repro.workflow.dag import Workflow

__all__ = ["ExecutionEnvironment", "WorkflowExecutor", "simulate"]

#: The paper's fixed user<->storage bandwidth: 10 Mbps.
DEFAULT_BANDWIDTH = 10.0 * MBPS


@dataclass(frozen=True)
class ExecutionEnvironment:
    """Static description of the simulated cloud slice.

    Parameters
    ----------
    n_processors:
        Processors on the (single) compute resource.
    bandwidth_bytes_per_sec:
        User<->storage link bandwidth (default: the paper's 10 Mbps).
    storage_capacity_bytes:
        Optional finite storage capacity (default None = the paper's
        infinite storage).  With a capacity, stage-ins and task dispatch
        are admission-controlled through reservations (the
        storage-constrained scheduling of the paper's reference [15]); a
        capacity too small for the workflow's minimum footprint deadlocks
        the run, which is reported as an error.
    task_overhead_seconds:
        Scheduling/launch overhead added to every task execution on its
        processor (job-submission latency in Condor/Pegasus terms; the
        paper notes Montage's "small computational granularity", which is
        exactly when this overhead bites).  Occupies the processor and
        stretches the makespan but is not billed as compute under
        on-demand accounting.  The task-clustering transformation
        (:mod:`repro.workflow.clustering`) exists to amortize it.
    compute_ready_seconds:
        Virtual time at which the provisioned processors become usable —
        the VM boot delay the paper defers to future work ("launching and
        configuring a virtual machine").  Transfers to cloud storage may
        start immediately (S3 is up regardless); task dispatch waits.
        Pair with :class:`repro.core.plans.VMOverhead` to also bill the
        boot time.
    link_contention:
        False (default): every transfer runs at the full link bandwidth,
        matching GridSim's contention-free network model and hence the
        paper's figures.  True: the link is FIFO-serialized — a more
        conservative reading of "the bandwidth between the user and the
        storage resource was fixed at 10 Mbps", used by the contention
        ablation.
    separate_links:
        Only meaningful with ``link_contention=True``: stage-in and
        stage-out then queue on independent links instead of one duplex
        pipe.
    record_trace:
        Keep per-task/per-transfer records and the occupancy curves on the
        result (cheap; disable for very large sweeps).
    """

    n_processors: int
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH
    storage_capacity_bytes: float | None = None
    task_overhead_seconds: float = 0.0
    compute_ready_seconds: float = 0.0
    link_contention: bool = False
    separate_links: bool = False
    record_trace: bool = True

    def __post_init__(self) -> None:
        # Every backend runs only environments that pass these rules (an
        # infinite overhead or boot time would split the engines).
        processor_count(self.n_processors)
        check_bandwidth(self.bandwidth_bytes_per_sec)
        check_capacity(self.storage_capacity_bytes)
        check_finite("task_overhead_seconds", self.task_overhead_seconds)
        check_finite("compute_ready_seconds", self.compute_ready_seconds)


# Task lifecycle states.
_WAITING, _READY, _RUNNING, _DONE = range(4)


class WorkflowExecutor:
    """One simulated execution of one workflow.

    Stand-alone use builds all resources itself and drives its own event
    engine (:meth:`run`).  For the service layer, a shared ``engine`` and
    ``processors`` pool may be injected together with a ``start_time``
    (the request's arrival) and an ``on_finished`` callback; the caller
    then calls :meth:`start` on each executor and runs the shared engine
    once.  Storage and links stay per-execution: the paper's storage has
    infinite capacity and its link model is contention-free, so requests
    only interact through the processor pool.
    """

    def __init__(
        self,
        workflow: Workflow,
        environment: ExecutionEnvironment,
        data_manager: DataManager | DataMode | str = DataMode.REGULAR,
        ordering: TaskOrdering = FIFO_ORDER,
        failures: FailureModel | None = None,
        engine: SimulationEngine | None = None,
        processors: ProcessorPool | None = None,
        start_time: float = 0.0,
        on_finished=None,
    ) -> None:
        workflow.validate()
        if start_time < 0:
            raise ValueError(f"negative start_time {start_time}")
        self.workflow = workflow
        self.env = environment
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else SimulationEngine()
        self._shared_pool = processors is not None
        if processors is not None:
            self.processors = processors
            # A shared pool: wake our dispatcher whenever anyone frees a
            # processor (another request's completion may unblock us).
            self.processors.subscribe_release(self._dispatch)
        else:
            self.processors = ProcessorPool(
                environment.n_processors,
                track_curve=environment.record_trace,
            )
        self.storage = Storage(environment.storage_capacity_bytes)
        if environment.storage_capacity_bytes is not None:
            # Freed space may unblock a dispatch-time reservation.
            self.storage.subscribe_space_freed(self._dispatch)
        self.link_in = NetworkLink(
            environment.bandwidth_bytes_per_sec,
            contended=environment.link_contention,
        )
        self.link_out = (
            NetworkLink(
                environment.bandwidth_bytes_per_sec,
                contended=environment.link_contention,
            )
            if environment.separate_links
            else self.link_in
        )
        if isinstance(data_manager, (DataMode, str)):
            data_manager = make_data_manager(data_manager)
        self.data_manager = data_manager
        self.data_manager.bind(self)
        self.ordering = ordering
        self.failures = failures
        self.start_time = float(start_time)
        self._on_finished = on_finished
        self._trace = environment.record_trace

        self._state: dict[str, int] = {
            tid: _WAITING for tid in workflow.tasks
        }
        self._ready_heap: list[tuple[float, int, str]] = []
        self._ready_seq = count()
        self._n_done = 0
        self._n_executions = 0
        self._n_failures = 0
        self._compute_seconds = 0.0
        self._held_seconds = 0.0
        self._acquired_at: dict[str, float] = {}
        self._bytes = {"in": 0.0, "out": 0.0}
        self._n_transfers = {"in": 0, "out": 0}
        self._attempt: dict[str, int] = {}
        self._started = False
        self._boot_wakeup_scheduled = False
        self._finished_at: float | None = None
        self._task_records: list[TaskRecord] = []
        self._transfer_records: list[TransferRecord] = []

    # ------------------------------------------------------------------ #
    # callbacks used by the data manager
    # ------------------------------------------------------------------ #
    def task_data_ready(self, task_id: str) -> None:
        """The task's input data is in place; queue it for a processor."""
        if self._state[task_id] != _WAITING:
            raise RuntimeError(
                f"task {task_id!r} signalled ready twice (state "
                f"{self._state[task_id]})"
            )
        self._state[task_id] = _READY
        key = self.ordering.key(self.workflow, task_id)
        heapq.heappush(self._ready_heap, (key, next(self._ready_seq), task_id))
        self._dispatch()

    def record_transfer(
        self,
        file_name: str,
        size_bytes: float,
        direction: str,
        start: float,
        end: float,
        task_id: str | None,
    ) -> None:
        """Data managers report each queued transfer through here."""
        self._bytes[direction] += size_bytes
        self._n_transfers[direction] += 1
        if self._trace:
            self._transfer_records.append(
                TransferRecord(file_name, size_bytes, direction, start, end, task_id)
            )

    def finish(self) -> None:
        """The data manager declares the execution complete."""
        if self._finished_at is not None:
            raise RuntimeError("finish() called twice")
        if self._n_done != len(self.workflow.tasks):
            raise RuntimeError("finish() before all tasks completed")
        self._finished_at = self.engine.now
        if self._shared_pool:
            # We will never dispatch again: stop being woken on every
            # release (a leak that made long service runs O(requests)
            # per release).
            self.processors.unsubscribe_release(self._dispatch)
        if self._on_finished is not None:
            self._on_finished(self)

    def maybe_finish(self) -> None:
        """Finish once all tasks are done and the data manager is idle."""
        if (
            self._finished_at is None
            and self._n_done == len(self.workflow.tasks)
            and self.data_manager.idle
        ):
            self.finish()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _dispatch(self) -> None:
        ready_at = self.env.compute_ready_seconds
        if self.engine.now < ready_at:
            # Processors are still booting; try again once they are up.
            if not self._boot_wakeup_scheduled and self._ready_heap:
                self._boot_wakeup_scheduled = True
                self.engine.schedule_at(ready_at, self._dispatch)
            return
        while self.processors.available > 0 and self._ready_heap:
            task_id = self._ready_heap[0][2]
            # Head-of-line admission: the data manager may need to reserve
            # storage for the task's files first (finite capacity).
            if not self.data_manager.reserve_for_task(task_id):
                break
            heapq.heappop(self._ready_heap)
            self._state[task_id] = _RUNNING
            self.processors.acquire(self.engine.now)
            self._acquired_at[task_id] = self.engine.now
            # The data manager may need to move data first (Remote I/O);
            # the processor is held while it does.
            self.data_manager.prepare_task(
                task_id, lambda tid=task_id: self._execute(tid)
            )

    def _execute(self, task_id: str) -> None:
        task = self.workflow.task(task_id)
        attempt = self._attempt.get(task_id, 0) + 1
        self._attempt[task_id] = attempt
        start = self.engine.now
        self._n_executions += 1
        self._compute_seconds += task.runtime

        def completed() -> None:
            end = self.engine.now  # includes the per-task overhead
            failed = (
                self.failures.attempt_fails(task_id, attempt)
                if self.failures is not None
                else False
            )
            if self._trace:
                self._task_records.append(
                    TaskRecord(task_id, task.transformation, start, end, attempt)
                )
            if failed:
                self._n_failures += 1
                # Retry immediately on the same (still-held) processor.
                self._execute(task_id)
                return
            self._state[task_id] = _DONE
            self._n_done += 1
            self._held_seconds += end - self._acquired_at.pop(task_id)
            self.processors.release(end)
            self.data_manager.on_task_completed(task_id)
            if self._n_done == len(self.workflow.tasks):
                self.data_manager.on_all_tasks_done()
            self._dispatch()

        self.engine.schedule(
            self.env.task_overhead_seconds + task.runtime, completed
        )

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Schedule this execution to begin at its ``start_time``.

        Used in shared-engine (service) mode; the caller runs the engine.
        """
        if self._started:
            raise RuntimeError("start() called twice")
        self._started = True

        def _begin() -> None:
            if not self.workflow.tasks:
                self.finish()
                return
            self.data_manager.on_start()
            self._dispatch()

        self.engine.schedule_at(
            max(self.start_time, self.engine.now), _begin
        )

    @property
    def finished(self) -> bool:
        return self._finished_at is not None

    def run(self) -> SimulationResult:
        """Execute the workflow to completion (stand-alone mode)."""
        if not self._owns_engine:
            raise RuntimeError(
                "run() drives a private engine; with a shared engine call "
                "start() and run the engine yourself, then use result()"
            )
        self.start()
        self.engine.run()
        return self.result()

    def result(self) -> SimulationResult:
        """Measured metrics; only valid once the execution finished."""
        if self._finished_at is None:
            stuck = [
                tid for tid, st in self._state.items() if st != _DONE
            ]
            hint = (
                " — the storage capacity is too small for the workflow's "
                "minimum footprint"
                if self.env.storage_capacity_bytes is not None
                else ""
            )
            raise RuntimeError(
                f"simulation deadlocked or unfinished: {len(stuck)} tasks "
                f"incomplete (first few: {stuck[:5]}){hint}"
            )
        makespan = self._finished_at - self.start_time
        return SimulationResult(
            workflow_name=self.workflow.name,
            n_processors=self.env.n_processors,
            data_mode=self.data_manager.mode.value,
            makespan=makespan,
            bytes_in=self._bytes["in"],
            bytes_out=self._bytes["out"],
            storage_byte_seconds=self.storage.byte_seconds(
                self.start_time, self._finished_at
            ),
            peak_storage_bytes=self.storage.peak_bytes(),
            cpu_busy_seconds=self._held_seconds,
            compute_seconds=self._compute_seconds,
            n_transfers_in=self._n_transfers["in"],
            n_transfers_out=self._n_transfers["out"],
            n_task_executions=self._n_executions,
            n_task_failures=self._n_failures,
            task_records=self._task_records,
            transfer_records=self._transfer_records,
            storage_curve=self.storage.usage_curve
            if self.env.record_trace
            else None,
            busy_curve=self.processors.busy_curve
            if self.env.record_trace
            else None,
        )


def simulate(
    workflow: Workflow,
    n_processors: int,
    data_mode: DataMode | str = DataMode.REGULAR,
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
    storage_capacity_bytes: float | None = None,
    task_overhead_seconds: float = 0.0,
    compute_ready_seconds: float = 0.0,
    link_contention: bool = False,
    separate_links: bool = False,
    ordering: TaskOrdering = FIFO_ORDER,
    failures: FailureModel | None = None,
    record_trace: bool = True,
    audit: bool = False,
    kernel: str | None = None,
) -> SimulationResult:
    """Simulate one workflow execution (the main library entry point).

    With ``audit=True`` the result is reconciled against its own event
    trace by :func:`repro.audit.audit_simulation` before being returned
    (raising :class:`repro.audit.AuditError` on any violation); this
    forces ``record_trace`` on.

    ``kernel`` selects the execution backend (default: the
    ``REPRO_SIM_KERNEL`` environment variable, else ``"auto"``):

    * ``"auto"`` — use the fast array kernel (:mod:`repro.sim.kernel`)
      unless the run is audited; every configuration is eligible,
      failure injection included (the kernel consumes the model's
      seeded draw stream at the engine's exact completion points).
      Both backends produce numerically identical results, so the
      choice is invisible except in wall-clock time.
    * ``"event"`` — always the callback event engine.
    * ``"fast"`` — force the fast kernel.  Unlike ``"auto"``, an
      audited run keeps the fast kernel and the oracle reconciles the
      kernel-emitted records.

    Example
    -------
    >>> from repro.montage import montage_1_degree
    >>> result = simulate(montage_1_degree(), n_processors=8,
    ...                   data_mode="cleanup")
    >>> result.makespan > 0
    True
    """
    # Imported lazily to avoid a cycle (the kernel reuses sim types).
    from repro.sim.kernel import resolve_kernel, run_fast_kernel

    env = ExecutionEnvironment(
        n_processors=n_processors,
        bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
        storage_capacity_bytes=storage_capacity_bytes,
        task_overhead_seconds=task_overhead_seconds,
        compute_ready_seconds=compute_ready_seconds,
        link_contention=link_contention,
        separate_links=separate_links,
        record_trace=record_trace or audit,
    )
    resolved = resolve_kernel(kernel)
    if resolved == "fast":
        use_fast = True
    elif resolved == "auto":
        # Every configuration is kernel-eligible; only the audit path
        # stays on the event engine so the oracle always exercises the
        # reference implementation, never only the kernel.
        use_fast = not audit
    else:
        use_fast = False
    if use_fast:
        result = run_fast_kernel(
            workflow, env, data_mode, ordering=ordering, failures=failures
        )
    else:
        result = WorkflowExecutor(
            workflow, env, data_mode, ordering=ordering, failures=failures
        ).run()
    if audit:
        # Imported lazily: repro.audit sits above the sim layer.
        from repro.audit import audit_simulation

        audit_simulation(
            result, workflow, env, failures=failures
        ).raise_if_failed()
    return result
