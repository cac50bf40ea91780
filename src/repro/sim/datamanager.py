"""The three data-management execution modes of Section 3.

* **Regular** — all workflow inputs are staged in up front; every file
  produced stays on cloud storage until the whole workflow has finished and
  the net outputs have been staged out, after which everything is deleted.
* **Dynamic cleanup** — like Regular, but a file is deleted as soon as no
  remaining task needs it (driven by the static
  :func:`repro.workflow.cleanup.cleanup_plan`), shrinking the storage
  footprint — the paper cites ~50% reductions for Montage-like workflows.
* **Remote I/O** — no shared storage is assumed: each task stages in its
  own copies of its inputs from the user side, executes, stages *all* its
  outputs back out, and its files are removed.  Files used by several tasks
  cross the link once per use, and intermediate products also flow back to
  the user, so this mode maximizes transfer volume while minimizing storage
  occupancy.

A data manager owns file lifecycles: it issues link transfers, adds/removes
objects on :class:`~repro.sim.resources.Storage`, and tells the executor
when a task's data is in place (``executor.task_data_ready``).  The
executor owns task lifecycles and processors.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.sim.resources import size_units
from repro.workflow.cleanup import cleanup_plan, releasers_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.executor import WorkflowExecutor

__all__ = [
    "DataMode",
    "DataManager",
    "RegularDataManager",
    "CleanupDataManager",
    "RemoteIODataManager",
    "make_data_manager",
]


class DataMode(enum.Enum):
    """The paper's three execution modes."""

    REMOTE_IO = "remote-io"
    REGULAR = "regular"
    CLEANUP = "cleanup"


class DataManager:
    """Common machinery; subclasses implement the mode-specific policy."""

    mode: DataMode

    def __init__(self) -> None:
        self._ex: "WorkflowExecutor" | None = None
        #: transfers (or other async work) still in flight
        self._outstanding = 0

    # -- wiring --------------------------------------------------------- #
    def bind(self, executor: "WorkflowExecutor") -> None:
        self._ex = executor

    @property
    def ex(self) -> "WorkflowExecutor":
        assert self._ex is not None, "data manager not bound to an executor"
        return self._ex

    @property
    def idle(self) -> bool:
        """True when no transfers are in flight."""
        return self._outstanding == 0

    # -- hooks the executor calls --------------------------------------- #
    def on_start(self) -> None:
        raise NotImplementedError

    def reserve_for_task(self, task_id: str) -> bool:
        """Claim storage the task will need before it is dispatched.

        Returns False when a finite storage capacity cannot admit the task
        yet; the executor then leaves it queued (head-of-line) and retries
        when space frees.  The default (infinite capacity) always admits.
        """
        ex = self.ex
        if ex.storage.capacity_bytes is None:
            return True
        return ex.storage.reserve(self._reservation_units(task_id))

    def _reservation_units(self, task_id: str) -> int:
        """Storage units to reserve at dispatch; subclasses refine."""
        wf = self.ex.workflow
        return sum(
            size_units(wf.file(f).size_bytes) for f in wf.task(task_id).outputs
        )

    def _materialize(self, key, size: float, reserved: bool) -> None:
        """Add an object; convert its reservation if one was held.

        Ordering matters: add first, release the reservation after, so the
        committed byte count never transiently undercounts.
        """
        self.ex.storage.add(key, size, self.ex.engine.now)
        if reserved:
            self.ex.storage.release_reservation(size_units(size))

    def prepare_task(self, task_id: str, begin) -> None:
        """Called at dispatch time, once a processor is held for the task.

        ``begin()`` starts the computation; shared-storage modes call it
        immediately (the data is already local), Remote I/O first pulls the
        task's input copies over the link while the processor waits — the
        task "does remote I/O".
        """
        begin()

    def on_task_completed(self, task_id: str) -> None:
        raise NotImplementedError

    def on_all_tasks_done(self) -> None:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------- #
    def _transfer(
        self,
        file_name: str,
        direction: str,
        on_done,
        task_id: str | None = None,
    ) -> None:
        """Queue one file transfer and schedule its completion callback."""
        ex = self.ex
        size = ex.workflow.file(file_name).size_bytes
        link = ex.link_in if direction == "in" else ex.link_out
        # On a contended (FIFO) link the transfer starts when the queue
        # drains; on a dedicated link it starts the instant it is
        # requested — using busy_until there back-dated records behind
        # unrelated transfers and could even record start > end.
        if link.contended:
            start = max(ex.engine.now, link.busy_until)
        else:
            start = ex.engine.now
        end = link.request(size, ex.engine.now, direction)
        ex.record_transfer(file_name, size, direction, start, end, task_id)
        self._outstanding += 1

        def _done() -> None:
            self._outstanding -= 1
            on_done()

        ex.engine.schedule_at(end, _done)


class _SharedStorageManager(DataManager):
    """Base for Regular and Cleanup: one shared copy of each file.

    Task readiness is file-driven: a task may run once all its input files
    exist on the shared storage.  Intermediate files appear exactly when
    their producer completes, so this is equivalent to "parents done and
    initial inputs staged in".
    """

    def __init__(self) -> None:
        super().__init__()
        self._pending: dict[str, set[str]] = {}
        self._stage_in_queue: list[str] = []
        self._gated = False
        self._pumping = False
        #: capacity kept clear of stage-ins so some task can always
        #: reserve its outputs (the largest single-task output set) —
        #: without it, greedy staging fills the store with inputs and
        #: deadlocks dispatch.
        self._headroom = 0
        self._stage_outs_left = 0

    def on_start(self) -> None:
        wf = self.ex.workflow
        self._gated = self.ex.storage.capacity_bytes is not None
        self._pending = {
            tid: set(task.inputs) for tid, task in wf.tasks.items()
        }
        for tid, missing in self._pending.items():
            if not missing:
                self.ex.task_data_ready(tid)
        self._stage_in_queue = list(wf.input_files())
        if self._gated:
            self._headroom = max(
                map(self._reservation_units, wf.tasks), default=0
            )
            self.ex.storage.subscribe_space_freed(self._pump_stage_ins)
        self._pump_stage_ins()

    def _pump_stage_ins(self) -> None:
        """Submit queued stage-ins as far as the capacity admits (FIFO)."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._stage_in_queue:
                fname = self._stage_in_queue[0]
                size = self.ex.workflow.file(fname).size_bytes
                if self._gated:
                    storage = self.ex.storage
                    units = size_units(size)
                    # Leave output headroom — except when the store is
                    # completely empty, where holding back cannot help.
                    admissible = storage.fits(units + self._headroom) or (
                        storage.committed_units == 0
                    )
                    if not (admissible and storage.reserve(units)):
                        break
                self._stage_in_queue.pop(0)
                self._stage_in(fname, size)
        finally:
            self._pumping = False

    def _stage_in(self, fname: str, size: float) -> None:
        def arrived() -> None:
            self._materialize(fname, size, reserved=self._gated)
            self._file_available(fname)

        self._transfer(fname, "in", arrived)

    def _file_available(self, fname: str) -> None:
        for consumer in sorted(self.ex.workflow.consumers_of(fname)):
            missing = self._pending[consumer]
            missing.discard(fname)
            if not missing:
                self.ex.task_data_ready(consumer)

    def on_task_completed(self, task_id: str) -> None:
        wf = self.ex.workflow
        for fname in wf.task(task_id).outputs:
            self._materialize(
                fname, wf.file(fname).size_bytes, reserved=self._gated
            )
        self._after_outputs_stored(task_id)
        # Availability notifications may mark tasks ready; do them after
        # any cleanup bookkeeping so deletions can't race new readiness.
        for fname in wf.task(task_id).outputs:
            self._file_available(fname)

    def _after_outputs_stored(self, task_id: str) -> None:
        """Cleanup subclass hook; Regular keeps everything."""

    def on_all_tasks_done(self) -> None:
        outputs = self.ex.workflow.output_files()
        if not outputs:
            self._finalize()
            return
        self._stage_outs_left = len(outputs)
        for fname in outputs:
            self._stage_out(fname)

    def _stage_out(self, fname: str) -> None:
        def done() -> None:
            self._on_stage_out_complete(fname)
            self._stage_outs_left -= 1
            if self._stage_outs_left == 0:
                self._finalize()

        self._transfer(fname, "out", done)

    def _on_stage_out_complete(self, fname: str) -> None:
        """Cleanup subclass deletes each output as it lands at the user."""

    def _finalize(self) -> None:
        """Delete whatever is still on storage, then finish the run."""
        storage = self.ex.storage
        now = self.ex.engine.now
        for key in list(storage._objects):  # noqa: SLF001 - same package
            storage.remove(key, now)
        self.ex.finish()


class RegularDataManager(_SharedStorageManager):
    """Section 3, *Regular* mode: keep every file until the workflow ends."""

    mode = DataMode.REGULAR


class CleanupDataManager(_SharedStorageManager):
    """Section 3, *Dynamic cleanup* mode: delete files once no longer needed.

    Uses the static analysis of :func:`repro.workflow.cleanup.cleanup_plan`
    (the Pegasus workflow-level data-use analysis the paper references):
    when a task completes, any file whose remaining consumers have all
    completed is removed immediately.  Net outputs are protected until
    their final stage-out completes.
    """

    mode = DataMode.CLEANUP

    def __init__(self) -> None:
        super().__init__()
        self._completed: set[str] = set()
        self._release_index: dict[str, list[str]] = {}
        self._release_sets: dict[str, frozenset[str]] = {}

    def on_start(self) -> None:
        plan = cleanup_plan(self.ex.workflow)
        self._release_index = releasers_index(plan)
        self._release_sets = plan.release_after
        super().on_start()

    def _after_outputs_stored(self, task_id: str) -> None:
        self._completed.add(task_id)
        now = self.ex.engine.now
        for fname in self._release_index.get(task_id, ()):
            if self._release_sets[fname] <= self._completed:
                # The file may never have been staged in if the run aborts
                # early; during normal execution it is always present.
                if fname in self.ex.storage:
                    self.ex.storage.remove(fname, now)

    def _on_stage_out_complete(self, fname: str) -> None:
        self.ex.storage.remove(fname, self.ex.engine.now)


class RemoteIODataManager(DataManager):
    """Section 3, *Remote I/O (on-demand)* mode.

    Per task: stage in its inputs, execute, stage out all outputs to the
    user, then drop what is no longer in use.  A producer's output becomes
    available to its consumers only once it has landed back at the user
    side.  Every (task, file) use is billed as its own transfer — that is
    what makes this mode transfer-heavy — but resource storage holds a
    single reference-counted copy per file: a file occupies storage only
    while at least one running task uses it (or while it awaits its own
    stage-out), which is why remote I/O shows the *least* storage in the
    paper's Figures 7-9.
    """

    mode = DataMode.REMOTE_IO

    def __init__(self) -> None:
        super().__init__()
        self._user_available: set[str] = set()
        self._user_pending: dict[str, set[str]] = {}
        self._copies_pending: dict[str, set[str]] = {}
        #: file -> number of current holders (running consumers, or its
        #: pending stage-out); the file is on storage iff refcount > 0
        self._refcount: dict[str, int] = {}
        self._gated = False

    def on_start(self) -> None:
        wf = self.ex.workflow
        self._gated = self.ex.storage.capacity_bytes is not None
        self._user_pending = {
            tid: set(task.inputs) for tid, task in wf.tasks.items()
        }
        for tid, missing in list(self._user_pending.items()):
            if not missing:
                self.ex.task_data_ready(tid)
        for fname in wf.input_files():
            self._mark_user_available(fname)

    def _mark_user_available(self, fname: str) -> None:
        self._user_available.add(fname)
        for consumer in sorted(self.ex.workflow.consumers_of(fname)):
            missing = self._user_pending[consumer]
            missing.discard(fname)
            if not missing:
                # Eligible to be dispatched; copies are pulled only once a
                # processor is assigned (prepare_task).
                self.ex.task_data_ready(consumer)

    def prepare_task(self, task_id: str, begin) -> None:
        task = self.ex.workflow.task(task_id)
        if not task.inputs:
            begin()
            return
        self._copies_pending[task_id] = set(task.inputs)
        for fname in task.inputs:
            self._stage_in_copy(task_id, fname, begin)

    def _reservation_units(self, task_id: str) -> int:
        # A remote task needs room for its input copies and its outputs
        # before it can occupy a processor.  (Conservative when an input
        # is already resident for a concurrent task.)
        wf = self.ex.workflow
        task = wf.task(task_id)
        return sum(
            size_units(wf.file(f).size_bytes)
            for f in (*task.inputs, *task.outputs)
        )

    def _retain(self, fname: str, reserved: bool = False) -> None:
        count = self._refcount.get(fname, 0)
        size = self.ex.workflow.file(fname).size_bytes
        if count == 0:
            self.ex.storage.add(fname, size, self.ex.engine.now)
        if reserved:
            self.ex.storage.release_reservation(size_units(size))
        self._refcount[fname] = count + 1

    def _release(self, fname: str) -> None:
        count = self._refcount[fname] - 1
        if count == 0:
            del self._refcount[fname]
            self.ex.storage.remove(fname, self.ex.engine.now)
        else:
            self._refcount[fname] = count

    def _stage_in_copy(self, task_id: str, fname: str, begin) -> None:
        def arrived() -> None:
            self._retain(fname, reserved=self._gated)
            missing = self._copies_pending[task_id]
            missing.discard(fname)
            if not missing:
                del self._copies_pending[task_id]
                begin()

        self._transfer(fname, "in", arrived, task_id=task_id)

    def on_task_completed(self, task_id: str) -> None:
        wf = self.ex.workflow
        task = wf.task(task_id)
        for fname in task.inputs:
            self._release(fname)
        for fname in task.outputs:
            self._retain(fname, reserved=self._gated)
            self._stage_out(fname, task_id)

    def _stage_out(self, fname: str, task_id: str) -> None:
        def done() -> None:
            self._release(fname)
            self._mark_user_available(fname)
            self.ex.maybe_finish()

        self._transfer(fname, "out", done, task_id=task_id)

    def on_all_tasks_done(self) -> None:
        # Outputs were staged out as produced; the run ends when the last
        # stage-out drains (maybe_finish checks `idle`).
        self.ex.maybe_finish()


def make_data_manager(mode: DataMode | str) -> DataManager:
    """Instantiate the data manager for a mode name or enum value."""
    if isinstance(mode, str):
        mode = DataMode(mode)
    return {
        DataMode.REGULAR: RegularDataManager,
        DataMode.CLEANUP: CleanupDataManager,
        DataMode.REMOTE_IO: RemoteIODataManager,
    }[mode]()
