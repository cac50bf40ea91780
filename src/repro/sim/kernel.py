"""Array-based fast-path simulation kernel (single-run and batched).

The generic event engine's flexibility (arbitrary callbacks, pluggable
data managers, admission control) is pure overhead for the resource
models this repo actually sweeps: every event allocates a closure, every
file lookup hashes a string, every availability notification re-sorts a
consumer set.

This module is a specialized replacement.  The workflow is first
*lowered* to integer-indexed arrays — index maps, per-task input/output
index lists, pre-sorted consumer lists, numpy-built size/runtime vectors
— and the lowering is memoized per workflow (held weakly, guarded by the
workflow's mutation :attr:`~repro.workflow.dag.Workflow.version`), so
sweeps re-simulating one DAG under many environments pay it once.  The
run itself is a single flat event loop over ``(time, seq, kind, ...)``
tuples that replicates the engine's scheduling discipline *exactly*:

* events are ordered by ``(time, sequence)`` and the sequence counter is
  incremented at precisely the program points where the engine would call
  ``SimulationEngine.schedule``, so ties resolve identically;
* every float expression matches the engine's parenthesization
  (``now + size / bandwidth`` for transfers, ``max(now, busy_until)``
  for a contended link's queue drain, ``now + (overhead + runtime)`` for
  completions) and every accumulator (bytes, CPU-busy seconds, compute
  seconds) is summed in the same order;
* storage and processor occupancy deltas are recorded in engine order and
  replayed through the same :class:`~repro.util.curve.StepCurve`, so the
  byte-seconds integral, the peak and the curves themselves are
  bit-identical (StepCurve coalescing of same-time deltas is
  order-sensitive under float arithmetic);
* with infinite storage, a ready task finding a free processor and an
  empty ready queue is dispatched without touching the queue at all —
  observationally identical to the engine's push-then-pop, and the
  common case on the wide phases of Montage-like workflows.

Two replay loops serve every entry point, chosen by one rule
(:func:`_turbo_eligible`, applied in :func:`_run_routed`):

* the "turbo" loop, :func:`_run_turbo_core`, takes traceless runs on an
  uncontended link with infinite storage in regular or cleanup mode.
  It merges the statically known stage-in arrival stream with a small
  completion heap and integrates the storage curve incrementally
  instead of materializing it;
* the general loop, :func:`_run_single`, takes everything else: traced
  runs, contended (FIFO) links modelled inline by tracking each lane's
  ``busy_until``, remote I/O and finite storage.  A finite capacity
  adds the engine's reservation / admission-control cascade
  (head-of-line dispatch reservations, gated stage-in pumping with
  output headroom, space-freed retry order), mirrored statement for
  statement.

Three entry points share the lowering and the routing:

* :func:`run_fast_kernel` — one configuration, any data mode, traced or
  not.
* :func:`run_fast_kernel_batch` — many configurations over one DAG.
  The lowering, per-bandwidth transfer durations, per-overhead
  execution durations and the sorted stage-in arrival schedule are
  cached on the lowering, so a batch computes each of them once.
* :func:`run_monte_carlo` — one configuration replayed over a whole
  (probability, seed) grid of failure injections.  Per-seed uniform
  draws are pre-drawn with vectorized numpy generators and shared
  across every probability (a fresh model restarts the stream, so one
  seed replays one buffer), cells with equal verdict prefixes replay
  once, and summary-only cells skip trace and curve materialization
  entirely.  On FIFO turbo configurations the same turbo loop takes
  the cell's verdict array and *forks*: the distinct failing verdict
  prefixes replay in trie order, rooted at the failure-free run, and
  each resumes from a checkpoint at the deepest completion event it
  shares with any earlier replay instead of re-simulating the shared
  prefix.

Failure injection replays bit-identically too: the loops reproduce the
engine's exact ``(time, seq)`` event order, so consuming the seeded
``default_rng`` stream at each completion event — one draw per finished
attempt, none when the probability is zero — yields identical retry
schedules, wasted-attempt re-billing and
:class:`~repro.sim.failures.WorkflowAbortedError` timing.  A failed
attempt re-executes immediately on the same still-held processor
(attempt counter bumped, compute re-billed, completion re-scheduled at
exactly the engine's sequence point) and an exhausted retry budget
raises before the attempt's record is written, like the engine's
``completed`` callback.

The result is numerically identical to the event engine — enforced by the
differential Hypothesis suite in ``tests/sim/test_kernel_differential.py``
(contended links, finite capacities and failure injection included) and
by running the :mod:`repro.audit` oracle over kernel-emitted records — at
a fraction of the interpreter work per event.

:func:`repro.sim.simulate` dispatches here automatically under
``kernel="auto"`` (the default, overridable via the ``REPRO_SIM_KERNEL``
environment variable); the kernel handles every resource model, so only
audited runs pin the event engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.sim.datamanager import DataMode
from repro.sim.failures import (
    FailureModel,
    WorkflowAbortedError,
    check_failure_parameters,
)
from repro.sim.resources import admission_limit, size_units
from repro.sim.results import SimulationResult, TaskRecord, TransferRecord
from repro.sim.scheduler import FIFO_ORDER, TaskOrdering
from repro.util.curve import StepCurve
from repro.workflow.dag import Workflow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.executor import ExecutionEnvironment

__all__ = [
    "KERNEL_ENV",
    "KERNELS",
    "SUMMARY_DTYPE",
    "KernelConfig",
    "MonteCarloCell",
    "resolve_kernel",
    "run_fast_kernel",
    "run_fast_kernel_batch",
    "run_monte_carlo",
    "summary_batch",
]

#: Environment override for the kernel choice ("auto", "event", "fast").
KERNEL_ENV = "REPRO_SIM_KERNEL"

#: Valid kernel names.
KERNELS = ("auto", "event", "fast")


def resolve_kernel(kernel: str | None = None) -> str:
    """Effective kernel name: explicit argument, else env var, else auto."""
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV, "").strip().lower() or "auto"
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown simulation kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


# ------------------------------------------------------------------ #
# columnar summary results (structure-of-arrays record batches)
# ------------------------------------------------------------------ #
#: One summary row per simulated cell: the scalar metrics of a
#: :class:`~repro.sim.results.SimulationResult` (everything but records
#: and curves) plus an abort flag.  ~100 bytes/cell, so a million-cell
#: campaign grid fits in ~100 MB where per-cell result objects would
#: need gigabytes.
SUMMARY_DTYPE = np.dtype(
    [
        ("makespan", np.float64),
        ("bytes_in", np.float64),
        ("bytes_out", np.float64),
        ("storage_byte_seconds", np.float64),
        ("peak_storage_bytes", np.float64),
        ("cpu_busy_seconds", np.float64),
        ("compute_seconds", np.float64),
        ("n_transfers_in", np.int64),
        ("n_transfers_out", np.int64),
        ("n_task_executions", np.int64),
        ("n_task_failures", np.int64),
        ("aborted", np.bool_),
    ]
)


def summary_batch(n_cells: int) -> np.ndarray:
    """Preallocate a zeroed :data:`SUMMARY_DTYPE` record batch.

    Pass (slices of) it as the ``out=`` argument of
    :func:`run_fast_kernel_batch` / :func:`run_monte_carlo` to collect
    summary-only results columnar instead of materializing per-cell
    objects.
    """
    return np.zeros(n_cells, dtype=SUMMARY_DTYPE)


def _summary_row(r: SimulationResult) -> tuple:
    """A result's scalar metrics as one :data:`SUMMARY_DTYPE` row."""
    return (
        r.makespan,
        r.bytes_in,
        r.bytes_out,
        r.storage_byte_seconds,
        r.peak_storage_bytes,
        r.cpu_busy_seconds,
        r.compute_seconds,
        r.n_transfers_in,
        r.n_transfers_out,
        r.n_task_executions,
        r.n_task_failures,
        False,
    )


#: Row written for an aborted Monte Carlo cell (all metrics zero).
_ABORT_ROW = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, True)


# ------------------------------------------------------------------ #
# workflow lowering (memoized)
# ------------------------------------------------------------------ #
class _Lowering:
    """Integer-indexed view of one workflow, shared across runs."""

    __slots__ = (
        "version",
        "n_tasks",
        "n_files",
        "task_ids",
        "fnames",
        "transformations",
        "runtimes_arr",
        "runtimes",
        "sizes_arr",
        "sizes",
        "task_inputs",
        "task_outputs",
        "n_inputs",
        "consumers",
        "input_fidx",
        "output_fidx",
        "no_input_tasks",
        "stage_in_bytes",
        "stage_out_bytes",
        "release_candidates",
        "release_need",
        "_tr_cache",
        "_exec_cache",
        "_arrival_cache",
    )

    #: Per-parameter derived vectors kept per lowering; sweeps touch a
    #: handful of bandwidth/overhead values, so a small bound suffices.
    _CACHE_LIMIT = 8

    def __init__(self, workflow: Workflow, version: int) -> None:
        workflow.validate()
        self.version = version
        task_ids = list(workflow.tasks.keys())
        tasks = list(workflow.tasks.values())
        fnames = list(workflow.files.keys())
        findex = {f: i for i, f in enumerate(fnames)}
        n_tasks = len(tasks)
        n_files = len(fnames)
        self.n_tasks = n_tasks
        self.n_files = n_files
        self.task_ids = task_ids
        self.fnames = fnames
        self.transformations = [t.transformation for t in tasks]
        self.runtimes_arr = np.array(
            [t.runtime for t in tasks], dtype=np.float64
        )
        self.runtimes = self.runtimes_arr.tolist()
        self.sizes_arr = np.array(
            [workflow.files[f].size_bytes for f in fnames], dtype=np.float64
        )
        self.sizes = self.sizes_arr.tolist()
        task_inputs = [[findex[f] for f in t.inputs] for t in tasks]
        task_outputs = [[findex[f] for f in t.outputs] for t in tasks]
        self.task_inputs = task_inputs
        self.task_outputs = task_outputs
        self.n_inputs = [len(t.inputs) for t in tasks]
        # The engine notifies a file's consumers in sorted(task_id) order;
        # visiting tasks in that order makes each per-file list come out
        # pre-sorted from a single linear pass.
        consumers: list[list[int]] = [[] for _ in range(n_files)]
        for t in sorted(range(n_tasks), key=task_ids.__getitem__):
            for f in task_inputs[t]:
                consumers[f].append(t)
        self.consumers = consumers
        self.input_fidx = [findex[f] for f in workflow.input_files()]
        self.output_fidx = [findex[f] for f in workflow.output_files()]
        self.no_input_tasks = [
            t for t in range(n_tasks) if not self.n_inputs[t]
        ]
        # Left-fold sums in submission order — identical to the per-run
        # ``bytes += size`` accumulation the event engine performs.
        sizes = self.sizes
        acc = 0.0
        for f in self.input_fidx:
            acc += sizes[f]
        self.stage_in_bytes = acc
        acc = 0.0
        for f in self.output_fidx:
            acc += sizes[f]
        self.stage_out_bytes = acc
        # Cleanup-mode analysis, built on first cleanup run.
        self.release_candidates: list[list[int]] | None = None
        self.release_need: list[int] | None = None
        self._tr_cache: dict[float, list[float]] = {}
        self._exec_cache: dict[float, list[float]] = {}
        self._arrival_cache: dict = {}

    def cleanup_tables(self) -> tuple[list[list[int]], list[int]]:
        """Per-task release candidates + releaser counts (lazy, cached).

        Same analysis as :func:`repro.workflow.cleanup.cleanup_plan` /
        :func:`~repro.workflow.cleanup.releasers_index` (a non-output
        file is released once all its consumers — or, if it has none,
        its producer — have completed), rebuilt directly on the lowered
        arrays: candidate lists match the engine's, file order included.
        """
        if self.release_candidates is None:
            candidates: list[list[int]] = [[] for _ in range(self.n_tasks)]
            need = [0] * self.n_files
            producer = [-1] * self.n_files
            for t, outs in enumerate(self.task_outputs):
                for f in outs:
                    producer[f] = t
            protected = set(self.output_fidx)
            for f, cons in enumerate(self.consumers):
                if f in protected:
                    continue
                releasers = cons if cons else (
                    [producer[f]] if producer[f] >= 0 else ()
                )
                need[f] = len(releasers)
                for t in releasers:
                    candidates[t].append(f)
            self.release_candidates = candidates
            self.release_need = need
        return self.release_candidates, self.release_need

    # -- per-parameter derived vectors (batched runs share these) ------ #
    def transfer_durations(self, bandwidth: float) -> list[float]:
        """``size / bandwidth`` per file — the engine's per-transfer op."""
        dur = self._tr_cache.get(bandwidth)
        if dur is None:
            if len(self._tr_cache) >= self._CACHE_LIMIT:
                self._tr_cache.clear()
            dur = (self.sizes_arr / bandwidth).tolist()
            self._tr_cache[bandwidth] = dur
        return dur

    def exec_durations(self, overhead: float) -> list[float]:
        """``overhead + runtime`` per task — the engine's dispatch op."""
        dur = self._exec_cache.get(overhead)
        if dur is None:
            if len(self._exec_cache) >= self._CACHE_LIMIT:
                self._exec_cache.clear()
            dur = (overhead + self.runtimes_arr).tolist()
            self._exec_cache[overhead] = dur
        return dur

    def arrival_schedule(
        self, bandwidth: float
    ) -> tuple[list[float], list[int], list[int]]:
        """Stage-in arrivals pre-sorted by (end time, submission order).

        On an uncontended link every shared-mode stage-in is submitted at
        t=0 and lands at ``size / bandwidth``; the heap order of those
        arrival events is therefore known statically per bandwidth.
        Returns parallel lists ``(times, file_indices, submission_ranks)``
        — the rank recovers each arrival's engine sequence number
        (``base + rank``), keeping ties against other events exact.
        """
        sched = self._arrival_cache.get(bandwidth)
        if sched is None:
            if len(self._arrival_cache) >= self._CACHE_LIMIT:
                self._arrival_cache.clear()
            dur = self.transfer_durations(bandwidth)
            input_fidx = self.input_fidx
            order = sorted(
                range(len(input_fidx)), key=lambda i: dur[input_fidx[i]]
            )
            sched = (
                [dur[input_fidx[i]] for i in order],
                [input_fidx[i] for i in order],
                order,
            )
            self._arrival_cache[bandwidth] = sched
        return sched

    def with_runtimes(self, workflow: Workflow, version: int) -> "_Lowering":
        """Lowering of ``workflow``, a runtime-only variant of this one.

        Shares every structural list, the cleanup tables and the
        size-only transfer/arrival caches; only the runtime vector and
        the ``overhead + runtime`` cache are the variant's own — a
        shared exec cache would hand one plate another's durations.
        """
        self.cleanup_tables()
        low = _Lowering.__new__(_Lowering)
        for slot in _Lowering.__slots__:
            setattr(low, slot, getattr(self, slot))
        low.version = version
        low.runtimes_arr = np.array(
            [t.runtime for t in workflow.tasks.values()], dtype=np.float64
        )
        low.runtimes = low.runtimes_arr.tolist()
        low._exec_cache = {}
        return low


_LOWERINGS: "WeakKeyDictionary[Workflow, _Lowering]" = WeakKeyDictionary()


def _lowering(workflow: Workflow) -> _Lowering:
    version = workflow.version  # bumped by every structural mutation
    low = _LOWERINGS.get(workflow)
    if low is None or low.version != version:
        link = workflow._base
        if version == 0 and link is not None and link[0].version == link[1]:
            # A runtime-only copy (it starts at version 0) that neither
            # it nor its base has been mutated since.
            low = _lowering(link[0]).with_runtimes(workflow, version)
        else:
            low = _Lowering(workflow, version)
        _LOWERINGS[workflow] = low
    return low


# Event kinds (only reached if (time, seq) ever tied, which it cannot —
# seq is unique — so their relative values carry no scheduling meaning).
_BOOT = 0  # boot-delay wakeup
_SIN = 1  # shared-storage stage-in arrival          a = file index
_DONE = 2  # task completion                          a = task index
_SOUT = 3  # shared-storage stage-out completion      a = file index
_COPY = 4  # remote-I/O input copy arrival            a = task, b = file
_ROUT = 5  # remote-I/O per-task stage-out completion a = task, b = file


@dataclass(frozen=True)
class KernelConfig:
    """One configuration of a :func:`run_fast_kernel_batch` call.

    Bundles exactly the per-run parameters of :func:`run_fast_kernel`
    minus the workflow, which the batch shares.  ``failures`` is a
    stateful :class:`~repro.sim.failures.FailureModel`; build a fresh one
    per batch call (the sweep layer does this from its declarative
    ``FailureSpec``), since its RNG stream is consumed by the replay.
    """

    environment: "ExecutionEnvironment"
    data_mode: DataMode | str = DataMode.REGULAR
    ordering: TaskOrdering = field(default=FIFO_ORDER)
    failures: FailureModel | None = None


def _failure_hook(low: _Lowering, failures: FailureModel | None):
    """Per-completion draw callable, or None when no draw is consumed.

    Mirrors :meth:`FailureModel.attempt_fails` exactly: a zero
    probability never touches the RNG (the hook is None and the
    no-failure loops run byte-for-byte unchanged), and the abort raise
    carries the engine's message verbatim because it *is* the model's
    own raise.
    """
    if failures is None or failures.task_failure_probability == 0.0:
        return None
    ids = low.task_ids
    attempt_fails = failures.attempt_fails

    def fail(t: int, attempt: int) -> bool:
        return attempt_fails(ids[t], attempt)

    return fail


def run_fast_kernel(
    workflow: Workflow,
    environment,
    data_mode: DataMode | str = DataMode.REGULAR,
    ordering: TaskOrdering = FIFO_ORDER,
    failures: FailureModel | None = None,
) -> SimulationResult:
    """Execute one workflow on the fast kernel.

    Handles every :class:`~repro.sim.executor.ExecutionEnvironment` —
    contended FIFO links, finite storage capacities and failure
    injection included.  A supplied ``failures`` model has its seeded
    draw stream consumed at the same completion-event points as the
    event engine's, so retry schedules, re-billing and
    :class:`~repro.sim.failures.WorkflowAbortedError` raises (which
    propagate out of this call) are bit-identical.  The loop is chosen
    by :func:`_run_routed`, like every entry point's.
    """
    if isinstance(data_mode, str):
        data_mode = DataMode(data_mode)
    low = _lowering(workflow)
    fail = _failure_hook(low, failures)
    tr_dur = (low.sizes_arr / environment.bandwidth_bytes_per_sec).tolist()
    exec_dur = (
        environment.task_overhead_seconds + low.runtimes_arr
    ).tolist()
    return _run_routed(
        workflow, low, environment, data_mode, ordering, tr_dur, exec_dur,
        fail,
    )


def _turbo_eligible(low: _Lowering, environment, data_mode: DataMode) -> bool:
    """Whether a run takes the turbo loop (:func:`_run_turbo_core`).

    That loop needs statically known stage-in arrivals and no trace:
    infinite storage, an uncontended link, shared storage (regular or
    cleanup mode), no trace and at least one task.
    """
    return bool(
        environment.storage_capacity_bytes is None
        and not environment.record_trace
        and not environment.link_contention
        and data_mode is not DataMode.REMOTE_IO
        and low.n_tasks
    )


def _run_routed(
    workflow: Workflow,
    low: _Lowering,
    environment,
    data_mode: DataMode,
    ordering: TaskOrdering,
    tr_dur: list[float],
    exec_dur: list[float],
    fail=None,
    *,
    row: bool = False,
) -> SimulationResult | tuple:
    """Replay one run on the loop :func:`_turbo_eligible` picks.

    The single place the fast kernel chooses between its two loops:
    the turbo loop when eligible, else the general loop,
    :func:`_run_single`.  Returns a :class:`SimulationResult`, or with
    ``row`` the run's :data:`SUMMARY_DTYPE` row as a tuple — a turbo
    run then never builds a result object.
    """
    if _turbo_eligible(low, environment, data_mode):
        tup = _run_turbo_core(
            workflow, low, environment, data_mode, ordering, tr_dur,
            exec_dur, fail,
        )
        if row:
            return tup + (False,)
        return _result_from_turbo_tuple(workflow, environment, data_mode, tup)
    result = _run_single(
        workflow, low, environment, data_mode, ordering, tr_dur, exec_dur,
        fail,
    )
    return _summary_row(result) if row else result


def run_fast_kernel_batch(
    workflow: Workflow,
    configs: Sequence[KernelConfig],
    *,
    out: np.ndarray | None = None,
    out_offset: int = 0,
) -> list[SimulationResult] | int:
    """Execute many configurations of one workflow in a single pass.

    The DAG is lowered once (reusing the memoized, version-guarded
    :class:`_Lowering`) and the per-parameter derived vectors — transfer
    durations per bandwidth, execution durations per overhead, the
    sorted stage-in arrival schedule — are shared across every
    configuration that uses them, so a 128-point processor ladder pays
    for its array building exactly once.  Each configuration takes the
    loop :func:`_run_routed` picks, so traceless shared-storage
    configurations run on the turbo loop, which skips the event heap for
    stage-in arrivals and integrates the storage curve incrementally.

    Results are bit-identical to per-run :func:`run_fast_kernel` calls
    (and therefore to the event engine), in input order.  A config whose
    failure model exhausts its retry budget raises
    :class:`~repro.sim.failures.WorkflowAbortedError` out of the batch,
    exactly as its own per-run call would.

    With ``out`` (a :data:`SUMMARY_DTYPE` record batch from
    :func:`summary_batch`), the batch runs *summary-only columnar*:
    traces are forced off, each configuration's scalar metrics are
    written straight into ``out[out_offset + i]`` — the turbo loop's
    scalars never materialize a result object at all — and the call
    returns the number of rows written instead of a list.  The row
    values are bit-identical to the fields of the objects a plain call
    would have returned.
    """
    low = _lowering(workflow)
    columnar = out is not None
    results: list[SimulationResult] = []
    for i, cfg in enumerate(configs):
        env = cfg.environment
        mode = cfg.data_mode
        if isinstance(mode, str):
            mode = DataMode(mode)
        if columnar and env.record_trace:
            env = replace(env, record_trace=False)
        result = _run_routed(
            workflow, low, env, mode, cfg.ordering,
            low.transfer_durations(env.bandwidth_bytes_per_sec),
            low.exec_durations(env.task_overhead_seconds),
            _failure_hook(low, cfg.failures),
            row=columnar,
        )
        if columnar:
            out[out_offset + i] = result
        else:
            results.append(result)
    if columnar:
        return len(configs)
    return results


# ------------------------------------------------------------------ #
# shared helpers
# ------------------------------------------------------------------ #
def _replay(deltas: list) -> StepCurve:
    """Replay occupancy deltas into a StepCurve (bit-identical curves).

    Delta times are non-decreasing (heap-ordered events), so this is
    exactly StepCurve.add's tail path: skip zero deltas, coalesce
    same-time deltas into the last value, append otherwise.
    """
    times: list[float] = []
    values: list[float] = []
    for time, delta in deltas:
        if delta == 0.0:
            continue
        if times and time == times[-1]:
            values[-1] += delta
        else:
            values.append((values[-1] if values else 0.0) + delta)
            times.append(time)
    return StepCurve.from_changes(times, values)


# ------------------------------------------------------------------ #
# general loop (any storage, link or data mode; traced or not)
# ------------------------------------------------------------------ #
def _run_single(
    workflow: Workflow,
    low: _Lowering,
    environment,
    data_mode: DataMode,
    ordering: TaskOrdering,
    tr_dur: list[float],
    exec_dur: list[float],
    fail=None,
) -> SimulationResult:
    """Every run the turbo loop does not take, the engine mirrored.

    Traced runs, contended (FIFO) links, remote I/O and finite storage
    all replay here.  A finite ``storage_capacity_bytes`` (``limited``)
    adds the engine's admission cascade: ``Storage``'s exact ledger
    (stored and reserved totals as integer units of ``size_units``, one
    unit list per run, so ``fits`` compares ``stored + reserved + n``
    with ``admission_limit(capacity)`` exactly, on any interpreter),
    the head-of-line dispatch reservation (peek, reserve, break without
    popping on failure), the gated stage-in pump with its output-headroom
    admission rule, and the space-freed notification order — the
    executor's dispatcher first, then the shared-storage pump.  With
    infinite storage the engine subscribes nothing to freed space and
    its pump admits every stage-in at t=0, so those steps drop out.
    Like the engine, the loop runs its heap dry; a run left unfinished
    raises the engine's ``result()`` error, capacity hint included when
    ``limited``.
    """
    remote = data_mode is DataMode.REMOTE_IO
    cleanup = data_mode is DataMode.CLEANUP
    trace = environment.record_trace
    limited = environment.storage_capacity_bytes is not None

    n_tasks = low.n_tasks
    task_ids = low.task_ids
    fnames = low.fnames
    transformations = low.transformations
    runtimes = low.runtimes
    sizes = low.sizes
    task_inputs = low.task_inputs
    task_outputs = low.task_outputs
    n_inputs = low.n_inputs
    consumers = low.consumers
    input_fidx = low.input_fidx
    output_fidx = low.output_fidx

    if cleanup:
        release_candidates, need = low.cleanup_tables()
        release_need = list(need)
    else:
        release_candidates = release_need = None

    fifo = ordering is FIFO_ORDER
    okey = ordering.key

    # Contended (FIFO) link: each lane serializes, `start = max(now,
    # busy_until)`, exactly NetworkLink.request.  With separate_links the
    # out direction queues on its own lane, otherwise both share lane 0.
    contended = environment.link_contention
    lanes = [0.0, 0.0]
    OUT = 1 if environment.separate_links else 0

    if limited:
        # The engine's ledger: exact integer units (DataManager's
        # _reservation_units and _headroom).
        units = [size_units(size) for size in sizes]
        res_files = (
            [i + o for i, o in zip(task_inputs, task_outputs)] if remote
            else task_outputs
        )
        res_units = [sum(units[f] for f in fs) for fs in res_files]
        headroom = max(res_units, default=0)  # read by the pump only
        limit = admission_limit(environment.storage_capacity_bytes)

    # ---------------------------------------------------------------- #
    # mutable run state
    # ---------------------------------------------------------------- #
    now = 0.0
    seq = 0  # engine schedule counter (relative order is what matters)
    rseq = 0  # ready-queue arrival counter (non-FIFO tie-break)
    heap: list = []
    ready: list = []  # FIFO: list-as-queue with pop cursor; else a heap
    ready_head = 0
    free = environment.n_processors
    ready_at = environment.compute_ready_seconds
    booting = ready_at > 0.0
    boot_scheduled = False
    n_done = 0
    n_exec = 0
    n_failures = 0
    compute_seconds = 0.0
    held_seconds = 0.0
    bytes_in = 0.0
    bytes_out = 0.0
    n_in = 0
    n_out = 0
    outstanding = 0  # in-flight transfers (remote-I/O finish condition)
    stage_outs_left = 0
    finished_at: float | None = None
    acquired_at = [0.0] * n_tasks
    started_at = [0.0] * n_tasks
    attempts = [1] * n_tasks if fail is not None else None
    pending = list(n_inputs)  # files still missing per task
    copies_pending = [0] * n_tasks  # remote: input copies still in flight
    refcount = [0] * low.n_files  # remote: current holders per file
    done_flag = bytearray(n_tasks)
    store: dict[int, float] = {}  # storage objects, insertion-ordered
    used = 0  # stored units (kept only when limited)
    reserved = 0  # reserved units
    pumping = False
    sin_head = 0  # next stage-in of input_fidx the pump submits
    n_sin = len(input_fidx)
    # Occupancy deltas in exact engine order, replayed through StepCurve
    # after the loop (same-time coalescing is order-sensitive).
    storage_deltas: list = []
    busy_deltas: list = [] if trace else None

    task_records: list[TaskRecord] = []
    transfer_records: list[TransferRecord] = []

    # -- storage (exact ops of resources.Storage) ---------------------- #
    def add_obj(f: int) -> None:
        nonlocal used
        store[f] = sizes[f]
        storage_deltas.append((now, sizes[f]))
        if limited:
            used += units[f]

    def fits(n: int) -> bool:
        return used + reserved + n <= limit

    def reserve(n: int) -> bool:
        nonlocal reserved
        if not fits(n):
            return False
        reserved += n
        return True

    def release_reservation(n: int) -> None:
        nonlocal reserved
        reserved -= n
        space_freed()

    def space_freed() -> None:
        # Subscriber order: the executor's dispatcher subscribes at
        # construction, the shared-storage pump at on_start.
        dispatch()
        if not remote:
            pump()

    def materialize(f: int) -> None:
        # add first, release the reservation after (committed bytes
        # never transiently undercount)
        add_obj(f)
        if limited:
            release_reservation(units[f])

    def remove_obj(f: int) -> None:
        nonlocal used
        storage_deltas.append((now, -store.pop(f)))
        if limited:
            used -= units[f]
            space_freed()

    # -- link (exact ops of NetworkLink.request) ---------------------- #
    def link_end(f: int, lane: int) -> tuple[float, float]:
        if contended:
            b = lanes[lane]
            start = b if b > now else now
            end = start + tr_dur[f]
            lanes[lane] = end
            return start, end
        return now, now + tr_dur[f]

    # -- executor mirror ---------------------------------------------- #
    def execute(t: int) -> None:
        """_execute: compute accrues at dispatch, in dispatch order."""
        nonlocal seq, n_exec, compute_seconds
        n_exec += 1
        compute_seconds += runtimes[t]
        started_at[t] = now
        heappush(heap, (now + exec_dur[t], seq, _DONE, t, 0))
        seq += 1

    def start_task(t: int) -> None:
        """One processor is held for ``t``; pull copies or execute."""
        nonlocal seq, bytes_in, n_in, outstanding
        acquired_at[t] = now
        if busy_deltas is not None:
            busy_deltas.append((now, 1.0))
        if remote and n_inputs[t]:
            # prepare_task: the processor waits while the copies arrive.
            copies_pending[t] = n_inputs[t]
            for f in task_inputs[t]:
                bytes_in += sizes[f]
                n_in += 1
                start, end = link_end(f, 0)
                if trace:
                    transfer_records.append(
                        TransferRecord(
                            fnames[f], sizes[f], "in", start, end, task_ids[t]
                        )
                    )
                heappush(heap, (end, seq, _COPY, t, f))
                seq += 1
                outstanding += 1
        else:
            execute(t)

    def dispatch() -> None:
        """Mirror of WorkflowExecutor._dispatch."""
        nonlocal seq, free, boot_scheduled, booting, ready_head
        if booting:
            if now < ready_at:
                if not boot_scheduled and ready_head < len(ready):
                    boot_scheduled = True
                    heappush(heap, (ready_at, seq, _BOOT, 0, 0))
                    seq += 1
                return
            booting = False
        while free and ready_head < len(ready):
            # Head-of-line admission: a finite capacity reserves the
            # task's storage before popping; on failure it stays queued
            # for a space-freed retry.
            t = ready[ready_head] if fifo else ready[0][2]
            if limited and not reserve(res_units[t]):
                break
            if fifo:
                ready_head += 1
                if ready_head > 64 and ready_head * 2 > len(ready):
                    del ready[:ready_head]
                    ready_head = 0
            else:
                heappop(ready)
            free -= 1
            start_task(t)

    def ready_task(t: int) -> None:
        """Mirror of task_data_ready: queue, then try to dispatch.

        With infinite storage, a free processor and an empty queue, the
        engine's push-then-pop provably hands the processor to ``t``;
        shortcut the queue entirely in that case (the hot path on wide
        DAG phases).
        """
        nonlocal rseq, free
        if not limited and free and ready_head == len(ready) and not booting:
            free -= 1
            start_task(t)
            return
        if fifo:
            ready.append(t)
        else:
            heappush(ready, (okey(workflow, task_ids[t]), rseq, t))
        rseq += 1
        dispatch()

    def pump() -> None:
        """_pump_stage_ins: FIFO head-of-line, output headroom reserved."""
        nonlocal pumping, sin_head, bytes_in, n_in, seq, outstanding
        if pumping:
            return
        pumping = True
        try:
            while sin_head < n_sin:
                f = input_fidx[sin_head]
                size = sizes[f]
                if limited:
                    # Leave output headroom — except when the store is
                    # completely empty, where holding back cannot help.
                    admissible = fits(units[f] + headroom) or (
                        used + reserved == 0
                    )
                    if not (admissible and reserve(units[f])):
                        break
                sin_head += 1
                bytes_in += size
                n_in += 1
                start, end = link_end(f, 0)
                if trace:
                    transfer_records.append(
                        TransferRecord(fnames[f], size, "in", start, end, None)
                    )
                heappush(heap, (end, seq, _SIN, f, 0))
                seq += 1
                outstanding += 1
        finally:
            pumping = False

    def retain(f: int) -> None:
        """Remote-I/O _retain(reserved=limited): refcounted single copy."""
        count = refcount[f]
        if not count:
            add_obj(f)
        if limited:
            release_reservation(units[f])
        refcount[f] = count + 1

    def release_file(f: int) -> None:
        refcount[f] -= 1
        if not refcount[f]:
            remove_obj(f)

    def mark_user_available(f: int) -> None:
        """Remote-I/O: a file landed at the user; wake its consumers."""
        for c in consumers[f]:
            pending[c] -= 1
            if not pending[c]:
                ready_task(c)

    def finalize_shared() -> None:
        """_finalize: remaining objects go in insertion order."""
        nonlocal finished_at
        for f in list(store):
            remove_obj(f)
        finished_at = now

    # ---------------------------------------------------------------- #
    # t = 0: the engine's _begin / data_manager.on_start
    # ---------------------------------------------------------------- #
    if not n_tasks:
        finished_at = 0.0
    elif remote:
        for t in range(n_tasks):
            if not n_inputs[t]:
                ready_task(t)
        for f in input_fidx:
            mark_user_available(f)
    else:
        for t in range(n_tasks):
            if not n_inputs[t]:
                ready_task(t)
        pump()

    # ---------------------------------------------------------------- #
    # the event loop
    # ---------------------------------------------------------------- #
    while heap:
        now, _, kind, a, b = heappop(heap)
        if kind == _DONE:
            t = a
            if fail is None:
                attempt = 1
                failed = False
            else:
                # The engine draws at completion time, before the record
                # is written — an exhausted budget raises right here with
                # no record for the aborting attempt.
                attempt = attempts[t]
                failed = fail(t, attempt)
            if trace:
                task_records.append(
                    TaskRecord(
                        task_ids[t], transformations[t], started_at[t], now,
                        attempt,
                    )
                )
            if failed:
                # Immediate retry on the same still-held processor: the
                # engine's _execute re-entered from completed() — compute
                # re-billed, completion re-scheduled, no reservation and
                # no dispatch.
                n_failures += 1
                attempts[t] = attempt + 1
                execute(t)
                continue
            done_flag[t] = 1
            n_done += 1
            held_seconds += now - acquired_at[t]
            free += 1
            if busy_deltas is not None:
                busy_deltas.append((now, -1.0))
            if remote:
                for f in task_inputs[t]:
                    release_file(f)
                for f in task_outputs[t]:
                    retain(f)
                    bytes_out += sizes[f]
                    n_out += 1
                    start, end = link_end(f, OUT)
                    if trace:
                        transfer_records.append(
                            TransferRecord(
                                fnames[f], sizes[f], "out", start, end,
                                task_ids[t],
                            )
                        )
                    heappush(heap, (end, seq, _ROUT, t, f))
                    seq += 1
                    outstanding += 1
                if n_done == n_tasks and not outstanding:
                    finished_at = now
            else:
                for f in task_outputs[t]:
                    materialize(f)
                if cleanup:
                    for f in release_candidates[t]:
                        release_need[f] -= 1
                        if not release_need[f] and f in store:
                            remove_obj(f)
                for f in task_outputs[t]:
                    for c in consumers[f]:
                        pending[c] -= 1
                        if not pending[c]:
                            ready_task(c)
                if n_done == n_tasks:
                    if not output_fidx:
                        finalize_shared()
                    else:
                        stage_outs_left = len(output_fidx)
                        for f in output_fidx:
                            bytes_out += sizes[f]
                            n_out += 1
                            start, end = link_end(f, OUT)
                            if trace:
                                transfer_records.append(
                                    TransferRecord(
                                        fnames[f], sizes[f], "out", start,
                                        end, None,
                                    )
                                )
                            heappush(heap, (end, seq, _SOUT, f, 0))
                            seq += 1
                            outstanding += 1
            dispatch()
        elif kind == _SIN:
            outstanding -= 1
            f = a
            materialize(f)
            for c in consumers[f]:
                pending[c] -= 1
                if not pending[c]:
                    ready_task(c)
        elif kind == _COPY:
            outstanding -= 1
            t, f = a, b
            retain(f)
            copies_pending[t] -= 1
            if not copies_pending[t]:
                execute(t)
        elif kind == _ROUT:
            outstanding -= 1
            t, f = a, b
            release_file(f)
            mark_user_available(f)
            if (
                finished_at is None
                and n_done == n_tasks
                and not outstanding
            ):
                finished_at = now
        elif kind == _SOUT:
            outstanding -= 1
            f = a
            if cleanup:
                remove_obj(f)
            stage_outs_left -= 1
            if not stage_outs_left:
                finalize_shared()
        else:  # _BOOT
            dispatch()

    if finished_at is None:
        stuck = [task_ids[t] for t in range(n_tasks) if not done_flag[t]]
        hint = (
            " — the storage capacity is too small for the workflow's "
            "minimum footprint"
            if limited
            else ""
        )
        raise RuntimeError(
            f"simulation deadlocked or unfinished: {len(stuck)} tasks "
            f"incomplete (first few: {stuck[:5]}){hint}"
        )

    storage_curve = _replay(storage_deltas)
    busy_curve = _replay(busy_deltas) if busy_deltas is not None else None

    return SimulationResult(
        workflow_name=workflow.name,
        n_processors=environment.n_processors,
        data_mode=data_mode.value,
        makespan=finished_at,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        storage_byte_seconds=storage_curve.integral(0.0, finished_at),
        peak_storage_bytes=storage_curve.max_value(),
        cpu_busy_seconds=held_seconds,
        compute_seconds=compute_seconds,
        n_transfers_in=n_in,
        n_transfers_out=n_out,
        n_task_executions=n_exec,
        n_task_failures=n_failures,
        task_records=task_records,
        transfer_records=transfer_records,
        storage_curve=storage_curve if trace else None,
        busy_curve=busy_curve,
    )


# ------------------------------------------------------------------ #
# turbo loop: batched traceless shared-storage configurations
# ------------------------------------------------------------------ #
def _run_turbo_core(
    workflow: Workflow,
    low: _Lowering,
    environment,
    data_mode: DataMode,
    ordering: TaskOrdering,
    tr_dur: list[float],
    exec_dur: list[float],
    fail=None,
    *,
    verdicts=None,
    max_retries: int = 0,
    snapshots: list | None = None,
    snap_at: Sequence[int] = (),
    resume: tuple | None = None,
) -> tuple:
    """Merged-stream loop for traceless regular/cleanup configurations.

    The per-run event heap degenerates once traces are off and storage
    is infinite: stage-in arrival times are statically known (sorted
    once per batch by :meth:`_Lowering.arrival_schedule`), completions
    live in a heap bounded by the processor count, and the boot wakeup
    is a single scalar.  This loop merges the three streams by the same
    ``(time, seq)`` order the engine's heap would produce — arrival
    sequence numbers are recovered as ``base + submission_rank`` — and
    accumulates the storage byte-seconds integral and peak incrementally
    (the exact float operations of ``StepCurve._replay`` +
    ``integral(0, makespan)`` + ``max_value()``, without building the
    curve).  Everything else (dispatch shortcut, FIFO cursor queue,
    ordering heaps, cleanup release tables) matches :func:`_run_single`
    statement for statement, so results are bit-identical.

    Returns the scalar metrics as a plain tuple (in
    :data:`SUMMARY_DTYPE` field order, minus the abort flag) so the
    columnar campaign path can write them straight into a record batch;
    :func:`_run_routed` wraps them into a :class:`SimulationResult`
    (via :func:`_result_from_turbo_tuple`) unless a row is asked for.

    Failures come either from the live ``fail(t, attempt)`` hook or, for
    Monte Carlo cells, from ``verdicts``: booleans indexed by
    completion-event ordinal (the prefix :func:`_verdict_fixpoint`
    proves sufficient, as an array or its bytes), with ``max_retries`` bounding the attempts and
    the engine's verbatim abort message.  Further keywords make the
    loop resumable, which is how :func:`run_monte_carlo` forks cells:

    * ``snap_at`` is an ascending sequence of completion-event ordinals
      (``n_done + n_failures``: the index of the verdict the event
      reads).  Just before processing each of those events the loop
      appends an immutable state snapshot to ``snapshots``.  A run that
      aborts keeps the snapshots it took before the abort;
    * with ``resume`` (one of those snapshots), the loop restores the
      saved state, retry counters and failure count included, instead
      of initializing, and replays only the suffix.  The verdict cursor
      starts at the snapshot's ordinal ``m``: the state just before
      event ``m`` is a function of ``verdicts[:m]`` alone, so any run
      whose verdicts agree with the recording run's below ``m`` may
      resume from it.

    Snapshots store the ready queue normalized to a zero head cursor —
    the compaction heuristic's internal layout is not observable, so
    forks are bit-identical to from-scratch replays.
    """
    cleanup = data_mode is DataMode.CLEANUP
    n_tasks = low.n_tasks
    task_ids = low.task_ids
    runtimes = low.runtimes
    sizes = low.sizes
    task_outputs = low.task_outputs
    consumers = low.consumers
    output_fidx = low.output_fidx

    if cleanup:
        release_candidates, need = low.cleanup_tables()
    else:
        release_candidates = need = None

    arr_t, arr_f, arr_rank = low.arrival_schedule(
        environment.bandwidth_bytes_per_sec
    )
    n_arr = len(arr_t)

    fifo = ordering is FIFO_ORDER
    okey = ordering.key
    push = heappush
    pop = heappop
    ready_at = environment.compute_ready_seconds

    if resume is None:
        now = 0.0
        seq = 0
        rseq = 0
        ch: list = []  # completions + stage-outs: (time, seq, idx, acquired)
        ready: list = []
        qlen = 0  # == len(ready), tracked to keep the hot checks arithmetic
        free = environment.n_processors
        booting = ready_at > 0.0
        boot_scheduled = False
        boot_pending = False
        boot_seq = 0
        n_done = 0
        n_exec = 0
        compute_seconds = 0.0
        held_seconds = 0.0
        bytes_out = 0.0
        n_out = 0
        souts_left = 0
        # Incremental storage accounting: value/segment-start/integral/
        # peak, committing a segment whenever time advances past a
        # breakpoint — the same float ops, in the same order, as replay
        # + integral + max.
        s_t = 0.0
        s_v = 0.0
        s_acc = 0.0
        s_peak = 0.0
        k = 0  # arrival cursor
        base = 0  # arrival sequence base, assigned after t = 0
        pending = list(low.n_inputs)
        added: list[int] = []  # storage adds in engine insertion order
        release_need = list(need) if cleanup else None
        removed = bytearray(low.n_files) if cleanup else None
        n_failures = 0
        attempts_s = None
    else:
        (
            now, seq, rseq, free, booting, boot_scheduled, boot_pending,
            boot_seq, n_done, n_exec, compute_seconds, held_seconds,
            bytes_out, n_out, souts_left, s_t, s_v, s_acc, s_peak, k,
            base, ch_s, ready_s, pending_s, added_s, release_need_s,
            removed_s, n_failures, attempts_s,
        ) = resume
        ch = list(ch_s)
        ready = list(ready_s)
        qlen = len(ready)
        pending = list(pending_s)
        added = list(added_s)
        release_need = list(release_need_s) if cleanup else None
        removed = bytearray(removed_s) if cleanup else None
    ready_head = 0
    finished_at: float | None = None
    live = fail is not None or verdicts is not None
    if not live:
        attempts = None
    elif attempts_s is None:
        attempts = [1] * n_tasks
    else:
        attempts = list(attempts_s)
    # Ordinal of the next snapshot (-1: none left).
    snap_iter = iter(snap_at)
    snap_next = next(snap_iter, -1)

    def dispatch() -> None:
        nonlocal seq, free, booting, boot_scheduled, boot_pending
        nonlocal boot_seq, ready_head, qlen, n_exec, compute_seconds
        if booting:
            if now < ready_at:
                if not boot_scheduled and ready_head < qlen:
                    boot_scheduled = True
                    boot_pending = True
                    boot_seq = seq
                    seq += 1
                return
            booting = False
        while free and ready_head < qlen:
            if fifo:
                t = ready[ready_head]
                ready_head += 1
                if ready_head > 64 and ready_head * 2 > qlen:
                    del ready[:ready_head]
                    qlen -= ready_head
                    ready_head = 0
            else:
                t = pop(ready)[2]
                qlen -= 1
            free -= 1
            n_exec += 1
            compute_seconds += runtimes[t]
            push(ch, (now + exec_dur[t], seq, t, now))
            seq += 1

    if resume is None:
        # -- t = 0: no-input tasks ready, then the (virtual) stage-ins - #
        for t in low.no_input_tasks:
            if free and ready_head == qlen and not booting:
                free -= 1
                n_exec += 1
                compute_seconds += runtimes[t]
                push(ch, (now + exec_dur[t], seq, t, now))
                seq += 1
            else:
                if fifo:
                    ready.append(t)
                else:
                    push(ready, (okey(workflow, task_ids[t]), rseq, t))
                qlen += 1
                rseq += 1
                if free:
                    dispatch()
        # Arrivals occupy the next n_arr sequence numbers in submission
        # order; later events resume counting after them.
        base = seq
        seq = base + n_arr

    INF = float("inf")
    while True:
        if k < n_arr:
            at = arr_t[k]
            aseq = base + arr_rank[k]
        else:
            at = INF
            aseq = 0
        if ch:
            ce = ch[0]
            ct = ce[0]
            cseq = ce[1]
        else:
            ct = INF
            cseq = 0
        if at < ct or (at == ct and aseq < cseq):
            et, es, which = at, aseq, 0
        else:
            et, es, which = ct, cseq, 1
        if boot_pending and (
            ready_at < et or (ready_at == et and boot_seq < es)
        ):
            now = ready_at
            boot_pending = False
            dispatch()
            continue
        if et == INF:
            break
        if which == 0:
            # stage-in arrival
            now = at
            f = arr_f[k]
            k += 1
            d = sizes[f]
            added.append(f)
            if d:
                if now != s_t:
                    s_acc += s_v * (now - s_t)
                    if s_v > s_peak:
                        s_peak = s_v
                    s_t = now
                s_v += d
            for c in consumers[f]:
                p = pending[c] - 1
                pending[c] = p
                if not p:
                    if free and ready_head == qlen and not booting:
                        free -= 1
                        n_exec += 1
                        compute_seconds += runtimes[c]
                        push(ch, (now + exec_dur[c], seq, c, now))
                        seq += 1
                    else:
                        if fifo:
                            ready.append(c)
                        else:
                            push(
                                ready,
                                (okey(workflow, task_ids[c]), rseq, c),
                            )
                        qlen += 1
                        rseq += 1
                        if free:
                            dispatch()
        else:
            t = ce[2]
            if n_done + n_failures == snap_next and t >= 0:
                # State just before completion event #snap_next: runs
                # whose verdicts agree with this one's below that
                # ordinal restore from here.  Everything mutable is
                # copied to an immutable form.
                snapshots.append((
                    now, seq, rseq, free, booting, boot_scheduled,
                    boot_pending, boot_seq, n_done, n_exec,
                    compute_seconds, held_seconds, bytes_out, n_out,
                    souts_left, s_t, s_v, s_acc, s_peak, k, base,
                    tuple(ch), tuple(ready[ready_head:]), tuple(pending),
                    tuple(added),
                    tuple(release_need) if cleanup else None,
                    bytes(removed) if cleanup else None,
                    n_failures,
                    tuple(attempts) if live else None,
                ))
                snap_next = next(snap_iter, -1)
            pop(ch)
            now = ct
            if t < 0:
                # stage-out completion for file -1 - t
                f = -1 - t
                if cleanup:
                    removed[f] = 1
                    d = sizes[f]
                    if d:
                        if now != s_t:
                            s_acc += s_v * (now - s_t)
                            if s_v > s_peak:
                                s_peak = s_v
                            s_t = now
                        s_v -= d
                souts_left -= 1
                if not souts_left:
                    # _finalize: remaining objects go in insertion order.
                    for g in added:
                        if removed is not None and removed[g]:
                            continue
                        d = sizes[g]
                        if d:
                            if now != s_t:
                                s_acc += s_v * (now - s_t)
                                if s_v > s_peak:
                                    s_peak = s_v
                                s_t = now
                            s_v -= d
                    finished_at = now
                    break
                continue
            # task completion
            if live:
                attempt = attempts[t]
                if verdicts is None:
                    failed = fail(t, attempt)
                else:
                    # One verdict per completion event processed so far.
                    failed = verdicts[n_done + n_failures]
                    if failed and attempt > max_retries:
                        raise WorkflowAbortedError.exhausted(
                            task_ids[t], attempt
                        )
                if failed:
                    # Retry on the same still-held processor, completion
                    # re-pushed at exactly the engine's sequence point.
                    n_failures += 1
                    attempts[t] = attempt + 1
                    n_exec += 1
                    compute_seconds += runtimes[t]
                    push(ch, (now + exec_dur[t], seq, t, ce[3]))
                    seq += 1
                    continue
            n_done += 1
            held_seconds += now - ce[3]
            free += 1
            for f in task_outputs[t]:
                added.append(f)
                d = sizes[f]
                if d:
                    if now != s_t:
                        s_acc += s_v * (now - s_t)
                        if s_v > s_peak:
                            s_peak = s_v
                        s_t = now
                    s_v += d
            if cleanup:
                for f in release_candidates[t]:
                    rn = release_need[f] - 1
                    release_need[f] = rn
                    if not rn:
                        removed[f] = 1
                        d = sizes[f]
                        if d:
                            if now != s_t:
                                s_acc += s_v * (now - s_t)
                                if s_v > s_peak:
                                    s_peak = s_v
                                s_t = now
                            s_v -= d
            for f in task_outputs[t]:
                for c in consumers[f]:
                    p = pending[c] - 1
                    pending[c] = p
                    if not p:
                        if free and ready_head == qlen and not booting:
                            free -= 1
                            n_exec += 1
                            compute_seconds += runtimes[c]
                            push(ch, (now + exec_dur[c], seq, c, now))
                            seq += 1
                        else:
                            if fifo:
                                ready.append(c)
                            else:
                                push(
                                    ready,
                                    (okey(workflow, task_ids[c]), rseq, c),
                                )
                            qlen += 1
                            rseq += 1
                            if free:
                                dispatch()
            if n_done == n_tasks:
                if not output_fidx:
                    # _finalize at the last completion time: the deltas
                    # coalesce onto this breakpoint (peak-relevant).
                    for g in added:
                        if removed is not None and removed[g]:
                            continue
                        d = sizes[g]
                        if d:
                            if now != s_t:
                                s_acc += s_v * (now - s_t)
                                if s_v > s_peak:
                                    s_peak = s_v
                                s_t = now
                            s_v -= d
                    finished_at = now
                    break
                souts_left = len(output_fidx)
                bytes_out = low.stage_out_bytes
                n_out = len(output_fidx)
                for f in output_fidx:
                    push(ch, (now + tr_dur[f], seq, -1 - f, 0.0))
                    seq += 1
            if ready_head < qlen:
                dispatch()

    if finished_at is None:
        raise RuntimeError(
            "simulation deadlocked or unfinished: "
            f"{n_tasks - n_done} tasks incomplete"
        )

    # Final segment of the integral; the value at the last breakpoint
    # also competes for the peak (it may coalesce above earlier values).
    s_acc += s_v * (finished_at - s_t)
    if s_v > s_peak:
        s_peak = s_v

    return (
        finished_at,
        low.stage_in_bytes,
        bytes_out,
        s_acc,
        s_peak,
        held_seconds,
        compute_seconds,
        n_arr,
        n_out,
        n_exec,
        n_failures,
    )


def _result_from_turbo_tuple(
    workflow: Workflow,
    environment,
    data_mode: DataMode,
    tup: tuple,
) -> SimulationResult:
    """Wrap a turbo-loop scalar tuple into a traceless result object."""
    (
        makespan, bytes_in, bytes_out, byte_seconds, peak, held_seconds,
        compute_seconds, n_in, n_out, n_exec, n_failures,
    ) = tup
    return SimulationResult(
        workflow_name=workflow.name,
        n_processors=environment.n_processors,
        data_mode=data_mode.value,
        makespan=makespan,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        storage_byte_seconds=byte_seconds,
        peak_storage_bytes=peak,
        cpu_busy_seconds=held_seconds,
        compute_seconds=compute_seconds,
        n_transfers_in=n_in,
        n_transfers_out=n_out,
        n_task_executions=n_exec,
        n_task_failures=n_failures,
        task_records=[],
        transfer_records=[],
        storage_curve=None,
        busy_curve=None,
    )


# ------------------------------------------------------------------ #
# seed-batched Monte Carlo replay
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class MonteCarloCell:
    """One (probability, seed) replay of a :func:`run_monte_carlo` grid.

    ``result`` is None exactly when ``aborted`` is true: the cell's
    failure stream exhausted some task's retry budget, which in a
    stand-alone simulation raises
    :class:`~repro.sim.failures.WorkflowAbortedError` with
    ``abort_message``.
    """

    probability: float
    seed: int
    result: SimulationResult | None
    aborted: bool = False
    abort_message: str = ""


class _SeedDraws:
    """Grow-only pre-drawn uniform buffer for one seed.

    ``default_rng(seed).random(n)`` yields exactly the floats that ``n``
    sequential ``.random()`` calls on the same generator would (PCG64
    consumes its stream identically either way), so a vectorized
    pre-draw replayed index by index is bit-identical to the engine's
    mid-flight draws — and because a fresh :class:`FailureModel` restarts
    the stream, one buffer serves every probability of the grid.

    The backing buffer is preallocated and grown geometrically, with new
    draws filled in place (``Generator.random(out=...)`` consumes the
    PCG64 stream exactly as a fresh ``.random(k)`` call would, so the
    materialized prefix is invariant to the growth pattern).  Verdict
    arrays — ``draws < p`` per probability — are memoized on the stream,
    so a grid revisiting a (probability, seed) pair never recomputes or
    reallocates them.
    """

    __slots__ = ("gen", "buf", "n", "chunk", "_flags")

    #: Memoized verdict arrays kept per stream; grids sweep a handful of
    #: probabilities, so a small bound suffices.
    _FLAG_LIMIT = 16

    def __init__(self, seed: int, n0: int, chunk: int) -> None:
        self.gen = np.random.default_rng(seed)
        self.buf = np.empty(max(n0, chunk), dtype=np.float64)
        self.gen.random(out=self.buf[:n0])
        self.n = n0
        self.chunk = chunk
        self._flags: dict[float, np.ndarray] = {}

    @property
    def arr(self) -> np.ndarray:
        """The materialized draw prefix (a view, never a copy)."""
        return self.buf[: self.n]

    def ensure(self, n: int) -> None:
        """Materialize at least ``n`` draws (chunk-rounded, in place)."""
        if n <= self.n:
            return
        target = self.n + (
            (n - self.n + self.chunk - 1) // self.chunk
        ) * self.chunk
        cap = self.buf.shape[0]
        if target > cap:
            while cap < target:
                cap *= 2
            buf = np.empty(cap, dtype=np.float64)
            buf[: self.n] = self.buf[: self.n]
            self.buf = buf
        self.gen.random(out=self.buf[self.n : target])
        self.n = target
        self._flags.clear()

    def flags(self, probability: float) -> np.ndarray:
        """``draws < probability`` over the materialized prefix, cached."""
        cached = self._flags.get(probability)
        if cached is None:
            if len(self._flags) >= self._FLAG_LIMIT:
                self._flags.clear()
            cached = np.less(self.buf[: self.n], probability)
            self._flags[probability] = cached
        return cached


def _verdict_fixpoint(
    stream: _SeedDraws, probability: float, n_tasks: int
) -> tuple[np.ndarray, int, int]:
    """Exact draw consumption of one completed (probability, seed) cell.

    A finished replay consumes one draw per task completion event:
    ``n_tasks`` successes plus one per failed attempt, i.e. its consumed
    count ``c`` satisfies ``c == n_tasks + count_true(flags[:c])`` — and
    it is the *least* such fixpoint at or above ``n_tasks``, because any
    smaller solution would mean the run had already finished there.
    This holds for every replay loop (each completion draws exactly
    once), so the verdict prefix ``flags[:L]`` fully determines the cell:
    two cells with equal prefixes are bit-identical, aborts included
    (an aborting cell consumes a prefix of ``[0, L)``).

    Returns ``(flags, L, n_true)`` with the stream materialized through
    ``L``; ``n_true == 0`` means the cell is failure-free (identical to
    the no-failure baseline).
    """
    stream.ensure(n_tasks)
    flags = stream.flags(probability)
    L = n_tasks
    nf = int(np.count_nonzero(flags[:L]))
    while True:
        target = n_tasks + nf
        if target == L:
            return flags, L, nf
        if target > flags.shape[0]:
            stream.ensure(target)
            flags = stream.flags(probability)
        nf += int(np.count_nonzero(flags[L:target]))
        L = target


def _prefix_hook(verdicts: bytes, max_retries: int, task_ids: list[str]):
    """Failure hook replaying one cell's verdict prefix, in draw order.

    :func:`_verdict_fixpoint` proves the cell makes exactly
    ``len(verdicts)`` draws (fewer if it aborts), so completion ``i``
    reads ``verdicts[i]`` and never runs past the end.
    """
    draws = iter(verdicts)

    def fail(t: int, attempt: int) -> bool:
        failed = next(draws) == 1
        if failed and attempt > max_retries:
            raise WorkflowAbortedError.exhausted(task_ids[t], attempt)
        return failed

    return fail


def _lcp(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _trie_plan(
    prefixes,
) -> tuple[list[int], list[tuple[bytes, int, list[int]]]]:
    """Replay order and fork points for distinct failing verdict prefixes.

    ``prefixes`` are byte strings of 0/1 verdicts, each with a True
    before its end and none a prefix of another (distinct
    :func:`_verdict_fixpoint` prefixes never are).  Sorted, they are a
    depth-first walk of their trie, whose root is the failure-free run
    (all verdicts False).  A prefix's *resume* ordinal is the length of
    its longest common prefix with the previous one (for the first, the
    ordinal of its first True, where it leaves the root): in sorted
    order that is the deepest state it shares with the root or any
    earlier prefix.

    Returns ``(root_at, plan)``: the ordinals at which the root run
    snapshots, and per prefix, in replay order, ``(prefix, resume,
    snap_at)``.  Each run snapshots exactly the ordinals later prefixes
    resume from and no earlier run already covers: the distinct values
    of the running minimum of the following resume ordinals that lie
    above its own resume ordinal (ascending).
    """
    order = sorted(prefixes)
    resumes = [_lcp(a, b) for a, b in zip(order, order[1:])]
    if order:
        resumes.insert(0, order[0].index(1))
    # Right to left, ``chain`` holds the distinct running minima of the
    # resume ordinals after the current prefix, smallest at the bottom;
    # those above a prefix's own resume ordinal are its snapshot points.
    # None equals it: a prefix leaves its predecessor's path on a True
    # verdict, which every later prefix still on that path shares.
    chain: list[int] = []
    snap_ats: list[list[int]] = []
    for resume in reversed([-1] + resumes):
        own: list[int] = []
        while chain and chain[-1] > resume:
            own.append(chain.pop())
        own.reverse()
        snap_ats.append(own)
        chain.append(resume)
    snap_ats.reverse()
    return snap_ats[0], list(zip(order, resumes, snap_ats[1:]))


def run_monte_carlo(
    workflow: Workflow,
    config: KernelConfig,
    probabilities: Sequence[float],
    seeds: Sequence[int],
    *,
    max_retries: int = 10,
    summary_only: bool = True,
    out: np.ndarray | None = None,
    out_offset: int = 0,
    streams: dict[int, _SeedDraws] | None = None,
) -> list[MonteCarloCell] | int:
    """Replay one configuration over a (probability, seed) failure grid.

    The DAG is lowered once and the per-parameter derived vectors are
    shared across every cell; per seed, the failure stream is pre-drawn
    into a vectorized uniform buffer reused by every probability (a
    fresh :class:`FailureModel` restarts its stream, so equal seeds
    replay equal draw prefixes whatever the probability).  Each cell is
    bit-identical to a stand-alone simulation with
    ``FailureModel(probability, seed=seed, max_retries=max_retries)`` —
    zero-probability cells consume no draws and equal the no-failure
    result exactly, like the model's own early return.

    Cells that cannot fail are *deduplicated exactly*: the no-failure
    simulation runs once per configuration, and any (probability, seed)
    cell whose first ``n_tasks`` pre-drawn uniforms all clear the
    threshold provably replays it bit for bit (such a run consumes
    exactly those draws, every verdict ``False``), so it reuses the
    baseline instead of re-simulating.  At campaign-realistic per-task
    failure rates (well under 1%) this collapses most of the grid to
    one simulation per configuration plus one vectorized comparison per
    cell — an exact identity, not a statistical approximation.

    Failing cells run in three passes.  The first computes every cell's
    verdict prefix (:func:`_verdict_fixpoint`) without simulating; equal
    prefixes, across seeds and probabilities alike, replay once.  The
    second replays each distinct prefix.  On FIFO turbo configurations
    the replays *fork*: the prefixes run in lexicographic order, which
    walks their trie depth first from the failure-free root, and each
    resumes from the state just before the deepest completion event it
    shares with the root or an earlier prefix (:func:`_trie_plan` says
    where every run snapshots; the state before event *m* depends on
    ``verdicts[:m]`` alone, so a fork is bit-identical to a replay from
    the start).  Seeds shared across probabilities give such tries:
    raising ``p`` only turns verdicts True, so one seed's prefixes agree
    up to its first draw between the two thresholds.  Other
    configurations replay the general loop from the start, in grid
    order.  The third pass writes every cell.

    ``summary_only`` (the default) forces traces off, so each surviving
    cell carries a traceless :class:`SimulationResult` — makespan, cost
    inputs (bytes, CPU- and byte-seconds), ``n_task_failures`` — without
    record or curve materialization; shared-storage uncontended cells
    then run on the turbo loop, which is what makes 100-seed grids
    cheap.  With ``summary_only=False`` the config's own ``record_trace``
    is honored.

    A cell whose stream exhausts a retry budget does **not** raise: it
    comes back with ``aborted=True``, ``result=None`` and the engine's
    abort message, so one doomed cell cannot kill a statistical grid.

    Returns cells in probability-major, seed-minor order (the iteration
    order of ``itertools.product(probabilities, seeds)``).

    ``config.failures`` is ignored — the grid supplies the failure
    models.

    With ``out`` (a :data:`SUMMARY_DTYPE` record batch), the grid runs
    *columnar*: ``summary_only`` is implied, each cell's scalars are
    written straight into ``out[out_offset + k]`` (turbo cells never
    construct a result object), aborted cells get an all-zero row with
    ``aborted=True``, and the call returns the number of rows written.
    ``streams`` lets a campaign driver share the grow-only per-seed draw
    buffers across many ``run_monte_carlo`` calls — the uniforms depend
    only on the seed, not the workflow or configuration, so one dict can
    serve a whole shard of plates.
    """
    env = config.environment
    mode = config.data_mode
    if isinstance(mode, str):
        mode = DataMode(mode)
    check_failure_parameters(probabilities, max_retries)
    columnar = out is not None
    if (summary_only or columnar) and env.record_trace:
        env = replace(env, record_trace=False)

    low = _lowering(workflow)
    tr_dur = low.transfer_durations(env.bandwidth_bytes_per_sec)
    exec_dur = low.exec_durations(env.task_overhead_seconds)
    task_ids = low.task_ids
    ordering = config.ordering
    n_tasks = low.n_tasks
    # Initial buffer sized for the common case (a handful of retries on
    # top of one attempt per task); heavy-failure cells grow it in
    # chunks, and growth is shared by every later cell of that seed.
    n0 = max(64, n_tasks + (n_tasks >> 1))
    chunk = max(64, n_tasks)
    if streams is None:
        streams = {}

    # Pass 1: each cell's verdict prefix.  A prefix without a True
    # verdict calls the failure hook once per task (consuming exactly
    # draws[:n_tasks], all False) and is bit-identical to the fail=None
    # run, so it shares the key b"" with every zero-probability cell.
    grid: list[tuple[float, int, bytes]] = []
    for p in probabilities:
        for seed in seeds:
            key = b""
            if p != 0.0:
                stream = streams.get(seed)
                if stream is None:
                    stream = streams[seed] = _SeedDraws(seed, n0, chunk)
                flags, L, nf = _verdict_fixpoint(stream, p, n_tasks)
                if nf:
                    key = flags[:L].tobytes()
            grid.append((p, seed, key))

    #: verdict-prefix bytes -> ("ok", row-or-result) | ("abort", message)
    pattern_cache: dict[bytes, tuple] = {}

    def settle(key: bytes, replay) -> None:
        try:
            pattern_cache[key] = ("ok", replay())
        except WorkflowAbortedError as exc:
            pattern_cache[key] = ("abort", str(exc))

    # Pass 2: replay each distinct prefix once.
    if grid and _turbo_eligible(low, env, mode) and ordering is FIFO_ORDER:
        # FIFO turbo cells fork along the verdict trie: the failure-free
        # root, then every failing prefix in lexicographic order, each
        # resuming from the deepest state it shares with any earlier
        # replay.  ``stack`` holds (ordinal, snapshot) along the current
        # trie path; each replay snapshots exactly the ordinals later
        # prefixes resume from (_trie_plan).
        def turbo(**kwargs):
            tup = _run_turbo_core(
                workflow, low, env, mode, ordering, tr_dur, exec_dur,
                max_retries=max_retries, **kwargs
            )
            if columnar:
                return tup + (False,)
            return _result_from_turbo_tuple(workflow, env, mode, tup)

        root_at, plan = _trie_plan({key for _, _, key in grid} - {b""})
        taken: list = []
        pattern_cache[b""] = ("ok", turbo(snapshots=taken, snap_at=root_at))
        stack = list(zip(root_at, taken))
        for key, resume, snap_at in plan:
            while stack[-1][0] > resume:
                stack.pop()
            taken = []
            state = stack[-1][1]
            settle(key, lambda: turbo(
                verdicts=key, resume=state, snapshots=taken,
                snap_at=snap_at,
            ))
            stack.extend(zip(snap_at, taken))
    else:
        # Everything else replays the routed loop from the start behind
        # a failure hook, in grid order, so a deadlocking capacity
        # raises the first deadlocking cell's diagnostic.
        for _, _, key in grid:
            if key not in pattern_cache:
                fail = (
                    _prefix_hook(key, max_retries, task_ids) if key else None
                )
                settle(key, lambda: _run_routed(
                    workflow, low, env, mode, ordering, tr_dur, exec_dur,
                    fail, row=columnar,
                ))

    # Pass 3: every cell, in grid order.
    cells: list[MonteCarloCell] = []
    k = out_offset
    for p, seed, key in grid:
        kind, payload = pattern_cache[key]
        if columnar:
            out[k] = payload if kind == "ok" else _ABORT_ROW
            k += 1
        elif kind == "ok":
            cells.append(MonteCarloCell(p, seed, payload))
        else:
            cells.append(MonteCarloCell(p, seed, None, True, payload))
    if columnar:
        return k - out_offset
    return cells
