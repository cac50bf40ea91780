"""Core workflow DAG model.

A :class:`Workflow` is a set of :class:`Task` vertices connected by data
dependencies: task *A* precedes task *B* iff some file produced by *A* is
consumed by *B*.  Files are first-class (:class:`FileSpec`) because the
paper's cost model is driven by file sizes: transfer volume, storage
occupancy and the communication-to-computation ratio are all sums over the
file set.

Terminology follows the paper:

* **input files** — files no task produces; they start co-located with the
  application/user and must be staged in to cloud storage;
* **output files** — the net products of the workflow, staged out to the
  user at the end (files nothing consumes, plus any explicitly registered
  outputs);
* **level** — tasks with no parents are level 1; any other task is one plus
  the maximum level of its parents (Figure 1 of the paper).
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

__all__ = ["FileSpec", "Task", "Workflow", "WorkflowValidationError"]


class WorkflowValidationError(ValueError):
    """Raised when a workflow violates a structural invariant."""


@dataclass(frozen=True)
class FileSpec:
    """A logical file moved through the workflow.

    Parameters
    ----------
    name:
        Unique logical file name within the workflow.
    size_bytes:
        Size used for transfer times, transfer fees and storage occupancy.
    """

    name: str
    size_bytes: float

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowValidationError("file name must be non-empty")
        if not math.isfinite(self.size_bytes):
            raise WorkflowValidationError(
                f"file {self.name!r} has non-finite size {self.size_bytes}"
            )
        if self.size_bytes < 0:
            raise WorkflowValidationError(
                f"file {self.name!r} has negative size {self.size_bytes}"
            )

    def with_size(self, size_bytes: float) -> "FileSpec":
        """Return a copy with a different size (used by CCR scaling)."""
        return FileSpec(self.name, float(size_bytes))


@dataclass(frozen=True)
class Task:
    """A workflow vertex: one invocation of an application routine.

    Parameters
    ----------
    task_id:
        Unique identifier within the workflow.
    runtime:
        Execution time in seconds on the reference CPU (the paper takes
        these from real runs; our Montage generator calibrates them).
    inputs / outputs:
        Logical file names consumed / produced.  A file may be consumed by
        many tasks but produced by at most one.
    transformation:
        Routine name (e.g. ``mProject``); informational, used for grouping
        in reports.
    """

    task_id: str
    runtime: float
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    transformation: str = "task"

    def __post_init__(self) -> None:
        if not self.task_id:
            raise WorkflowValidationError("task_id must be non-empty")
        if not math.isfinite(self.runtime):
            raise WorkflowValidationError(
                f"task {self.task_id!r} has non-finite runtime {self.runtime}"
            )
        if self.runtime < 0:
            raise WorkflowValidationError(
                f"task {self.task_id!r} has negative runtime {self.runtime}"
            )
        # One set answers the valid case; only a mismatch pays for the
        # separate checks that name the fault.
        names = set(self.inputs)
        if len(names) != len(self.inputs):
            raise WorkflowValidationError(
                f"task {self.task_id!r} lists a duplicate input file"
            )
        names.update(self.outputs)
        if len(names) == len(self.inputs) + len(self.outputs):
            return
        if len(set(self.outputs)) != len(self.outputs):
            raise WorkflowValidationError(
                f"task {self.task_id!r} lists a duplicate output file"
            )
        overlap = set(self.inputs) & set(self.outputs)
        raise WorkflowValidationError(
            f"task {self.task_id!r} both consumes and produces {sorted(overlap)}"
        )


class Workflow:
    """A validated DAG of tasks and files.

    The workflow is mutable while being built (``add_file`` / ``add_task``)
    and validated incrementally; global invariants (acyclicity) are checked
    by :meth:`validate`, which the simulator and analyses call implicitly
    through :meth:`topological_order`.
    """

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._files: dict[str, FileSpec] = {}
        self._tasks: dict[str, Task] = {}
        #: file name -> producing task id (at most one per file)
        self._producer: dict[str, str] = {}
        #: file name -> set of consuming task ids
        self._consumers: dict[str, set[str]] = {}
        #: ``_consumers`` (the dict and its sets) may be shared with a
        #: workflow made by or from :meth:`_with_runtimes`; the first
        #: write copies it (see :meth:`_own_consumers`).
        self._consumers_shared = False
        self._explicit_outputs: set[str] = set()
        self._version = 0
        # Derived caches, valid for ``_cache_version``: mutations only bump
        # ``_version`` and the next read drops them (see _sync_caches).
        self._cache_version = 0
        self._topo_cache: list[str] | None = None
        self._level_cache: dict[str, int] | None = None
        self._parents_cache: dict[str, frozenset[str]] = {}
        self._children_cache: dict[str, frozenset[str]] = {}
        self._fingerprint_cache: str | None = None
        #: :meth:`validate` passed at ``_cache_version``.
        self._validated = False
        #: ``(base, base.version)`` for a workflow made by
        #: :meth:`_with_runtimes`, else ``None``; not pickled.
        self._base: tuple[Workflow, int] | None = None

    def __getstate__(self) -> dict:
        # The base link would drag the whole base into every pickle, and
        # the per-task parent/child/level caches are cheap to refill.  A
        # shared consumer table is copied, so an unpickled workflow owns
        # its sets even when its base travels in the same pickle.
        state = self.__dict__.copy()
        if self._consumers_shared:
            state["_consumers"] = self._copied_consumers()
            state["_consumers_shared"] = False
        state["_base"] = None
        state["_level_cache"] = None
        state["_parents_cache"] = {}
        state["_children_cache"] = {}
        return state

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every structural change).

        An ``(object, version)`` pair identifies a workflow snapshot
        without hashing its contents — the cheap alternative to
        :meth:`fingerprint` for in-process caches such as the fast
        kernel's lowering cache.
        """
        return self._version

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_file(self, file: FileSpec) -> FileSpec:
        """Register a file.  Re-registering with identical size is a no-op."""
        existing = self._files.get(file.name)
        if existing is not None:
            if existing.size_bytes != file.size_bytes:
                raise WorkflowValidationError(
                    f"file {file.name!r} registered twice with different sizes "
                    f"({existing.size_bytes} != {file.size_bytes})"
                )
            return existing
        self._files[file.name] = file
        self._own_consumers().setdefault(file.name, set())
        self._version += 1
        return file

    def add_task(self, task: Task) -> Task:
        """Register a task; all its files must already be registered."""
        if task.task_id in self._tasks:
            raise WorkflowValidationError(f"duplicate task id {task.task_id!r}")
        for fname in (*task.inputs, *task.outputs):
            if fname not in self._files:
                raise WorkflowValidationError(
                    f"task {task.task_id!r} references unregistered file {fname!r}"
                )
        for fname in task.outputs:
            if fname in self._producer:
                raise WorkflowValidationError(
                    f"file {fname!r} produced by both "
                    f"{self._producer[fname]!r} and {task.task_id!r}"
                )
        consumers = self._own_consumers()
        self._tasks[task.task_id] = task
        for fname in task.outputs:
            self._producer[fname] = task.task_id
        for fname in task.inputs:
            consumers[fname].add(task.task_id)
        self._version += 1
        return task

    def mark_output(self, file_name: str) -> None:
        """Explicitly mark a file as a net workflow output (staged out)."""
        if file_name not in self._files:
            raise WorkflowValidationError(f"unknown file {file_name!r}")
        self._explicit_outputs.add(file_name)
        self._version += 1

    def _copied_consumers(self) -> dict[str, set[str]]:
        return dict(
            zip(self._consumers, map(set.copy, self._consumers.values()))
        )

    def _own_consumers(self) -> dict[str, set[str]]:
        """The consumer table, copied first if it is shared (copy-on-write)."""
        if self._consumers_shared:
            self._consumers = self._copied_consumers()
            self._consumers_shared = False
        return self._consumers

    def _sync_caches(self) -> None:
        """Drop the derived caches if the workflow changed since they were
        filled.  Building a workflow mutates it thousands of times and
        reads it once, so invalidation is paid per read, not per mutation.
        """
        if self._cache_version != self._version:
            self._topo_cache = None
            self._level_cache = None
            self._parents_cache = {}
            self._children_cache = {}
            self._fingerprint_cache = None
            self._validated = False
            self._cache_version = self._version

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def tasks(self) -> dict[str, Task]:
        """Task id -> :class:`Task` (do not mutate)."""
        return self._tasks

    @property
    def files(self) -> dict[str, FileSpec]:
        """File name -> :class:`FileSpec` (do not mutate)."""
        return self._files

    def task(self, task_id: str) -> Task:
        return self._tasks[task_id]

    def file(self, name: str) -> FileSpec:
        return self._files[name]

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def producer_of(self, file_name: str) -> str | None:
        """Id of the task producing ``file_name``, or ``None`` for inputs."""
        return self._producer.get(file_name)

    def consumers_of(self, file_name: str) -> frozenset[str]:
        """Ids of tasks consuming ``file_name``."""
        return frozenset(self._consumers.get(file_name, ()))

    # ------------------------------------------------------------------ #
    # graph structure
    # ------------------------------------------------------------------ #
    def parents(self, task_id: str) -> frozenset[str]:
        """Tasks whose outputs this task consumes (cached)."""
        self._sync_caches()
        cached = self._parents_cache.get(task_id)
        if cached is not None:
            return cached
        task = self._tasks[task_id]
        out = set()
        for fname in task.inputs:
            prod = self._producer.get(fname)
            if prod is not None:
                out.add(prod)
        result = frozenset(out)
        self._parents_cache[task_id] = result
        return result

    def children(self, task_id: str) -> frozenset[str]:
        """Tasks consuming any of this task's outputs (cached)."""
        self._sync_caches()
        cached = self._children_cache.get(task_id)
        if cached is not None:
            return cached
        task = self._tasks[task_id]
        out: set[str] = set()
        for fname in task.outputs:
            out |= self._consumers.get(fname, set())
        result = frozenset(out)
        self._children_cache[task_id] = result
        return result

    def edges(self) -> Iterator[tuple[str, str]]:
        """Yield ``(parent, child)`` dependency pairs (deduplicated)."""
        for tid in self._tasks:
            for parent in sorted(self.parents(tid)):
                yield (parent, tid)

    def roots(self) -> list[str]:
        """Tasks with no parents (level 1), in insertion order."""
        return [tid for tid in self._tasks if not self.parents(tid)]

    def leaves(self) -> list[str]:
        """Tasks with no children, in insertion order."""
        return [tid for tid in self._tasks if not self.children(tid)]

    # ------------------------------------------------------------------ #
    # file classification
    # ------------------------------------------------------------------ #
    def input_files(self) -> list[str]:
        """Files no task produces: staged in from the user at the start."""
        return [f for f in self._files if f not in self._producer]

    def output_files(self) -> list[str]:
        """Net products of the workflow, staged out to the user.

        A file is an output if nothing consumes it, or if it was explicitly
        registered via :meth:`mark_output`.  Initial inputs nothing consumes
        are *not* outputs (they never left the user).
        """
        out = []
        for fname in self._files:
            if fname in self._explicit_outputs:
                out.append(fname)
            elif not self._consumers.get(fname) and fname in self._producer:
                out.append(fname)
        return out

    def intermediate_files(self) -> list[str]:
        """Files produced and fully consumed inside the workflow."""
        outputs = set(self.output_files())
        return [
            f for f in self._files if f in self._producer and f not in outputs
        ]

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Content-addressed identity of the workflow (hex SHA-256).

        Two workflows share a fingerprint iff they are indistinguishable
        to the simulator: same name, and same files, tasks and explicit
        outputs *in the same registration order* (registration order
        drives stage-in and dispatch tie-breaking, so it is part of the
        identity).  Stable across processes and interpreter runs — unlike
        ``hash()`` — which makes it usable as an on-disk memo key.
        Cached; invalidated on mutation.
        """
        self._sync_caches()
        if self._fingerprint_cache is not None:
            return self._fingerprint_cache
        h = hashlib.sha256()
        h.update(self.name.encode())
        for f in self._files.values():
            h.update(f"\x1ff{f.name}\x1e{f.size_bytes!r}".encode())
        for t in self._tasks.values():
            h.update(
                f"\x1ft{t.task_id}\x1e{t.runtime!r}"
                f"\x1e{','.join(t.inputs)}\x1e{','.join(t.outputs)}"
                f"\x1e{t.transformation}".encode()
            )
        for fname in sorted(self._explicit_outputs):
            h.update(f"\x1fo{fname}".encode())
        self._fingerprint_cache = h.hexdigest()
        return self._fingerprint_cache

    # ------------------------------------------------------------------ #
    # validation / ordering / levels
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[str]:
        """Kahn topological order; raises on cycles.  Cached.

        Roots are queued in insertion order and each task's children in
        sorted-id order.  In-degrees count (input file, producer)
        incidences straight off the producer/consumer maps rather than
        distinct parents; a child still reaches zero exactly when its
        last parent is dequeued.
        """
        self._sync_caches()
        if self._topo_cache is not None:
            return self._topo_cache
        tasks = self._tasks
        producer = self._producer
        consumers = self._consumers
        indeg = {
            tid: sum(f in producer for f in task.inputs)
            for tid, task in tasks.items()
        }
        queue = deque(tid for tid, d in indeg.items() if d == 0)
        order: list[str] = []
        while queue:
            tid = queue.popleft()
            order.append(tid)
            outputs = tasks[tid].outputs
            for fname in outputs:
                for child in consumers[fname]:
                    indeg[child] -= 1
            if len(outputs) == 1:
                kids = consumers[outputs[0]]
            else:
                kids = set().union(*(consumers[f] for f in outputs))
            for child in sorted(kids):
                if indeg[child] == 0:
                    queue.append(child)
        if len(order) != len(self._tasks):
            cyclic = sorted(tid for tid, d in indeg.items() if d > 0)
            raise WorkflowValidationError(
                f"workflow {self.name!r} contains a cycle through {cyclic[:5]}"
            )
        self._topo_cache = order
        return order

    def validate(self) -> None:
        """Check global invariants (acyclicity, file wiring); a pass is
        remembered until the next mutation."""
        self._sync_caches()
        if self._validated:
            return
        self.topological_order()
        for fname, consumers in self._consumers.items():
            if fname not in self._producer and not consumers:
                raise WorkflowValidationError(
                    f"file {fname!r} is neither produced nor consumed"
                )
        self._validated = True

    def levels(self) -> dict[str, int]:
        """Task level per the paper: 1 for roots, else 1 + max parent level."""
        self._sync_caches()
        if self._level_cache is not None:
            return self._level_cache
        levels: dict[str, int] = {}
        for tid in self.topological_order():
            parents = self.parents(tid)
            levels[tid] = 1 + max((levels[p] for p in parents), default=0)
        self._level_cache = levels
        return levels

    def tasks_at_level(self, level: int) -> list[str]:
        """Task ids at a given level, in topological order."""
        lv = self.levels()
        return [tid for tid in self.topological_order() if lv[tid] == level]

    def depth(self) -> int:
        """Number of levels (0 for an empty workflow)."""
        lv = self.levels()
        return max(lv.values(), default=0)

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def total_runtime(self) -> float:
        """Sum of task runtimes in seconds (the paper's Σ r(v))."""
        return sum(t.runtime for t in self._tasks.values())

    def total_file_bytes(self) -> float:
        """Sum of sizes of all files used or produced (the paper's Σ s(f))."""
        return sum(f.size_bytes for f in self._files.values())

    def input_bytes(self) -> float:
        """Total size of initial input files."""
        return sum(self._files[f].size_bytes for f in self.input_files())

    def output_bytes(self) -> float:
        """Total size of net output files."""
        return sum(self._files[f].size_bytes for f in self.output_files())

    def count_by_transformation(self) -> dict[str, int]:
        """Task counts per transformation name (e.g. mProject: 40)."""
        counts: dict[str, int] = {}
        for task in self._tasks.values():
            counts[task.transformation] = counts.get(task.transformation, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # copying / rewriting
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "Workflow":
        """Structural copy (tasks/files are immutable and shared)."""
        wf = Workflow(name or self.name)
        for f in self._files.values():
            wf.add_file(f)
        for t in self._tasks.values():
            wf.add_task(t)
        for fname in self._explicit_outputs:
            wf.mark_output(fname)
        return wf

    def _with_runtimes(
        self, runtimes: Iterable[float], name: str
    ) -> "Workflow":
        """Copy with every task's runtime replaced, in task order.

        The vector is checked once: a wrong length raises ``ValueError``
        and a non-finite or negative entry the
        :class:`WorkflowValidationError` that building that :class:`Task`
        raises.  The copy's tasks are then made without re-running
        ``Task`` validation (each is its base task's fields with the new
        runtime, equal and hash-equal to ``Task(...)``).  It shares the
        immutable :class:`FileSpec` objects and task ``inputs``/``outputs``
        tuples, gets its own file, producer and output tables, and shares
        this workflow's consumer table copy-on-write: whichever side
        first adds a file or task copies it, so mutating either never
        touches the other.  It starts with this workflow's topological
        order, levels, parent/child sets and :meth:`validate` pass, which
        do not depend on runtimes; its fingerprint is computed afresh.
        It records ``(self, self.version)`` so the fast kernel can derive
        its lowering from this workflow's while neither side has changed.
        """
        self.validate()
        runtimes = list(runtimes)
        if not (
            len(runtimes) == len(self._tasks)
            and all(map(math.isfinite, runtimes))
            and min(runtimes, default=0.0) >= 0
        ):
            # Build checked tasks until one fails: the same error, in the
            # same order, that checked construction raises.
            for t, r in zip(self._tasks.values(), runtimes, strict=True):
                Task(t.task_id, r, t.inputs, t.outputs, t.transformation)
        wf = Workflow(name)
        wf._files = self._files.copy()
        new, set_state = object.__new__, object.__setattr__
        tasks = {}
        for (tid, t), runtime in zip(self._tasks.items(), runtimes):
            task = new(Task)
            state = t.__dict__.copy()
            state["runtime"] = runtime
            set_state(task, "__dict__", state)
            tasks[tid] = task
        wf._tasks = tasks
        wf._producer = self._producer.copy()
        wf._consumers = self._consumers
        wf._consumers_shared = self._consumers_shared = True
        wf._explicit_outputs = self._explicit_outputs.copy()
        wf._topo_cache = self._topo_cache
        wf._level_cache = self._level_cache
        wf._parents_cache = self._parents_cache.copy()
        wf._children_cache = self._children_cache.copy()
        wf._validated = True
        wf._base = (self, self._version)
        return wf

    def with_file_sizes(
        self, sizes: dict[str, float], name: str | None = None
    ) -> "Workflow":
        """Copy with some file sizes replaced (CCR scaling support)."""
        wf = Workflow(name or self.name)
        for f in self._files.values():
            if f.name in sizes:
                wf.add_file(f.with_size(sizes[f.name]))
            else:
                wf.add_file(f)
        for t in self._tasks.values():
            wf.add_task(t)
        for fname in self._explicit_outputs:
            wf.mark_output(fname)
        return wf

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Workflow({self.name!r}, tasks={len(self._tasks)}, "
            f"files={len(self._files)})"
        )


def build_workflow(
    name: str,
    files: Iterable[FileSpec],
    tasks: Iterable[Task],
    outputs: Iterable[str] = (),
) -> Workflow:
    """Convenience constructor used heavily in tests."""
    wf = Workflow(name)
    for f in files:
        wf.add_file(f)
    for t in tasks:
        wf.add_task(t)
    for fname in outputs:
        wf.mark_output(fname)
    wf.validate()
    return wf
