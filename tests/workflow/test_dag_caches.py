"""Lazy invalidation of the workflow's derived caches.

``Workflow`` mutations only bump its version; topological order, levels,
parents, children and the fingerprint are dropped on the next read.
These properties interleave mutations with reads on arbitrary DAGs and
check every read against a freshly built copy (cold caches) and, for the
order, against a reference Kahn order computed here from first
principles.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.dag import FileSpec, Task, Workflow, WorkflowValidationError
from tests.strategies import workflows


def reference_kahn(wf: Workflow) -> list[str]:
    """Kahn's algorithm over explicit parent/child sets.

    Roots in insertion order, each dequeued task's children in sorted-id
    order — the documented contract of ``Workflow.topological_order``.
    """
    parents = {
        tid: {
            wf.producer_of(f) for f in task.inputs
            if wf.producer_of(f) is not None
        }
        for tid, task in wf.tasks.items()
    }
    children: dict[str, set[str]] = {tid: set() for tid in wf.tasks}
    for tid, ps in parents.items():
        for p in ps:
            children[p].add(tid)
    indeg = {tid: len(ps) for tid, ps in parents.items()}
    queue = deque(tid for tid, d in indeg.items() if d == 0)
    order = []
    while queue:
        tid = queue.popleft()
        order.append(tid)
        for child in sorted(children[tid]):
            indeg[child] -= 1
            if indeg[child] == 0:
                queue.append(child)
    return order


READS = ("order", "levels", "parents", "children", "fingerprint")


def assert_reads_match_fresh(live: Workflow, reads=READS) -> None:
    """Compare each read, in the given order, with a cold copy's.

    The first read after a mutation is the one that must notice it, so
    callers vary which read comes first.
    """
    fresh = live.copy()
    for read in reads:
        if read == "order":
            assert live.topological_order() == fresh.topological_order()
            assert live.topological_order() == reference_kahn(live)
        elif read == "levels":
            assert live.levels() == fresh.levels()
        elif read == "fingerprint":
            assert live.fingerprint() == fresh.fingerprint()
        else:
            for tid in live.tasks:
                assert getattr(live, read)(tid) == getattr(fresh, read)(tid)


@settings(max_examples=60, deadline=None)
@given(source=workflows(max_tasks=10), data=st.data())
def test_reads_between_mutations_match_fresh_copy(source, data):
    live = Workflow(source.name)
    for f in source.files.values():
        live.add_file(f)
    # Any insertion order is legal once the files exist; a consumer added
    # before its producer gains a parent later, which stale caches miss.
    for task in data.draw(
        st.permutations(list(source.tasks.values())), label="task order"
    ):
        # Warm some caches, then mutate: the next reads must see the task.
        if data.draw(st.booleans(), label="read order before add_task"):
            live.topological_order()
        if data.draw(st.booleans(), label="read levels before add_task"):
            live.levels()
        if live.tasks and data.draw(
            st.booleans(), label="read parents before add_task"
        ):
            tid = data.draw(st.sampled_from(sorted(live.tasks)))
            live.parents(tid)
            live.children(tid)
        live.add_task(task)
        if data.draw(st.booleans(), label="check after add_task"):
            assert_reads_match_fresh(
                live, data.draw(st.permutations(READS), label="read order")
            )
    # The strategy only ever marks consumed files explicitly.
    for fname in source.output_files():
        if not source.consumers_of(fname):
            continue
        before = live.fingerprint()
        live.topological_order()
        live.mark_output(fname)
        assert live.fingerprint() != before
        assert live.fingerprint() == live.copy().fingerprint()
        assert live.output_files() == live.copy().output_files()
    assert_reads_match_fresh(live)
    assert sorted(live.topological_order()) == sorted(source.tasks)


@settings(max_examples=60, deadline=None)
@given(wf=workflows(max_tasks=10))
def test_topological_order_matches_reference_kahn(wf):
    assert wf.topological_order() == reference_kahn(wf)
    levels = wf.levels()
    for tid in wf.tasks:
        assert levels[tid] == 1 + max(
            (levels[p] for p in wf.parents(tid)), default=0
        )


def test_mark_output_after_fingerprint_changes_it():
    wf = Workflow("w")
    for name in ("a", "b", "c"):
        wf.add_file(FileSpec(name, 1.0))
    wf.add_task(Task("t1", 1.0, inputs=("a",), outputs=("b",)))
    wf.add_task(Task("t2", 1.0, inputs=("b",), outputs=("c",)))
    before = wf.fingerprint()
    wf.mark_output("b")
    assert wf.fingerprint() != before
    assert wf.fingerprint() == wf.copy().fingerprint()
    assert wf.output_files() == ["b", "c"]


def test_cycle_message_after_cached_order():
    wf = Workflow("loop")
    for name in ("a", "b", "c", "d"):
        wf.add_file(FileSpec(name, 1.0))
    wf.add_task(Task("t2", 1.0, inputs=("a",), outputs=("b",)))
    assert wf.topological_order() == ["t2"]
    assert wf.levels() == {"t2": 1}
    wf.add_task(Task("t1", 1.0, inputs=("b", "d"), outputs=("a",)))
    wf.add_task(Task("t3", 1.0, inputs=("b",), outputs=("c",)))
    for read in (wf.topological_order, wf.levels, wf.validate):
        with pytest.raises(WorkflowValidationError) as err:
            read()
        assert str(err.value) == (
            "workflow 'loop' contains a cycle through ['t1', 't2', 't3']"
        )


def chain() -> Workflow:
    wf = Workflow("w")
    for name in ("a", "b", "c"):
        wf.add_file(FileSpec(name, 1.0))
    wf.add_task(Task("t1", 1.0, inputs=("a",), outputs=("b",)))
    wf.add_task(Task("t2", 1.0, inputs=("b",), outputs=("c",)))
    return wf


@pytest.mark.parametrize("fault", ["orphan-file", "cycle"])
def test_validate_after_a_pass_still_raises_on_new_faults(fault):
    # validate() remembers a pass only until the next mutation.
    wf = chain()
    wf.validate()
    wf.validate()
    if fault == "orphan-file":
        wf.add_file(FileSpec("orphan", 1.0))
    else:
        wf.add_task(Task("t0", 1.0, inputs=("c",), outputs=("a",)))
    errors = []
    for candidate in (wf, wf, wf.copy()):
        with pytest.raises(WorkflowValidationError) as err:
            candidate.validate()
        errors.append(str(err.value))
    assert errors[0] == errors[1] == errors[2]


def test_derived_workflow_does_not_reprove_an_unchanged_base():
    base = chain()
    base.validate()

    def reproof():
        raise AssertionError("validated base re-proved")

    base.topological_order = reproof
    plate = base._with_runtimes([2.0, 3.0], "plate")
    plate.validate()
    assert [t.runtime for t in plate.tasks.values()] == [2.0, 3.0]
    del base.topological_order
    base.add_file(FileSpec("orphan", 1.0))
    with pytest.raises(WorkflowValidationError, match="neither"):
        base._with_runtimes([2.0, 3.0], "plate")
