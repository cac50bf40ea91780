"""Finite-storage-capacity (admission control) tests.

The paper assumes infinite storage; this extension implements the
storage-constrained scheduling of its reference [15]: stage-ins and task
dispatch reserve space first, and the run waits (or deadlocks, if the
capacity is below the workflow's minimum footprint).
"""

import functools
import math
import operator
from unittest import mock

import pytest

from repro.sim.executor import simulate
from repro.sim.resources import Storage, admission_limit, size_units
from repro.workflow.dag import FileSpec, Task, Workflow
from repro.workflow.generators import chain_workflow, fork_join_workflow

from tests.float_sums import compensated_sum

BW = 1.25e6
F = 1.25e6


def u(size_bytes: float) -> int:
    return size_units(size_bytes)


class TestStorageReservations:
    def test_reserve_and_materialize(self):
        s = Storage(capacity_bytes=100.0)
        assert s.reserve(u(60.0))
        assert s.committed_bytes == 60.0
        assert not s.reserve(u(50.0))  # would exceed
        s.add("a", 60.0, 0.0)
        s.release_reservation(u(60.0))
        assert s.committed_bytes == 60.0
        assert s.fits(u(40.0))
        assert not s.fits(u(41.0))

    def test_space_freed_callbacks(self):
        calls = []
        s = Storage(capacity_bytes=10.0)
        s.subscribe_space_freed(lambda: calls.append("freed"))
        s.add("a", 5.0, 0.0)
        s.remove("a", 1.0)
        assert calls == ["freed"]
        s.reserve(u(3.0))
        s.release_reservation(u(3.0))
        assert calls == ["freed", "freed"]

    def test_infinite_capacity_always_fits(self):
        s = Storage()
        assert s.fits(u(1e18))
        assert s.reserve(u(1e18))

    def test_validation(self):
        with pytest.raises(ValueError):
            Storage(capacity_bytes=0.0)
        s = Storage(capacity_bytes=10.0)
        with pytest.raises(ValueError):
            s.reserve(-1)
        with pytest.raises(RuntimeError):
            s.release_reservation(u(5.0))  # nothing reserved

    def test_over_release_raises_at_large_capacity(self):
        # The ledger is exact, so the guard has no slack at any capacity:
        # one unit more than is reserved raises.
        s = Storage(capacity_bytes=1.7e10)
        assert s.reserve(u(1000.0))
        with pytest.raises(RuntimeError, match="releasing"):
            s.release_reservation(u(1000.0) + 1)
        s.release_reservation(u(1000.0))
        assert s.reserved_bytes == 0.0

    def test_release_order_leaves_no_residue(self):
        # Floats reserved in one order and released in another: a float
        # ledger keeps a few ulps of residue, the unit ledger none.
        sizes = [0.1, 0.2, 0.3, 1e10 / 3, 7.25e-3, 2.0**-30, 123456.789]
        released = sizes[1::2] + sizes[::-2]
        residue = 0.0
        for size in sizes:
            residue += size
        for size in released:
            residue -= size
        assert residue != 0.0
        s = Storage(capacity_bytes=1e11)
        for size in sizes:
            assert s.reserve(u(size))
        for size in released:
            s.release_reservation(u(size))
        assert s.reserved_bytes == 0.0
        assert s.committed_units == 0
        with pytest.raises(RuntimeError, match="releasing"):
            s.release_reservation(1)

    def test_admission_limit_slack(self):
        # Exactly the capacity fits; the slack is max(1e-6, cap * 2**-40).
        assert admission_limit(100.0) == u(100.0) + u(1e-6)
        assert admission_limit(1.7e10) == u(1.7e10) + u(1.7e10 * 2**-40)
        s = Storage(capacity_bytes=100.0)
        assert s.fits(u(100.0) + u(1e-6))
        assert not s.fits(u(100.0) + u(1e-6) + 1)


class TestConstrainedExecution:
    def test_ample_capacity_identical_to_infinite(self, montage1):
        free = simulate(montage1, 8, "cleanup", record_trace=False)
        capped = simulate(
            montage1, 8, "cleanup",
            storage_capacity_bytes=montage1.total_file_bytes() * 2,
            record_trace=False,
        )
        assert capped.makespan == pytest.approx(free.makespan)
        assert capped.storage_byte_seconds == pytest.approx(
            free.storage_byte_seconds
        )

    def test_tight_capacity_with_cleanup_still_completes(self):
        # chain(4) in cleanup mode needs at most ~3 files at once
        # (current input + output + the staged-out product).
        wf = chain_workflow(4, runtime=10.0, file_size=F)
        r = simulate(
            wf, 1, "cleanup",
            bandwidth_bytes_per_sec=BW,
            storage_capacity_bytes=3 * F,
            record_trace=False,
        )
        assert r.n_task_executions == 4
        assert r.peak_storage_bytes <= 3 * F + 1e-6

    def test_capacity_serializes_wide_stage_in(self):
        # fork-join(6) in cleanup mode: the occupancy curve coalesces
        # same-instant swaps (inputs deleted as mids appear), so the
        # unconstrained end-of-instant peak is 6 files; the *reservation*
        # requirement is stricter — the join must hold its 6 mids plus a
        # reserved output, 7 files — so a capacity of 8 completes (with
        # worker dispatch staggered by admission) and 6.5 deadlocks.
        wf = fork_join_workflow(6, runtime=10.0, file_size=F)
        free = simulate(wf, 6, "cleanup", bandwidth_bytes_per_sec=BW,
                        record_trace=False)
        assert free.peak_storage_bytes == pytest.approx(6 * F)
        capped = simulate(
            wf, 6, "cleanup",
            bandwidth_bytes_per_sec=BW,
            storage_capacity_bytes=8 * F,
            record_trace=False,
        )
        assert capped.n_task_executions == 7
        assert capped.peak_storage_bytes <= 8 * F + 1e-6
        assert capped.makespan >= free.makespan
        # The same bytes still cross the link.
        assert capped.bytes_in == pytest.approx(free.bytes_in)

    def test_infeasible_join_capacity_deadlocks(self):
        # The join needs its 6 mids plus output resident: 7 files; a
        # capacity of 6.5 can never finish.
        wf = fork_join_workflow(6, runtime=10.0, file_size=F)
        with pytest.raises(RuntimeError, match="storage capacity"):
            simulate(
                wf, 6, "cleanup", bandwidth_bytes_per_sec=BW,
                storage_capacity_bytes=6.5 * F, record_trace=False,
            )

    def test_impossible_capacity_reports_deadlock(self):
        wf = chain_workflow(2, runtime=10.0, file_size=F)
        with pytest.raises(RuntimeError, match="storage capacity"):
            simulate(
                wf, 1, "cleanup",
                bandwidth_bytes_per_sec=BW,
                storage_capacity_bytes=0.5 * F,  # no single file fits
                record_trace=False,
            )

    def test_regular_mode_needs_full_footprint(self):
        # Regular mode never deletes, so capacity below the footprint
        # deadlocks even though cleanup would squeeze through.
        wf = chain_workflow(4, runtime=10.0, file_size=F)
        cap = 3 * F
        ok = simulate(
            wf, 1, "cleanup", bandwidth_bytes_per_sec=BW,
            storage_capacity_bytes=cap, record_trace=False,
        )
        assert ok.n_task_executions == 4
        with pytest.raises(RuntimeError, match="storage capacity"):
            simulate(
                wf, 1, "regular", bandwidth_bytes_per_sec=BW,
                storage_capacity_bytes=cap, record_trace=False,
            )

    def test_remote_io_under_capacity(self):
        wf = chain_workflow(3, runtime=10.0, file_size=F)
        r = simulate(
            wf, 1, "remote-io",
            bandwidth_bytes_per_sec=BW,
            storage_capacity_bytes=2 * F,  # one input copy + one output
            record_trace=False,
        )
        assert r.n_task_executions == 3
        assert r.peak_storage_bytes <= 2 * F + 1e-6

    def test_capacity_never_exceeded_montage(self, montage1):
        cap = 700e6  # below the 1.34 GB footprint; cleanup fits
        r = simulate(
            montage1, 8, "cleanup",
            storage_capacity_bytes=cap, record_trace=False,
        )
        assert r.n_task_executions == 203
        assert r.peak_storage_bytes <= cap + 1e-6

    def test_multioutput_task_reservation(self):
        # A task with two outputs must reserve both before dispatch.
        wf = Workflow("two-out")
        wf.add_file(FileSpec("in", F))
        wf.add_file(FileSpec("o1", F))
        wf.add_file(FileSpec("o2", F))
        wf.add_task(Task("t", 10.0, inputs=("in",), outputs=("o1", "o2")))
        r = simulate(
            wf, 1, "cleanup", bandwidth_bytes_per_sec=BW,
            storage_capacity_bytes=3 * F, record_trace=False,
        )
        assert r.peak_storage_bytes <= 3 * F + 1e-6
        with pytest.raises(RuntimeError, match="storage capacity"):
            simulate(
                wf, 1, "cleanup", bandwidth_bytes_per_sec=BW,
                storage_capacity_bytes=2 * F, record_trace=False,
            )


class TestCompensatedSum:
    """The test helper reproduces CPython 3.12's compensated ``sum``."""

    def test_cancellation_keeps_the_small_terms(self):
        assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0

    def test_tenths_sum_to_one(self):
        assert compensated_sum([0.1] * 10) == 1.0
        assert functools.reduce(operator.add, [0.1] * 10) != 1.0

    def test_ints_and_start(self):
        assert compensated_sum([1, 2, 3]) == 6
        assert compensated_sum([], 0.5) == 0.5
        assert compensated_sum([[1], [2]], []) == [1, 2]


def footprints(wf) -> set[float]:
    """The workflow's footprint under three definitions: the interpreter's
    ``sum`` (``total_file_bytes``), a left fold and ``math.fsum``."""
    sizes = [f.size_bytes for f in wf.files.values()]
    return {
        wf.total_file_bytes(),
        functools.reduce(operator.add, sizes, 0),
        math.fsum(sizes),
    }


@pytest.mark.parametrize("degree", [1, 2, 4])
@pytest.mark.parametrize(
    "float_sum", [sum, compensated_sum], ids=["builtin-sum", "sum-3.12"]
)
def test_capacity_at_footprint_completes(float_sum, degree, request):
    # Regular mode at capacity = footprint ends with every file stored at
    # once.  Admission must not hinge on how the footprint or the stored
    # total was rounded: every run completes, on both engines, equally.
    wf = request.getfixturevalue(f"montage{degree}")
    with mock.patch("builtins.sum", float_sum):
        for capacity in sorted(footprints(wf)):
            for mode in ("regular", "cleanup", "remote-io"):
                for p in (8, 16, 64):
                    kwargs = dict(
                        n_processors=p, data_mode=mode,
                        storage_capacity_bytes=capacity, record_trace=True,
                    )
                    fast = simulate(wf, kernel="fast", **kwargs)
                    assert simulate(wf, kernel="event", **kwargs) == fast
                    assert fast.peak_storage_bytes <= capacity * (1 + 1e-9)
