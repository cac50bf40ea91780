"""Jittered plates derived from a memoized base build.

A jittered ``montage_workflow`` call without a profile override reuses
its degree's unjittered base (files, topology, kernel lowering) and only
brings its own runtime vector.  These tests pin that a derived plate is
indistinguishable from a from-scratch build, that no runtime state leaks
between plates, and that pickling drops the link to the base.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.grid import GridPlan, run_grid
from repro.montage.generator import _build_montage_workflow, montage_workflow
from repro.montage.profiles import profile_for_degree
from repro.sim import simulate
from repro.sim.kernel import _Lowering, _lowering
from repro.sweep.builders import clear_build_caches
from repro.sweep.cache import SimCache
from repro.workflow.dag import FileSpec, Task, WorkflowValidationError

JITTER = 0.05
BANDWIDTHS = (1.25e6, 1e7)
OVERHEADS = (0.0, 3.5)


def scratch(degree: float, seed: int, name: str | None = None):
    return _build_montage_workflow(degree, None, JITTER, seed, name)


def plate(degree: float, seed: int, name: str | None = None):
    return montage_workflow(degree, jitter=JITTER, seed=seed, name=name)


def makespans(wf, overhead: float = 0.0, kernel: str = "fast") -> tuple:
    return tuple(
        simulate(
            wf, 8, mode, record_trace=False,
            task_overhead_seconds=overhead, kernel=kernel,
        ).makespan
        for mode in ("regular", "cleanup")
    )


def assert_lowerings_equal(got: _Lowering, want: _Lowering) -> None:
    for attr in ("runtimes", "sizes", "consumers", "no_input_tasks",
                 "task_ids", "task_inputs", "task_outputs"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert np.array_equal(got.runtimes_arr, want.runtimes_arr)
    assert got.cleanup_tables() == want.cleanup_tables()
    for o in OVERHEADS:
        assert got.exec_durations(o) == want.exec_durations(o)
    for b in BANDWIDTHS:
        assert got.arrival_schedule(b) == want.arrival_schedule(b)


class TestPlateEqualsScratchBuild:
    @pytest.mark.parametrize("name", [None, "plate-x"])
    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("degree", [1.0, 2.0, 4.0])
    def test_workflow_and_lowering(self, degree, seed, name):
        got, want = plate(degree, seed, name), scratch(degree, seed, name)
        assert got._base is not None
        assert got.name == want.name
        assert got.fingerprint() == want.fingerprint()
        assert got.tasks == want.tasks
        assert got.files == want.files
        assert got.output_files() == want.output_files()
        assert got.topological_order() == want.topological_order()
        assert got.levels() == want.levels()
        assert_lowerings_equal(_lowering(got), _Lowering(want, want.version))

    @pytest.mark.parametrize("degree,seed", [(1.0, 4), (2.0, 5), (4.0, 6)])
    def test_fast_kernel_matches_event_engine(self, degree, seed):
        got = plate(degree, seed)
        assert makespans(got) == makespans(got, kernel="event")
        assert makespans(got) == makespans(scratch(degree, seed))

    def test_profile_override_builds_from_scratch(self):
        wf = montage_workflow(
            profile=profile_for_degree(1.0), jitter=JITTER, seed=1
        )
        assert wf._base is None
        assert wf.fingerprint() == plate(1.0, 1).fingerprint()


class TestNoStateLeaksBetweenPlates:
    @pytest.mark.parametrize("overhead", OVERHEADS)
    def test_interleaved_plates_keep_their_own_durations(self, overhead):
        a, b = plate(1.0, 11), plate(1.0, 12)
        refs = {
            id(wf): (
                _Lowering(ref, ref.version).exec_durations(overhead),
                makespans(ref, overhead, kernel="event"),
            )
            for wf, ref in ((a, scratch(1.0, 11)), (b, scratch(1.0, 12)))
        }
        for wf in (a, b, a, b):
            durations, spans = refs[id(wf)]
            assert _lowering(wf).exec_durations(overhead) == durations
            assert makespans(wf, overhead) == spans

    @pytest.mark.parametrize("mutation", ["add_file", "add_task",
                                          "mark_output"])
    def test_mutating_a_plate_leaves_base_and_sibling_alone(self, mutation):
        base = montage_workflow(1.0)
        a, b = plate(1.0, 21), plate(1.0, 22)

        def snapshot(wf):
            return (wf.fingerprint(), list(wf.topological_order()),
                    wf.output_files(), wf.consumers_of("mosaic.fits"),
                    list(_lowering(wf).runtimes),
                    _Lowering(wf, wf.version).consumers, makespans(wf))

        before = {id(wf): snapshot(wf) for wf in (base, b)}
        base_version = base.version
        if mutation == "add_file":
            a.add_file(FileSpec("extra.hdr", 1.0))
            a.add_file(FileSpec("extra.fits", 1.0))
            a.add_task(Task("mExtra", 1.0, ("extra.hdr",), ("extra.fits",)))
        elif mutation == "add_task":
            a.add_file(FileSpec("side.fits", 1.0))
            a.add_task(Task("mSide", 2.0, ("mosaic.fits",), ("side.fits",)))
        else:
            a.mark_output("images.tbl")
        assert base.version == base_version
        for wf in (base, b):
            assert snapshot(wf) == before[id(wf)]
        # The mutated plate is lowered afresh and still agrees with the
        # event engine.
        assert _lowering(a).n_tasks == len(a)
        assert _lowering(a).output_fidx == _Lowering(a, a.version).output_fidx
        assert makespans(a) == makespans(a, kernel="event")

    def test_mutated_base_is_not_lowered_for_its_plates(self):
        base = _build_montage_workflow(1.0, None, 0.0, 0, "private-base")
        ref = scratch(1.0, 23)
        derived = base._with_runtimes(
            [t.runtime for t in ref.tasks.values()], "p"
        )
        _lowering(base)
        base.add_file(FileSpec("late.fits", 1.0))
        base.add_task(Task("mLate", 1.0, ("mosaic.fits",), ("late.fits",)))
        assert _lowering(derived).n_tasks == len(derived) == len(base) - 1
        assert makespans(derived) == makespans(ref, kernel="event")

    def test_clearing_build_caches_mid_stream(self):
        old = plate(2.0, 31)
        clear_build_caches()
        new = plate(2.0, 32)
        assert new._base[0] is not old._base[0]
        for wf, seed in ((old, 31), (new, 32)):
            ref = scratch(2.0, seed)
            assert wf.fingerprint() == ref.fingerprint()
            assert makespans(wf) == makespans(ref, kernel="event")


class TestPickling:
    @pytest.mark.parametrize("degree", [1.0, 4.0])
    def test_pickle_drops_the_base(self, degree):
        montage_workflow(degree).levels()  # fill the base's per-task caches
        got, want = plate(degree, 41), scratch(degree, 41)
        size, ref_size = len(pickle.dumps(got)), len(pickle.dumps(want))
        assert abs(size - ref_size) <= 0.05 * ref_size
        back = pickle.loads(pickle.dumps(got))
        assert back._base is None
        assert back.fingerprint() == want.fingerprint()
        assert back.levels() == want.levels()
        assert makespans(back) == makespans(want, kernel="event")

    def test_grid_workers_agree_on_derived_plates(self):
        plan = GridPlan(
            plates=tuple(plate(1.0, s, f"g-{s}") for s in range(51, 55)),
            processors=(2, 8),
            probabilities=(0.0, 0.05),
            seeds=(1, 2),
        )
        serial = run_grid(plan, shards=2, workers=1, cache=SimCache())
        pooled = run_grid(plan, shards=2, workers=2, cache=SimCache())
        assert pooled.batch.tobytes() == serial.batch.tobytes()


def checked_build(base, runtimes) -> dict:
    """Every task rebuilt through ``Task(...)``: the checked construction
    a derived plate's trusted copies must be indistinguishable from."""
    return {
        t.task_id: Task(t.task_id, r, t.inputs, t.outputs, t.transformation)
        for t, r in zip(base.tasks.values(), runtimes, strict=True)
    }


def raised(fn, *args) -> tuple[type, str]:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def calibrated(base) -> list[float]:
    return [t.runtime for t in base.tasks.values()]


class TestRuntimeVectorChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("where", [0, 57, -1])
    def test_bad_entry_raises_what_task_raises(self, bad, where):
        base = montage_workflow(1.0)
        runtimes = calibrated(base)
        runtimes[where] = bad
        got = raised(base._with_runtimes, runtimes, "p")
        assert got == raised(checked_build, base, runtimes)
        tid = list(base.tasks)[where]
        kind = "negative" if bad == -1.0 else "non-finite"
        assert got == (WorkflowValidationError,
                       f"task {tid!r} has {kind} runtime {bad}")

    @pytest.mark.parametrize("change,message", [
        (lambda r: r[:-1], "zip() argument 2 is shorter than argument 1"),
        (lambda r: [], "zip() argument 2 is shorter than argument 1"),
        (lambda r: r + [1.0], "zip() argument 2 is longer than argument 1"),
        (lambda r: r + [-1.0], "zip() argument 2 is longer than argument 1"),
    ])
    def test_wrong_length_raises_value_error(self, change, message):
        base = montage_workflow(1.0)
        runtimes = change(calibrated(base))
        got = raised(base._with_runtimes, runtimes, "p")
        assert got == raised(checked_build, base, runtimes)
        assert got == (ValueError, message)

    def test_bad_entry_in_a_short_vector_names_the_entry(self):
        base = montage_workflow(1.0)
        runtimes = calibrated(base)[:-1]
        runtimes[3] = math.nan
        got = raised(base._with_runtimes, runtimes, "p")
        assert got == raised(checked_build, base, runtimes)
        assert got[0] is WorkflowValidationError

    def test_failed_derivation_leaves_base_unshared(self):
        base = _build_montage_workflow(1.0, None, 0.0, 0, "private-base")
        with pytest.raises(WorkflowValidationError):
            base._with_runtimes([math.nan] * len(base), "p")
        assert not base._consumers_shared

    def test_any_iterable_is_accepted(self):
        ref = scratch(1.0, 8)
        base = montage_workflow(1.0)
        got = base._with_runtimes(iter(calibrated(ref)), ref.name)
        assert got.fingerprint() == ref.fingerprint()


class TestTrustedTaskCopies:
    @pytest.mark.parametrize("degree", [1.0, 4.0])
    def test_copies_are_tasks_equal_and_hash_equal(self, degree):
        got = plate(degree, 61)
        want = checked_build(got, calibrated(got))
        assert list(got.tasks) == list(want)
        for tid, task in got.tasks.items():
            assert type(task) is Task
            assert task == want[tid]
            assert hash(task) == hash(want[tid])
            assert repr(task) == repr(want[tid])
        assert set(got.tasks.values()) == set(want.values())

    def test_copies_are_frozen_and_independent(self):
        base = montage_workflow(1.0)
        got = plate(1.0, 62)
        task = got.task("mAdd")
        with pytest.raises(AttributeError):
            task.runtime = 1.0
        assert task.runtime != base.task("mAdd").runtime
        assert task.inputs is base.task("mAdd").inputs
        assert vars(task) is not vars(base.task("mAdd"))


class TestSharedConsumers:
    """The consumer table is shared with the base until either side
    writes; these checks read it directly, not through the lowering."""

    def structure(self, wf) -> tuple:
        # Read fresh: ``children`` is filled here for the first time.
        return ({f: wf.consumers_of(f) for f in wf.files},
                {t: wf.children(t) for t in wf.tasks})

    def mutate(self, wf) -> None:
        wf.add_file(FileSpec("late.fits", 1.0))
        wf.add_task(Task("mLate", 1.0, ("mosaic.fits", "images.tbl"),
                         ("late.fits",)))

    def test_derivation_shares_instead_of_copying(self):
        base = _build_montage_workflow(1.0, None, 0.0, 0, "private-base")
        a = base._with_runtimes(calibrated(base), "a")
        b = base._with_runtimes(calibrated(base), "b")
        assert a._consumers is base._consumers is b._consumers
        assert a._consumers_shared and base._consumers_shared

    def test_mutating_the_base_leaves_the_plate_alone(self):
        base = _build_montage_workflow(1.0, None, 0.0, 0, "private-base")
        ref = scratch(1.0, 63)
        derived = base._with_runtimes(calibrated(ref), "p")
        self.mutate(base)
        assert base.consumers_of("mosaic.fits") == {"mShrink", "mLate"}
        assert "mLate" in base.children("mAdd")
        assert derived._consumers is not base._consumers
        assert self.structure(derived) == self.structure(ref)
        assert derived.consumers_of("mosaic.fits") == {"mShrink"}
        assert "mLate" not in derived.children("mImgtbl")

    @pytest.mark.parametrize("sibling", [False, True])
    def test_mutating_the_plate_leaves_base_and_siblings_alone(self, sibling):
        base = _build_montage_workflow(1.0, None, 0.0, 0, "private-base")
        ref = _build_montage_workflow(1.0, None, 0.0, 0, "ref")
        a = base._with_runtimes(calibrated(base), "a")
        b = (a if sibling else base)._with_runtimes(calibrated(base), "b")
        self.mutate(a)
        assert a.consumers_of("mosaic.fits") == {"mShrink", "mLate"}
        assert a.children("mAdd") == {"mShrink", "mLate"}
        for wf in (base, b):
            assert wf._consumers is not a._consumers
            assert self.structure(wf) == self.structure(ref)

    def test_mutating_twice_copies_once(self):
        base = _build_montage_workflow(1.0, None, 0.0, 0, "private-base")
        base._with_runtimes(calibrated(base), "p")
        self.mutate(base)
        owned = base._consumers
        base.add_file(FileSpec("later.fits", 1.0))
        assert base._consumers is owned and not base._consumers_shared


class TestPickledPlateOwnsItsConsumers:
    def test_unpickled_plate_is_unshared(self):
        got = plate(1.0, 64)
        back = pickle.loads(pickle.dumps(got))
        assert not back._consumers_shared
        assert back._consumers == got._consumers
        TestSharedConsumers().mutate(back)
        assert got.consumers_of("mosaic.fits") == {"mShrink"}
        assert montage_workflow(1.0).consumers_of("mosaic.fits") == {"mShrink"}

    def test_base_and_plate_in_one_pickle_do_not_share(self):
        base = _build_montage_workflow(1.0, None, 0.0, 0, "private-base")
        derived = base._with_runtimes(calibrated(base), "p")
        base2, derived2 = pickle.loads(pickle.dumps((base, derived)))
        assert base2._consumers is not derived2._consumers
        TestSharedConsumers().mutate(base2)
        assert derived2.consumers_of("mosaic.fits") == {"mShrink"}
        assert derived2.fingerprint() == derived.fingerprint()
