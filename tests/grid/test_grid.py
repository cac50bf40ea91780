"""Campaign grid engine: plan identity, sharding, columnar equality,
checkpointed incremental reruns, and the differential audit against the
event engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.costs import compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008
from repro.grid import GridPlan, GridResult, plan_shards, run_grid, shard_of
from repro.grid.engine import DEFAULT_SHARDS, _execute_shard, _shard_args
from repro.montage.generator import montage_workflow
from repro.sim import FailureModel, simulate
from repro.sim.kernel import SUMMARY_DTYPE, run_monte_carlo, summary_batch
from repro.sweep.cache import SimCache


def plates(n: int = 4) -> tuple:
    return tuple(
        montage_workflow(0.4, jitter=0.05, seed=i, name=f"t-plate{i:02d}")
        for i in range(n)
    )


def small_plan(n_plates: int = 4, **overrides) -> GridPlan:
    kwargs = dict(
        plates=plates(n_plates),
        processors=(2, 4),
        probabilities=(0.0, 0.05),
        seeds=(1, 2),
    )
    kwargs.update(overrides)
    return GridPlan(**kwargs)


class TestGridPlan:
    def test_shape(self):
        plan = small_plan()
        assert plan.cells_per_plate == 2 * 2 * 2
        assert plan.n_cells == 4 * 8

    def test_fingerprint_stable_and_sensitive(self):
        a, b = small_plan(), small_plan()
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != small_plan(seeds=(1, 3)).fingerprint()
        assert (
            a.fingerprint()
            != small_plan(probabilities=(0.0, 0.06)).fingerprint()
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one plate"):
            GridPlan(plates=(), processors=(2,))
        with pytest.raises(ValueError, match="at least one processor"):
            GridPlan(plates=plates(1), processors=(0,))
        with pytest.raises(ValueError, match="probability"):
            GridPlan(
                plates=plates(1), processors=(2,), probabilities=(1.5,)
            )
        with pytest.raises(KeyError, match="unknown ordering"):
            GridPlan(plates=plates(1), processors=(2,), ordering="bogus")
        # ExecutionEnvironment's rule, at construction rather than
        # inside a shard worker.
        for bw in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError, match="bandwidth must be positive"):
                GridPlan(
                    plates=plates(1), processors=(2,),
                    bandwidth_bytes_per_sec=bw,
                )

    @pytest.mark.parametrize("p", [2.5, True, 8.0])
    def test_non_integral_processor_count_rejected(self, p):
        # int(p) used to turn 2.5 into a silent 2.
        with pytest.raises(ValueError, match="n_processors must be an integer"):
            GridPlan(plates=plates(1), processors=(p,))

    def test_numpy_processor_count_normalized(self):
        plan = small_plan(1, processors=(np.int64(2), 4))
        assert plan.processors == (2, 4)
        assert all(type(p) is int for p in plan.processors)
        assert plan.fingerprint() == small_plan(1).fingerprint()

    def test_plan_is_picklable(self):
        import pickle

        plan = small_plan(2)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fingerprint() == plan.fingerprint()


class TestSharding:
    def test_shard_of_stable(self):
        fp = plates(1)[0].fingerprint()
        assert shard_of(fp, 8) == shard_of(fp, 8)
        assert 0 <= shard_of(fp, 3) < 3

    def test_partition_covers_every_plate_once(self):
        plan = small_plan(7)
        assignment = plan_shards(plan, 3)
        flat = sorted(i for shard in assignment for i in shard)
        assert flat == list(range(7))
        assert all(shard == sorted(shard) for shard in assignment)

    def test_default_shard_count(self):
        plan = small_plan(2)
        assert len(plan_shards(plan)) <= DEFAULT_SHARDS

    def test_order_independent_partition(self):
        # The partition hashes plate *content*, so reordering the plan's
        # plates regroups the same fingerprints into the same shards.
        p = plates(5)
        a = small_plan(plates=p)
        b = small_plan(plates=tuple(reversed(p)))
        fps = {wf.fingerprint() for wf in p}

        def groups(plan):
            plate_fps = plan.plate_fingerprints()
            return {
                frozenset(plate_fps[i] for i in shard)
                for shard in plan_shards(plan, 3)
            }

        assert groups(a) == groups(b)
        assert fps == {fp for g in groups(a) for fp in g}


class TestRunGrid:
    def test_columnar_matches_object_cells(self):
        plan = small_plan(2)
        result = run_grid(plan, shards=1, cache=SimCache())
        for pi, plate in enumerate(plan.plates):
            for ni, n in enumerate(plan.processors):
                cells = run_monte_carlo(
                    plate,
                    plan.kernel_config(n),
                    plan.probabilities,
                    plan.seeds,
                    max_retries=plan.max_retries,
                )
                it = iter(cells)
                for qi in range(len(plan.probabilities)):
                    for si in range(len(plan.seeds)):
                        row = result.row(pi, ni, qi, si)
                        cell = next(it)
                        assert row.aborted == cell.aborted
                        if not cell.aborted:
                            assert row.makespan == cell.result.makespan
                            assert (
                                row.storage_byte_seconds
                                == cell.result.storage_byte_seconds
                            )

    def test_merge_deterministic_across_shard_counts(self):
        plan = small_plan(5)
        one = run_grid(plan, shards=1, cache=SimCache())
        three = run_grid(plan, shards=3, cache=SimCache())
        assert np.array_equal(one.batch, three.batch)

    def test_differential_vs_event_engine_every_shard(self):
        # Subsample one cell from every shard and reconcile it against a
        # stand-alone event-engine run, byte for byte.
        plan = small_plan(4)
        result = run_grid(plan, shards=3, cache=SimCache())
        for shard in plan_shards(plan, 3):
            pi = shard[0]
            row = result.row(pi, 1, 1, 0)
            ref = simulate(
                plan.plates[pi],
                plan.processors[1],
                plan.data_mode,
                failures=FailureModel(
                    plan.probabilities[1],
                    seed=plan.seeds[0],
                    max_retries=plan.max_retries,
                ),
                kernel="event",
            )
            assert row.makespan == ref.makespan
            assert row.bytes_in == ref.bytes_in
            assert row.bytes_out == ref.bytes_out
            assert row.storage_byte_seconds == ref.storage_byte_seconds
            assert row.cpu_busy_seconds == ref.cpu_busy_seconds
            assert row.n_task_failures == ref.n_task_failures

    def test_incremental_rerun_touches_only_missing_shards(
        self, tmp_path, monkeypatch
    ):
        plan = small_plan(4)
        cache = SimCache(tmp_path)
        events: list[str] = []
        full = run_grid(plan, shards=3, cache=cache, progress=events.append)
        executed = [e for e in events if "executed" in e]
        assert len(executed) == len(plan_shards(plan, 3))

        # Simulate an interrupted campaign: drop one shard's checkpoint.
        blobs = sorted(tmp_path.glob("*/*.blob.pkl"))
        assert len(blobs) == len(plan_shards(plan, 3))
        blobs[0].unlink()

        # The rerun must execute exactly the missing shard; make any
        # other shard execution blow up to prove it can't happen twice.
        events2: list[str] = []
        rerun_cache = SimCache(tmp_path)
        import repro.grid.engine as engine

        real_execute = engine._execute_shard
        calls = []

        def counting_execute(*args):
            calls.append(args)
            return real_execute(*args)

        monkeypatch.setattr(engine, "_execute_shard", counting_execute)
        rerun = run_grid(
            plan, shards=3, cache=rerun_cache, progress=events2.append
        )
        assert len(calls) == 1
        n_shards = len(plan_shards(plan, 3))
        assert sum("from checkpoint" in e for e in events2) == n_shards - 1
        assert np.array_equal(full.batch, rerun.batch)

    def test_corrupt_checkpoint_reexecutes(self, tmp_path):
        plan = small_plan(2)
        cache = SimCache(tmp_path)
        full = run_grid(plan, shards=1, cache=cache)
        blob = next(tmp_path.glob("*/*.blob.pkl"))
        blob.write_bytes(b"not a pickle")
        rerun = run_grid(plan, shards=1, cache=SimCache(tmp_path))
        assert np.array_equal(full.batch, rerun.batch)

    def test_aborted_cells_flagged_not_fatal(self):
        plan = GridPlan(
            plates=plates(1),
            processors=(2,),
            probabilities=(0.0, 0.9),
            seeds=(1, 2, 3),
            max_retries=0,
        )
        result = run_grid(plan, shards=1, cache=SimCache())
        assert result.n_aborted > 0
        zero = result.batch[: len(plan.seeds)]
        assert not zero["aborted"].any()
        aborted = result.batch[result.batch["aborted"]]
        assert (aborted["makespan"] == 0.0).all()

    def test_shard_worker_roundtrip_is_picklable(self):
        # The pool pickles (args) and the result array; exercise the
        # exact payload the executor ships.
        import pickle

        plan = small_plan(2)
        args = _shard_args(plan, [0, 1])
        out = _execute_shard(*pickle.loads(pickle.dumps(args)))
        assert out.dtype == SUMMARY_DTYPE
        assert len(out) == 2 * plan.cells_per_plate


class TestGridResult:
    def test_rows_are_cost_compatible(self):
        plan = small_plan(1)
        result = run_grid(plan, shards=1, cache=SimCache())
        row = result.row(0, 0, 0, 0)
        cost = compute_cost(
            row, AWS_2008, ExecutionPlan.provisioned(row.n_processors)
        )
        assert cost.total > 0

    def test_to_rows_canonical_order(self):
        plan = small_plan(2)
        result = run_grid(plan, shards=1, cache=SimCache())
        rows = list(result.to_rows())
        assert len(rows) == plan.n_cells
        assert rows[0].plate == plan.plates[0].name
        assert rows[-1].plate == plan.plates[-1].name
        # Spot-check coordinates against .row indexing.
        i = result.index(1, 1, 1, 0)
        assert rows[i].n_processors == plan.processors[1]
        assert rows[i].probability == plan.probabilities[1]
        assert rows[i].seed == plan.seeds[0]

    def test_batch_shape_validated(self):
        with pytest.raises(ValueError, match="SUMMARY_DTYPE"):
            GridResult(
                plate_names=("a",),
                processors=(2,),
                probabilities=(0.0,),
                seeds=(1, 2),
                batch=summary_batch(3),
            )

    def test_column_is_view(self):
        plan = small_plan(1)
        result = run_grid(plan, shards=1, cache=SimCache())
        col = result.column("makespan")
        assert col.base is not None
        assert len(col) == plan.n_cells


class TestGridCli:
    def test_grid_command(self, capsys):
        assert (
            main(
                [
                    "grid",
                    "--plates", "2",
                    "--degree", "0.4",
                    "--processors", "2,4",
                    "--probabilities", "0,0.05",
                    "--seeds", "2",
                    "--shards", "2",
                    "--verbose",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cells" in out
        assert "16" in out
        assert "cache:" in out
