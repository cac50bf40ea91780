"""Fast-kernel unit tests: dispatch policy, eligibility, exact equality.

The statistical heavy lifting (kernel ≡ engine on arbitrary DAGs) lives
in ``test_kernel_differential.py``; this file pins the dispatch rules of
``simulate(..., kernel=...)``, the eligibility boundary, the lowering
cache's mutation safety, and exact equality — records and curves
included — on the golden Montage workflow.
"""

import pytest

from repro.montage.generator import montage_workflow
from repro.sim import (
    FIFO_ORDER,
    LEVEL_ORDER,
    LONGEST_FIRST,
    SHORTEST_FIRST,
    ExecutionEnvironment,
    FailureModel,
    KernelConfig,
    kernel_eligible,
    resolve_kernel,
    run_fast_kernel,
    run_fast_kernel_batch,
    run_monte_carlo,
    simulate,
)
from repro.sim.failures import WorkflowAbortedError
from repro.sim.kernel import KERNEL_ENV
from repro.workflow.dag import FileSpec, Task, Workflow


def small_workflow() -> Workflow:
    wf = Workflow("diamond")
    wf.add_file(FileSpec("raw", 4e6))
    wf.add_file(FileSpec("a", 2e6))
    wf.add_file(FileSpec("b", 1e6))
    wf.add_file(FileSpec("out", 3e6))
    wf.add_task(Task("t0", 10.0, inputs=("raw",), outputs=("a", "b")))
    wf.add_task(Task("t1", 5.0, inputs=("a",), outputs=()))
    wf.add_task(Task("t2", 7.0, inputs=("a", "b"), outputs=("out",)))
    return wf


class TestResolveKernel:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel() == "auto"
        assert resolve_kernel(None) == "auto"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "event")
        assert resolve_kernel("fast") == "fast"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "event")
        assert resolve_kernel() == "event"
        monkeypatch.setenv(KERNEL_ENV, " FAST ")
        assert resolve_kernel() == "fast"

    def test_unknown_name_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel("turbo")
        monkeypatch.setenv(KERNEL_ENV, "warp")
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel()


class TestEligibility:
    def test_simple_model_is_eligible(self):
        env = ExecutionEnvironment(n_processors=4)
        assert kernel_eligible(env)

    def test_contention_eligible(self):
        # Contended FIFO links are modelled natively since the batched
        # kernel PR.
        env = ExecutionEnvironment(n_processors=4, link_contention=True)
        assert kernel_eligible(env)
        env = ExecutionEnvironment(
            n_processors=4, link_contention=True, separate_links=True
        )
        assert kernel_eligible(env)

    def test_finite_storage_eligible(self):
        env = ExecutionEnvironment(
            n_processors=4, storage_capacity_bytes=1e9
        )
        assert kernel_eligible(env)

    def test_failures_eligible(self):
        # The kernel replays FailureModel draws bit-identically since
        # the Monte Carlo PR: nothing is ineligible any more.
        env = ExecutionEnvironment(n_processors=4)
        assert kernel_eligible(env, FailureModel(0.1, seed=1))

    def test_fast_never_raises(self):
        # Failures, contention and finite capacity all run on the fast
        # kernel; KernelIneligibleError survives only as a deprecated
        # API name (see test_ineligible_alias_deprecated).
        r = simulate(small_workflow(), 2, kernel="fast",
                     failures=FailureModel(0.5, seed=3))
        assert r.makespan > 0
        r = simulate(small_workflow(), 2, kernel="fast",
                     link_contention=True)
        assert r.makespan > 0
        r = simulate(small_workflow(), 2, kernel="fast",
                     storage_capacity_bytes=1e9)
        assert r.makespan > 0

    def test_ineligible_alias_deprecated(self):
        # The raise paths are gone; accessing the name (from the kernel
        # module or the sim package) warns but keeps old except clauses
        # importable, and the alias is still a ValueError subclass.
        import repro.sim as sim_pkg
        import repro.sim.kernel as kernel_mod

        with pytest.warns(DeprecationWarning, match="KernelIneligibleError"):
            exc = kernel_mod.KernelIneligibleError
        assert issubclass(exc, ValueError)
        with pytest.warns(DeprecationWarning, match="KernelIneligibleError"):
            assert sim_pkg.KernelIneligibleError is exc

    def test_run_fast_kernel_handles_contention_and_capacity(self):
        for env in (
            ExecutionEnvironment(n_processors=2, link_contention=True),
            ExecutionEnvironment(n_processors=2, storage_capacity_bytes=1e9),
        ):
            assert run_fast_kernel(small_workflow(), env).makespan > 0

    def test_kernel_validates_processor_count(self):
        env = ExecutionEnvironment(n_processors=0)
        with pytest.raises(ValueError, match="at least one processor"):
            run_fast_kernel(small_workflow(), env)


class TestAutoFallback:
    """kernel='auto' must match the event engine on every configuration."""

    def test_auto_matches_event_on_failure_configs(self):
        # fresh model per run: the RNG stream is consumed.  Under "auto"
        # this now rides the fast kernel's failure replay.
        wf = small_workflow()
        a = simulate(wf, 2, kernel="auto",
                     failures=FailureModel(0.3, seed=7))
        b = simulate(wf, 2, kernel="event",
                     failures=FailureModel(0.3, seed=7))
        assert a == b

    def test_auto_matches_event_on_newly_eligible_configs(self):
        # Contention and capacity take the fast path under "auto" now —
        # and the results must still equal the event engine's exactly.
        wf = small_workflow()
        for kwargs in (
            {"link_contention": True},
            {"link_contention": True, "separate_links": True},
            {"storage_capacity_bytes": 1e9},
            {"storage_capacity_bytes": 1.2e7, "link_contention": True},
        ):
            a = simulate(wf, 2, kernel="auto", **kwargs)
            b = simulate(wf, 2, kernel="event", **kwargs)
            assert a == b

    def test_auto_matches_event_deadlock_on_tight_capacity(self):
        # A capacity below the workflow's footprint deadlocks — on both
        # backends, with the same message.
        wf = small_workflow()
        errs = []
        for kernel in ("auto", "event"):
            with pytest.raises(RuntimeError, match="capacity") as err:
                simulate(wf, 2, kernel=kernel, storage_capacity_bytes=7e6)
            errs.append(str(err.value))
        assert errs[0] == errs[1]

    def test_audited_auto_run_uses_event_engine(self):
        # audit=True forces the event path under "auto" (the oracle's
        # job is to check the engine); the result must not change.
        wf = small_workflow()
        audited = simulate(wf, 2, kernel="auto", audit=True)
        plain = simulate(wf, 2, kernel="event")
        assert audited == plain

    def test_env_kernel_steers_simulate(self, monkeypatch):
        wf = small_workflow()
        monkeypatch.setenv(KERNEL_ENV, "fast")
        a = simulate(wf, 2, failures=FailureModel(0.2, seed=11))
        monkeypatch.setenv(KERNEL_ENV, "event")
        b = simulate(wf, 2, failures=FailureModel(0.2, seed=11))
        assert a == b
        assert simulate(wf, 2) == simulate(wf, 2, kernel="fast")


class TestExactEquality:
    @pytest.mark.parametrize("mode", ["regular", "cleanup", "remote-io"])
    @pytest.mark.parametrize("overhead,boot", [(0.0, 0.0), (2.5, 45.0)])
    def test_montage_identical_with_traces(self, mode, overhead, boot):
        wf = montage_workflow(1.0)
        kwargs = dict(
            data_mode=mode,
            task_overhead_seconds=overhead,
            compute_ready_seconds=boot,
            record_trace=True,
        )
        a = simulate(wf, 8, kernel="event", **kwargs)
        b = simulate(wf, 8, kernel="fast", **kwargs)
        # dataclass equality covers every scalar, all task/transfer
        # records, and exact StepCurve breakpoints/values
        assert a == b
        assert a.storage_curve == b.storage_curve
        assert a.busy_curve == b.busy_curve
        assert a.task_records == b.task_records
        assert a.transfer_records == b.transfer_records

    @pytest.mark.parametrize(
        "ordering", [FIFO_ORDER, LONGEST_FIRST, SHORTEST_FIRST, LEVEL_ORDER]
    )
    def test_montage_identical_under_orderings(self, ordering):
        wf = montage_workflow(1.0)
        for mode in ("regular", "cleanup"):
            a = simulate(wf, 4, data_mode=mode, ordering=ordering,
                         kernel="event")
            b = simulate(wf, 4, data_mode=mode, ordering=ordering,
                         kernel="fast")
            assert a == b

    def test_empty_workflow(self):
        wf = Workflow("empty")
        a = simulate(wf, 2, kernel="event")
        b = simulate(wf, 2, kernel="fast")
        assert a == b
        assert b.makespan == 0.0

    def test_traceless_results_match(self):
        wf = montage_workflow(1.0)
        a = simulate(wf, 16, data_mode="cleanup", record_trace=False,
                     kernel="event")
        b = simulate(wf, 16, data_mode="cleanup", record_trace=False,
                     kernel="fast")
        assert a == b
        assert b.storage_curve is None and b.busy_curve is None


@pytest.mark.audit
class TestKernelUnderAudit:
    def test_oracle_passes_on_kernel_records(self):
        # kernel="fast" + audit=True reconciles the kernel's own emitted
        # records against the oracle — the second, independent proof of
        # equivalence (the first is the differential suite).
        wf = montage_workflow(1.0)
        for mode in ("regular", "cleanup", "remote-io"):
            result = simulate(wf, 8, data_mode=mode, kernel="fast",
                              audit=True)
            assert result.n_task_executions == len(wf.tasks)

    def test_oracle_passes_with_overhead_and_boot(self):
        result = simulate(
            small_workflow(), 2, data_mode="cleanup",
            task_overhead_seconds=1.5, compute_ready_seconds=30.0,
            kernel="fast", audit=True,
        )
        assert result.makespan > 30.0


class TestBatchKernel:
    """run_fast_kernel_batch ≡ per-run run_fast_kernel ≡ event engine."""

    def test_processor_ladder_identical(self):
        wf = montage_workflow(1.0)
        envs = [
            ExecutionEnvironment(n_processors=p, record_trace=False)
            for p in (1, 2, 4, 8, 16, 32)
        ]
        configs = [
            KernelConfig(environment=e, data_mode="cleanup") for e in envs
        ]
        batch = run_fast_kernel_batch(wf, configs)
        for env, got in zip(envs, batch):
            assert got == run_fast_kernel(wf, env, data_mode="cleanup")
            assert got == simulate(
                wf, env.n_processors, data_mode="cleanup",
                record_trace=False, kernel="event",
            )

    def test_heterogeneous_configs_identical(self):
        # One batch mixing modes, orderings, traces, contention and
        # capacity — every config must match its own per-run result.
        wf = small_workflow()
        specs = [
            dict(data_mode="regular"),
            dict(data_mode="cleanup", ordering=LONGEST_FIRST),
            dict(data_mode="remote-io"),
            dict(data_mode="regular", record_trace=True),
            dict(data_mode="cleanup", link_contention=True),
            dict(data_mode="cleanup", storage_capacity_bytes=8e6),
            dict(data_mode="regular", storage_capacity_bytes=1.2e7),
            dict(data_mode="cleanup", task_overhead_seconds=1.5,
                 compute_ready_seconds=20.0),
        ]
        configs = []
        for s in specs:
            s = dict(s)
            mode = s.pop("data_mode")
            order = s.pop("ordering", FIFO_ORDER)
            env = ExecutionEnvironment(
                n_processors=2, record_trace=s.pop("record_trace", False),
                **s,
            )
            configs.append(
                KernelConfig(environment=env, data_mode=mode, ordering=order)
            )
        batch = run_fast_kernel_batch(wf, configs)
        for cfg, got in zip(configs, batch):
            assert got == run_fast_kernel(
                wf, cfg.environment, cfg.data_mode, ordering=cfg.ordering
            )

    def test_batch_deadlock_matches_per_run_error(self):
        wf = small_workflow()
        env = ExecutionEnvironment(
            n_processors=2, storage_capacity_bytes=1e3
        )
        with pytest.raises(RuntimeError, match="capacity") as batch_err:
            run_fast_kernel_batch(wf, [KernelConfig(environment=env)])
        with pytest.raises(RuntimeError, match="capacity") as single_err:
            simulate(wf, 2, storage_capacity_bytes=1e3, kernel="event")
        assert str(batch_err.value) == str(single_err.value)

    def test_empty_batch(self):
        assert run_fast_kernel_batch(small_workflow(), []) == []

    def test_batch_validates_processor_count(self):
        env = ExecutionEnvironment(n_processors=0)
        with pytest.raises(ValueError, match="at least one processor"):
            run_fast_kernel_batch(
                small_workflow(), [KernelConfig(environment=env)]
            )


class TestSingleRunRouting:
    """Traceless single runs take the batch's turbo loop, bit-identically."""

    @staticmethod
    def three_ways(wf, mode, ordering, boot, failures):
        """The run via run_fast_kernel, a one-config batch and the engine.

        ``failures`` builds a fresh model per path (its draw stream is
        consumed by the replay); each entry is a result or the abort
        message.
        """
        env = ExecutionEnvironment(
            n_processors=4, compute_ready_seconds=boot, record_trace=False
        )
        calls = (
            lambda: run_fast_kernel(wf, env, mode, ordering=ordering,
                                    failures=failures()),
            lambda: run_fast_kernel_batch(
                wf, [KernelConfig(env, mode, ordering, failures())]
            )[0],
            lambda: simulate(wf, 4, mode, compute_ready_seconds=boot,
                             ordering=ordering, failures=failures(),
                             record_trace=False, kernel="event"),
        )
        out = []
        for call in calls:
            try:
                out.append(call())
            except WorkflowAbortedError as err:
                out.append(str(err))
        return out

    @pytest.mark.parametrize("mode", ["regular", "cleanup"])
    @pytest.mark.parametrize("ordering", [FIFO_ORDER, LONGEST_FIRST])
    @pytest.mark.parametrize("boot", [0.0, 45.0])
    @pytest.mark.parametrize("probability", [0.0, 0.2])
    def test_matches_batch_and_event_engine(
        self, mode, ordering, boot, probability
    ):
        wf = montage_workflow(1.0)
        single, batch, event = self.three_ways(
            wf, mode, ordering, boot,
            lambda: FailureModel(probability, seed=3, max_retries=50)
            if probability else None,
        )
        assert single == batch == event
        if probability:
            assert single.n_task_failures > 0

    @pytest.mark.parametrize("mode", ["regular", "cleanup"])
    def test_abort_matches_batch_and_event_engine(self, mode):
        wf = montage_workflow(1.0)
        single, batch, event = self.three_ways(
            wf, mode, FIFO_ORDER, 0.0,
            lambda: FailureModel(0.3, seed=1, max_retries=0),
        )
        assert isinstance(single, str) and "no retries left" in single
        assert single == batch == event

    def test_traceless_run_uses_turbo_loop(self, monkeypatch):
        from repro.sim import kernel

        wf = small_workflow()
        traced = run_fast_kernel(
            wf, ExecutionEnvironment(n_processors=2), "cleanup"
        )

        def unexpected(*args, **kwargs):
            raise AssertionError("traceless run took the single-run loop")

        monkeypatch.setattr(kernel, "_run_single", unexpected)
        got = run_fast_kernel(
            wf, ExecutionEnvironment(n_processors=2, record_trace=False),
            "cleanup",
        )
        assert got.makespan == traced.makespan
        assert got.storage_byte_seconds == traced.storage_byte_seconds
        assert got.task_records == [] and got.storage_curve is None


class TestLoweringCache:
    def test_mutation_invalidates_cached_lowering(self):
        wf = small_workflow()
        before = simulate(wf, 2, kernel="fast")
        # Structural mutation after a kernel run: the cached lowering
        # must be rebuilt, not reused.
        wf.add_file(FileSpec("extra", 5e6))
        wf.add_task(Task("t3", 11.0, inputs=("out", "extra"), outputs=()))
        after_fast = simulate(wf, 2, kernel="fast")
        after_event = simulate(wf, 2, kernel="event")
        assert after_fast == after_event
        assert after_fast.makespan > before.makespan

    def test_version_counter_bumps_on_mutation(self):
        wf = Workflow("v")
        v0 = wf.version
        wf.add_file(FileSpec("x", 1.0))
        assert wf.version > v0
        v1 = wf.version
        wf.add_task(Task("t", 1.0, inputs=("x",), outputs=()))
        assert wf.version > v1
        v2 = wf.version
        wf.mark_output("x")
        assert wf.version > v2


class TestMonteCarlo:
    """run_monte_carlo: the seed-batched (probability, seed) grid."""

    def _config(self, n=4, **env_kwargs):
        return KernelConfig(
            environment=ExecutionEnvironment(n_processors=n, **env_kwargs)
        )

    def test_cells_match_event_engine(self):
        wf = montage_workflow(0.2)
        probs = (0.0, 0.05, 0.15)
        seeds = (0, 1, 2, 3)
        cells = run_monte_carlo(wf, self._config(), probs, seeds,
                                max_retries=50)
        assert len(cells) == len(probs) * len(seeds)
        i = 0
        for prob in probs:
            for seed in seeds:
                cell = cells[i]
                i += 1
                assert (cell.probability, cell.seed) == (prob, seed)
                assert not cell.aborted
                ref = simulate(
                    wf, 4, record_trace=False,
                    failures=FailureModel(prob, seed=seed, max_retries=50),
                    kernel="event",
                )
                assert cell.result == ref

    def test_zero_probability_matches_no_failures_exactly(self):
        # Satellite: p=0 and failures=None must be byte-identical —
        # the model consumes no draws, so there is nothing to replay.
        wf = small_workflow()
        cells = run_monte_carlo(wf, self._config(2), [0.0], [7, 8])
        baseline = simulate(wf, 2, record_trace=False, kernel="fast")
        for cell in cells:
            assert cell.result == baseline

    def test_failure_free_cells_dedup_exact(self):
        # A low-probability grid mixes seeds that draw a failure with
        # seeds that provably cannot; the latter must reuse the
        # no-failure baseline (identity) and every cell must still be
        # bit-identical to a stand-alone event-engine run (exactness).
        wf = montage_workflow(0.2)
        seeds = tuple(range(12))
        cells = run_monte_carlo(wf, self._config(), [0.0, 0.05], seeds,
                                max_retries=50)
        baseline = cells[0].result
        shared = sum(1 for c in cells if c.result is baseline)
        ran = sum(1 for c in cells if c.result is not baseline)
        assert shared > len(seeds), "p=0 cells plus some p=0.005 cells"
        assert ran > 0, "some seed must actually draw a failure"
        for cell in cells:
            ref = simulate(
                wf, 4, record_trace=False,
                failures=FailureModel(cell.probability, seed=cell.seed,
                                      max_retries=50),
                kernel="event",
            )
            assert cell.result == ref

    def test_summary_only_skips_traces(self):
        wf = small_workflow()
        config = KernelConfig(
            environment=ExecutionEnvironment(n_processors=2,
                                             record_trace=True)
        )
        summary = run_monte_carlo(wf, config, [0.1], [0])
        assert summary[0].result.task_records == []
        traced = run_monte_carlo(wf, config, [0.1], [0],
                                 summary_only=False)
        assert len(traced[0].result.task_records) >= len(wf.tasks)
        ref = simulate(wf, 2, record_trace=True,
                       failures=FailureModel(0.1, seed=0), kernel="event")
        assert traced[0].result == ref

    def test_abort_cells_flagged_with_engine_message(self):
        wf = small_workflow()
        probs = (0.9,)
        seeds = range(6)
        cells = run_monte_carlo(wf, self._config(2), probs, seeds,
                                max_retries=0)
        aborted = [c for c in cells if c.aborted]
        assert aborted, "p=0.9 with no retries must abort some seed"
        for cell in cells:
            try:
                ref = simulate(
                    wf, 2, record_trace=False,
                    failures=FailureModel(0.9, seed=cell.seed,
                                          max_retries=0),
                    kernel="event",
                )
            except WorkflowAbortedError as err:
                assert cell.aborted
                assert cell.result is None
                assert cell.abort_message == str(err)
            else:
                assert not cell.aborted
                assert cell.result == ref

    def test_validates_inputs(self):
        wf = small_workflow()
        with pytest.raises(ValueError, match="probability"):
            run_monte_carlo(wf, self._config(), [1.0], [0])
        with pytest.raises(ValueError, match="max_retries"):
            run_monte_carlo(wf, self._config(), [0.1], [0], max_retries=-1)

    def test_empty_grid(self):
        wf = small_workflow()
        assert run_monte_carlo(wf, self._config(), [], [0]) == []
        assert run_monte_carlo(wf, self._config(), [0.1], []) == []
