"""The resumable turbo replay: verdict cells, checkpoint forks, draws.

Two groups of guarantees:

1. **Fork parity** — one Monte Carlo cell replayed by
   ``_run_turbo_core`` four ways must agree tuple-for-tuple (floats
   bit-exact), abort messages included: with the live ``fail(t,
   attempt)`` hook, with a verdict array from scratch, forked from the
   nearest checkpoint of the failure-free baseline, and on the event
   engine (``simulate(kernel="event")``).
2. **Draw-stream pinning** — ``_SeedDraws`` must materialize exactly
   ``default_rng(seed).random(n)`` whatever growth pattern produced the
   buffer, so the vectorized pre-draw stays bit-identical to the
   engine's mid-flight draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import simulate
from repro.sim.datamanager import DataMode
from repro.sim.executor import ExecutionEnvironment
from repro.sim.failures import FailureModel, WorkflowAbortedError
from repro.sim.kernel import (
    SNAP_EVERY,
    SUMMARY_DTYPE,
    KernelConfig,
    _failure_hook,
    _lowering,
    _run_turbo_core,
    _SeedDraws,
    _verdict_fixpoint,
    run_monte_carlo,
)
from repro.sim.scheduler import FIFO_ORDER

from tests.strategies import workflows

#: SimulationResult fields in the order of the turbo loop's tuple.
_FIELDS = tuple(n for n in SUMMARY_DTYPE.names if n != "aborted")


# ------------------------------------------------------------------ #
# draw-stream pinning (_SeedDraws)
# ------------------------------------------------------------------ #
def test_seed_draws_sequence():
    """arr[:n] must equal default_rng(seed).random(n) for every growth
    path — the regression test pinning the Monte Carlo draw stream."""
    for seed in (0, 7, 123):
        stream = _SeedDraws(seed, n0=64, chunk=64)
        stream.extend()
        stream.ensure(1000)
        stream.extend()
        ref = np.random.default_rng(seed).random(stream.n)
        assert stream.arr.shape == ref.shape
        assert np.array_equal(stream.arr, ref)


def test_seed_draws_arr_is_view_not_copy():
    stream = _SeedDraws(3, n0=64, chunk=64)
    assert stream.arr.base is stream.buf


def test_seed_draws_flags_cached_and_invalidated():
    stream = _SeedDraws(1, n0=64, chunk=64)
    f1 = stream.flags(0.25)
    assert stream.flags(0.25) is f1
    ref = np.less(stream.arr, 0.25)
    assert np.array_equal(f1, ref)
    stream.extend()
    f2 = stream.flags(0.25)
    assert f2 is not f1
    assert f2.shape[0] == stream.n
    assert np.array_equal(f2[:64], f1)


def test_verdict_fixpoint_is_least_fixpoint():
    for seed in range(10):
        stream = _SeedDraws(seed, n0=64, chunk=64)
        n_tasks = 20
        flags, L, nf = _verdict_fixpoint(stream, 0.3, n_tasks)
        assert L == n_tasks + int(np.count_nonzero(flags[:L]))
        assert nf == int(np.count_nonzero(flags[:L]))
        for smaller in range(n_tasks, L):
            assert smaller != n_tasks + int(
                np.count_nonzero(flags[:smaller])
            )


# ------------------------------------------------------------------ #
# fork parity: scratch replay, checkpoint fork and event engine agree
# ------------------------------------------------------------------ #
def _cell_outcomes(wf, n_proc, mode, boot, seed, probability):
    """Replay one (probability, seed) cell every way the kernel can.

    Returns ``{way: (tuple | None, abort_message | None)}`` for the live
    failure hook, the verdict array from scratch, the fork from the
    nearest baseline checkpoint and the event engine — plus the
    baseline itself when the cell draws no failure.
    """
    env = ExecutionEnvironment(
        n_processors=n_proc, record_trace=False,
        compute_ready_seconds=boot,
    )
    low = _lowering(wf)
    tr_dur = low.transfer_durations(env.bandwidth_bytes_per_sec)
    exec_dur = low.exec_durations(env.task_overhead_seconds)
    max_retries = 2

    def model():
        if probability == 0.0:
            return None
        return FailureModel(probability, seed=seed, max_retries=max_retries)

    def turbo(**kwargs):
        return _run_turbo_core(
            wf, low, env, mode, FIFO_ORDER, tr_dur, exec_dur, **kwargs
        )

    def run(fn):
        try:
            return fn(), None
        except WorkflowAbortedError as exc:
            return None, str(exc)

    def event():
        result = simulate(
            wf, n_proc, data_mode=mode, compute_ready_seconds=boot,
            record_trace=False, failures=model(), kernel="event",
        )
        return tuple(getattr(result, name) for name in _FIELDS)

    snaps: list = []
    baseline = turbo(snapshots=snaps)
    assert snaps and len(snaps) == 1 + (low.n_tasks - 1) // SNAP_EVERY
    if probability > 0.0:
        stream = _SeedDraws(seed, n0=64, chunk=64)
        flags, L, nf = _verdict_fixpoint(stream, probability, low.n_tasks)
        verdicts = flags[:L]
        first = int(np.argmax(verdicts)) if nf else L
    else:
        verdicts, nf, first = None, 0, low.n_tasks
    # The nearest checkpoint at or before the first failure (the last
    # one for a failure-free cell), as run_monte_carlo picks it.
    j = min(first // SNAP_EVERY, len(snaps) - 1)
    outcomes = {
        "event": run(event),
        "hook": run(lambda: turbo(fail=_failure_hook(low, model()))),
        "scratch": run(lambda: turbo(
            verdicts=verdicts, max_retries=max_retries
        )),
        "fork": run(lambda: turbo(
            verdicts=verdicts, max_retries=max_retries, resume=snaps[j]
        )),
    }
    if not nf:
        outcomes["baseline"] = (baseline, None)
    return outcomes


def _assert_agree(outcomes):
    ref = outcomes["event"]
    for way, got in outcomes.items():
        assert got == ref, way


@settings(max_examples=60, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    mode=st.sampled_from((DataMode.REGULAR, DataMode.CLEANUP)),
    boot=st.sampled_from([0.0, 10.0]),
)
def test_core_loops_identical_no_failures(wf, p, mode, boot):
    outcomes = _cell_outcomes(wf, p, mode, boot, seed=0, probability=0.0)
    assert outcomes["event"][1] is None
    _assert_agree(outcomes)


@settings(max_examples=60, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    mode=st.sampled_from((DataMode.REGULAR, DataMode.CLEANUP)),
    boot=st.sampled_from([0.0, 10.0]),
    seed=st.integers(0, 50),
    probability=st.sampled_from([0.05, 0.2, 0.45]),
)
def test_core_loops_identical_under_failures(
    wf, p, mode, boot, seed, probability
):
    _assert_agree(
        _cell_outcomes(wf, p, mode, boot, seed=seed, probability=probability)
    )


def test_fork_matches_scratch_on_montage_plate():
    """Every seed of a real plate forks bit-identically; some fail."""
    from repro.montage.generator import montage_workflow

    wf = montage_workflow(1.0)
    failing = 0
    for seed in range(25):
        outcomes = _cell_outcomes(
            wf, 8, DataMode.REGULAR, 0.0, seed=seed, probability=0.02
        )
        _assert_agree(outcomes)
        result = outcomes["event"][0]
        failing += result is None or result[-1] > 0
    assert failing >= 10


def test_monte_carlo_abort_message_verbatim():
    """Grid aborts carry the engine's exact message."""
    from repro.montage.generator import montage_workflow

    wf = montage_workflow(0.5)
    env = ExecutionEnvironment(n_processors=4, record_trace=False)
    cfg = KernelConfig(environment=env)
    cells = run_monte_carlo(
        wf, cfg, (0.45,), range(30), max_retries=0
    )
    aborted = [c for c in cells if c.aborted]
    assert aborted
    for cell in aborted:
        fm = FailureModel(0.45, seed=cell.seed, max_retries=0)
        from repro.sim import simulate

        with pytest.raises(WorkflowAbortedError) as err:
            simulate(
                wf, 4, record_trace=False, failures=fm, kernel="event"
            )
        assert cell.abort_message == str(err.value)
