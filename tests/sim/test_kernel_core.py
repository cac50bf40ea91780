"""The resumable turbo replay: verdict cells, checkpoint forks, draws.

Three groups of guarantees:

1. **Fork parity** — one Monte Carlo cell replayed by
   ``_run_turbo_core`` five ways must agree tuple-for-tuple (floats
   bit-exact), abort messages included: with the live ``fail(t,
   attempt)`` hook, with a verdict array from scratch, forked from the
   failure-free baseline's checkpoint at its first failure, forked
   from a checkpoint its own failing replay took past that failure,
   and on the event engine (``simulate(kernel="event")``).
2. **Draw-stream pinning** — ``_SeedDraws`` must materialize exactly
   ``default_rng(seed).random(n)`` whatever growth pattern produced the
   buffer, so the vectorized pre-draw stays bit-identical to the
   engine's mid-flight draws.
3. **Trie plan** — ``_trie_plan`` must resume every failing prefix at
   the deepest ordinal it shares with the root or an earlier prefix,
   from a snapshot an earlier replay on its path took, and take no
   snapshot nobody resumes from.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import simulate
from repro.sim.datamanager import DataMode
from repro.sim.executor import ExecutionEnvironment
from repro.sim.failures import FailureModel, WorkflowAbortedError
from repro.sim.kernel import (
    SUMMARY_DTYPE,
    KernelConfig,
    _failure_hook,
    _lowering,
    _run_turbo_core,
    _SeedDraws,
    _trie_plan,
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
        stream.ensure(stream.n + 64)
        stream.ensure(1000)
        stream.ensure(stream.n + 64)
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
    stream.ensure(stream.n + 64)
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
    baseline checkpoint at the first failure, the fork from a checkpoint
    of the cell's own replay past its first failure (when it took one)
    and the event engine — plus the baseline itself when the cell draws
    no failure.
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
    baseline = turbo(snapshots=snaps, snap_at=range(low.n_tasks))
    # One checkpoint per requested completion ordinal; the failure-free
    # run has exactly n_tasks completion events.
    assert len(snaps) == low.n_tasks
    if probability > 0.0:
        stream = _SeedDraws(seed, n0=64, chunk=64)
        flags, L, nf = _verdict_fixpoint(stream, probability, low.n_tasks)
        verdicts = flags[:L]
        first = int(np.argmax(verdicts)) if nf else L
    else:
        verdicts, nf, first = None, 0, low.n_tasks
    # The checkpoint at the first failure (the last one for a
    # failure-free cell), as run_monte_carlo resumes a trie's first
    # branch from the root.
    j = min(first, len(snaps) - 1)
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
    else:
        # A failing replay's own checkpoints carry its retry counters:
        # resume halfway between the first failure and the end.
        own: list = []
        mid = (first + L) // 2
        run(lambda: turbo(
            verdicts=verdicts, max_retries=max_retries,
            snapshots=own, snap_at=(first, mid),
        ))
        if len(own) == 2:
            outcomes["refork"] = run(lambda: turbo(
                verdicts=verdicts, max_retries=max_retries, resume=own[1]
            ))
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
    failing = reforked = 0
    for seed in range(25):
        outcomes = _cell_outcomes(
            wf, 8, DataMode.REGULAR, 0.0, seed=seed, probability=0.02
        )
        _assert_agree(outcomes)
        result = outcomes["event"][0]
        failing += result is None or result[-1] > 0
        reforked += "refork" in outcomes
    assert failing >= 10
    assert reforked >= 10


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


# ------------------------------------------------------------------ #
# trie plan: resume ordinals and snapshot points
# ------------------------------------------------------------------ #
def _naive_lcp(a: bytes, b: bytes) -> int:
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


@st.composite
def failing_prefixes(draw):
    """Distinct failing verdict prefixes as run_monte_carlo keys them:
    a few seeds' uniform draws under several probabilities."""
    n_tasks = draw(st.integers(1, 12))
    prefixes = set()
    for _ in range(draw(st.integers(1, 4))):
        draws = np.array(draw(st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=48, max_size=48,
        )))
        for probability in draw(st.lists(st.floats(0.01, 0.6), max_size=6)):
            flags = draws < probability
            L = n_tasks
            while L <= len(flags) and L != n_tasks + flags[:L].sum():
                L = n_tasks + int(flags[:L].sum())
            if L <= len(flags) and flags[:L].any():
                prefixes.add(flags[:L].tobytes())
    return prefixes


@settings(max_examples=150, deadline=None)
@given(prefixes=failing_prefixes())
def test_trie_plan_against_brute_force(prefixes):
    root_at, plan = _trie_plan(prefixes)
    order = [key for key, _, _ in plan]
    assert order == sorted(prefixes)
    # Replay the plan's stack of (ordinal, owner), owner -1 the root.
    stack = [(at, -1) for at in root_at]
    used = set()
    for i, (key, resume, snap_at) in enumerate(plan):
        first = key.index(1)
        assert resume == max(
            [first] + [_naive_lcp(order[j], key) for j in range(i)]
        )
        while stack and stack[-1][0] > resume:
            stack.pop()
        assert stack and stack[-1][0] == resume
        owner = stack[-1][1]
        # The snapshot lies on this prefix's path.
        shared = first if owner < 0 else _naive_lcp(order[owner], key)
        assert shared >= resume
        used.add(stack[-1])
        assert list(snap_at) == sorted(set(snap_at))
        assert all(resume < at < len(key) for at in snap_at)
        stack.extend((at, i) for at in snap_at)
    taken = {(at, -1) for at in root_at} | {
        (at, i) for i, (_, _, snap_at) in enumerate(plan) for at in snap_at
    }
    assert taken == used


def test_trie_plan_nested_prefixes_share_replay():
    """Two probabilities of one seed: the second forks off the first
    where their verdicts part, not off the failure-free root."""
    a = bytes([0, 0, 1, 0, 0, 0, 0])  # first failure at 2
    b = bytes([0, 0, 1, 0, 1, 0, 0, 0])  # also fails at 4
    root_at, plan = _trie_plan({b, a})
    assert root_at == [2]
    assert plan == [(a, 2, [4]), (b, 4, [])]


def test_trie_forks_replay_budget_on_campaign_plate():
    """On one campaign configuration (1-degree plate, five nonzero
    probabilities x 300 seeds) forks replay at most 70,000 completion
    events; resuming every fork from the failure-free run replays
    99,437."""
    from unittest import mock

    from repro.montage.generator import montage_workflow
    from repro.sim import kernel

    class Counting:
        reads = 0

        def __init__(self, verdicts):
            self.verdicts = verdicts

        def __getitem__(self, i):
            Counting.reads += 1
            return self.verdicts[i]

    def counting(*args, verdicts=None, **kwargs):
        if verdicts is not None:
            verdicts = Counting(verdicts)
        return core(*args, verdicts=verdicts, **kwargs)

    core = kernel._run_turbo_core
    wf = montage_workflow(1.0, jitter=0.05, seed=14, name="campaign-00014")
    config = KernelConfig(
        environment=ExecutionEnvironment(n_processors=8, record_trace=False)
    )
    with mock.patch.object(kernel, "_run_turbo_core", counting):
        cells = run_monte_carlo(
            wf, config, (0.001, 0.002, 0.005, 0.01, 0.02), range(300, 600),
            max_retries=10,
        )
    assert sum(c.result.n_task_failures > 0 for c in cells) > 600
    assert Counting.reads <= 70_000
