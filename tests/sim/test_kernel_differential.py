"""Differential suite: fast kernel ≡ event engine, exactly.

Every property here runs the same configuration through both backends
and requires dataclass equality of the full :class:`SimulationResult` —
which is *float-exact*: makespan, byte counters, storage byte-seconds,
peak storage, CPU-busy seconds, every task and transfer record, and the
StepCurve breakpoints themselves.  Any divergence in event ordering,
accumulation order or arithmetic shape between the two implementations
shows up as a failure with a shrunken DAG attached.
"""

from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.sim import (
    FIFO_ORDER,
    LEVEL_ORDER,
    LONGEST_FIRST,
    SHORTEST_FIRST,
    simulate,
)
from repro.montage.generator import montage_workflow
from repro.sim import kernel
from repro.sim.failures import FailureModel, WorkflowAbortedError
from repro.workflow.generators import random_layered_workflow

from tests.float_sums import compensated_sum
from tests.strategies import DATA_MODES, failure_specs, workflows

pytestmark = pytest.mark.property

ORDERINGS = (FIFO_ORDER, LONGEST_FIRST, SHORTEST_FIRST, LEVEL_ORDER)


def both(wf, **kwargs):
    a = simulate(wf, kernel="event", **kwargs)
    b = simulate(wf, kernel="fast", **kwargs)
    return a, b


@settings(max_examples=120, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 8),
    mode=st.sampled_from(DATA_MODES),
    trace=st.booleans(),
)
def test_kernel_identical_all_modes(wf, p, mode, trace):
    a, b = both(wf, n_processors=p, data_mode=mode, record_trace=trace)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    mode=st.sampled_from(DATA_MODES),
    overhead=st.sampled_from([0.0, 0.5, 2.5]),
    boot=st.sampled_from([0.0, 10.0, 45.0]),
)
def test_kernel_identical_with_overhead_and_boot(wf, p, mode, overhead, boot):
    a, b = both(
        wf,
        n_processors=p,
        data_mode=mode,
        task_overhead_seconds=overhead,
        compute_ready_seconds=boot,
        record_trace=True,
    )
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    mode=st.sampled_from(DATA_MODES),
    ordering=st.sampled_from(ORDERINGS),
)
def test_kernel_identical_under_orderings(wf, p, mode, ordering):
    a, b = both(wf, n_processors=p, data_mode=mode, ordering=ordering)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    bandwidth=st.sampled_from([1.25e5, 1.25e6, 1e9]),
)
def test_kernel_identical_across_bandwidths(wf, p, bandwidth):
    a, b = both(
        wf,
        n_processors=p,
        data_mode="cleanup",
        bandwidth_bytes_per_sec=bandwidth,
    )
    assert a == b


@settings(max_examples=100, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    mode=st.sampled_from(DATA_MODES),
    sep=st.booleans(),
    trace=st.booleans(),
)
def test_kernel_identical_with_contended_link(wf, p, mode, sep, trace):
    # The contended FIFO link serializes per lane; separate_links splits
    # stage-in and stage-out onto independent lanes.  Bit-identical
    # transfer records (queued start times included) are required.
    a, b = both(
        wf,
        n_processors=p,
        data_mode=mode,
        link_contention=True,
        separate_links=sep,
        record_trace=trace,
    )
    assert a == b


def both_or_deadlock(wf, fail_seed=None, **kwargs):
    """Run both backends; return (result, (error type, message)) each.

    A capacity below the workflow's minimum footprint deadlocks, and a
    failure model may exhaust its retry budget — the kernel must
    deadlock or abort on exactly the same configurations, with exactly
    the same exception and diagnostic.  ``fail_seed`` builds a fresh
    ``FailureModel(0.2, fail_seed, max_retries=3)`` per backend.
    """
    out = []
    for kernel in ("event", "fast"):
        failures = (
            None if fail_seed is None
            else FailureModel(0.2, seed=fail_seed, max_retries=3)
        )
        try:
            out.append(
                (simulate(wf, kernel=kernel, failures=failures, **kwargs),
                 None)
            )
        except (RuntimeError, WorkflowAbortedError) as err:
            out.append((None, (type(err), str(err))))
    return out


@pytest.mark.parametrize(
    "float_sum", [sum, compensated_sum], ids=["builtin-sum", "sum-3.12"]
)
@settings(max_examples=150, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    mode=st.sampled_from(DATA_MODES),
    frac=st.sampled_from([0.05, 0.1, 0.3, 0.6, 1.0, 1.5, 2.0]),
    cont=st.booleans(),
    sep=st.booleans(),
    trace=st.booleans(),
    ordering=st.sampled_from(ORDERINGS),
    boot=st.sampled_from([0.0, 45.0]),
    overhead=st.sampled_from([0.0, 2.5]),
    fail_seed=st.one_of(st.none(), st.integers(0, 2**16)),
)
def test_kernel_identical_with_finite_capacity(
    float_sum,
    wf, p, mode, frac, cont, sep, trace, ordering, boot, overhead, fail_seed
):
    # Capacity as a fraction of the total byte footprint exercises both
    # the admission-control stalls (small fractions) and the unconstrained
    # regime (fractions 1.5 and 2.0); deadlocks and aborts must agree
    # byte-for-byte too.  Orderings, boot delay, overhead, split links
    # and failures are where the capacity cascade meets the code paths
    # it shares with infinite storage: the non-FIFO head-of-line peek,
    # reservations made while booting, in-place retries.  The
    # interpreter's ``sum`` (a left fold before CPython 3.12, compensated
    # from 3.12 on) is an input too: the engines must agree under both.
    with mock.patch("builtins.sum", float_sum):
        total = sum(f.size_bytes for f in wf.files.values())
        (a, a_err), (b, b_err) = both_or_deadlock(
            wf,
            fail_seed,
            n_processors=p,
            data_mode=mode,
            storage_capacity_bytes=max(total * frac, 1.0),
            link_contention=cont,
            separate_links=sep,
            ordering=ordering,
            compute_ready_seconds=boot,
            task_overhead_seconds=overhead,
            record_trace=trace,
        )
    assert a_err == b_err
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    wf=workflows(),
    ps=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    mode=st.sampled_from(DATA_MODES),
    trace=st.booleans(),
)
def test_batch_identical_to_event_engine(wf, ps, mode, trace):
    # One run_fast_kernel_batch call over a processor list (duplicates
    # allowed — the lowering and derived vectors are shared) must equal
    # per-config event-engine runs, config by config.
    from repro.sim import ExecutionEnvironment, KernelConfig
    from repro.sim.kernel import run_fast_kernel_batch

    configs = [
        KernelConfig(
            environment=ExecutionEnvironment(
                n_processors=p, record_trace=trace
            ),
            data_mode=mode,
        )
        for p in ps
    ]
    batch = run_fast_kernel_batch(wf, configs)
    for p, got in zip(ps, batch):
        assert got == simulate(
            wf, p, data_mode=mode, record_trace=trace, kernel="event"
        )


def both_or_abort(wf, spec, **kwargs):
    """Run both backends with a fresh failure model each.

    Returns ``(result, abort-message)`` per backend: the kernel must
    abort on exactly the same (workflow, seed, probability, budget)
    cells as the engine, raising ``WorkflowAbortedError`` with the
    engine's verbatim message (same task, same attempt number).
    """
    out = []
    for kernel in ("event", "fast"):
        try:
            out.append(
                (simulate(wf, kernel=kernel, failures=spec.build(),
                          **kwargs), None)
            )
        except WorkflowAbortedError as err:
            out.append((None, str(err)))
    return out


@settings(max_examples=120, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 8),
    mode=st.sampled_from(DATA_MODES),
    spec=failure_specs(),
    trace=st.booleans(),
)
def test_kernel_identical_under_failures(wf, p, mode, spec, trace):
    # The kernel replays the seeded RNG stream at the engine's exact
    # (time, seq) completion points: identical retry schedules, re-billed
    # attempts, attempt numbers on every TaskRecord, and curves.  A fresh
    # model per run — the stream is consumed.
    a = simulate(wf, n_processors=p, data_mode=mode, record_trace=trace,
                 failures=spec.build(), kernel="event")
    b = simulate(wf, n_processors=p, data_mode=mode, record_trace=trace,
                 failures=spec.build(), kernel="fast")
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    mode=st.sampled_from(DATA_MODES),
    spec=failure_specs(),
    cont=st.booleans(),
    frac=st.sampled_from([None, 1.0, 2.0]),
)
def test_kernel_identical_under_failures_full_model(
    wf, p, mode, spec, cont, frac
):
    # Failures stacked on the rest of the resource model: contended
    # links and feasible finite capacity (retries re-run in place, so
    # the footprint is unchanged and full-footprint capacity is safe).
    total = sum(f.size_bytes for f in wf.files.values())
    cap = None if frac is None else max(total * frac, 1.0)
    kwargs = dict(
        n_processors=p, data_mode=mode, link_contention=cont,
        storage_capacity_bytes=cap, record_trace=True,
    )
    try:
        a = simulate(wf, failures=spec.build(), kernel="event", **kwargs)
    except RuntimeError:
        # Infeasible capacity deadlock — parity is covered elsewhere.
        assume(False)
    b = simulate(wf, failures=spec.build(), kernel="fast", **kwargs)
    assert a == b


@settings(max_examples=80, deadline=None)
@given(
    wf=workflows(),
    p=st.integers(1, 6),
    mode=st.sampled_from(DATA_MODES),
    prob=st.floats(0.3, 0.9, allow_nan=False),
    seed=st.integers(0, 2**16),
    retries=st.integers(0, 3),
)
def test_kernel_abort_parity(wf, p, mode, prob, seed, retries):
    # Tight retry budgets + high probabilities force WorkflowAbortedError
    # on many cells: both backends must abort on the same cells with the
    # same message (same task, same attempt), or complete identically.
    from repro.sweep import FailureSpec

    spec = FailureSpec(prob, seed=seed, max_retries=retries)
    (a, a_err), (b, b_err) = both_or_abort(wf, spec, n_processors=p,
                                           data_mode=mode)
    assert a_err == b_err
    assert a == b


def _event_cell(wf, prob, seed, retries, **kwargs):
    """One Monte Carlo cell on the event engine: (result, abort, deadlock)."""
    failures = (
        FailureModel(prob, seed=seed, max_retries=retries)
        if prob > 0.0 else None
    )
    try:
        return simulate(wf, failures=failures, kernel="event", **kwargs), \
            None, None
    except WorkflowAbortedError as err:
        return None, str(err), None
    except RuntimeError as err:
        return None, None, str(err)


@settings(max_examples=60, deadline=None)
@given(
    wf=workflows(max_tasks=10),
    p=st.integers(1, 4),
    mode=st.sampled_from(DATA_MODES),
    probs=st.lists(
        st.floats(0.0, 0.4, allow_nan=False), min_size=1, max_size=3,
        unique=True,
    ),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4,
                   unique=True),
    retries=st.integers(0, 50),
    cont=st.booleans(),
    frac=st.sampled_from([None, None, 0.1, 1.0, 2.0]),
)
def test_monte_carlo_identical_to_event_engine(
    wf, p, mode, probs, seeds, retries, cont, frac
):
    # Every (probability, seed) cell of run_monte_carlo must equal a
    # per-run event-engine simulation with a fresh FailureModel —
    # including which cells abort, and their messages — on the whole
    # resource model: contended links and finite capacities included.
    # A capacity too small for the workflow deadlocks; the grid must
    # then raise the engine's diagnostic for the first deadlocking cell.
    from repro.sim import ExecutionEnvironment, KernelConfig
    from repro.sim.kernel import run_monte_carlo

    total = sum(f.size_bytes for f in wf.files.values())
    cap = None if frac is None else max(total * frac, 1.0)
    env_kwargs = dict(
        n_processors=p, link_contention=cont, storage_capacity_bytes=cap,
    )
    refs = [
        _event_cell(wf, prob, seed, retries, data_mode=mode,
                    record_trace=False, **env_kwargs)
        for prob in probs
        for seed in seeds
    ]
    config = KernelConfig(
        environment=ExecutionEnvironment(**env_kwargs), data_mode=mode
    )
    deadlocks = [msg for _, _, msg in refs if msg is not None]
    if deadlocks:
        with pytest.raises(RuntimeError) as err:
            run_monte_carlo(wf, config, probs, seeds, max_retries=retries)
        assert not isinstance(err.value, WorkflowAbortedError)
        assert str(err.value) == deadlocks[0]
        return
    cells = run_monte_carlo(wf, config, probs, seeds, max_retries=retries,
                            summary_only=True)
    assert len(cells) == len(refs)
    for cell, (prob, seed), (ref, abort, _) in zip(
        cells, [(q, s) for q in probs for s in seeds], refs
    ):
        assert cell.probability == prob and cell.seed == seed
        if abort is not None:
            assert cell.aborted and cell.result is None
            assert cell.abort_message == abort
            continue
        assert not cell.aborted
        assert cell.result == ref


# Grids whose verdict prefixes share long runs: DAGs of 40-203 tasks,
# one to three seeds under six to ten increasing probabilities (each
# seed's prefixes nest), and retry budgets small enough that replays
# abort mid-branch after taking the snapshots later prefixes fork from.
TRIE_GRIDS = dict(
    wf=st.one_of(
        st.just(montage_workflow(1.0)),
        st.builds(
            random_layered_workflow,
            n_layers=st.integers(4, 16),
            width=st.integers(10, 12),
            seed=st.integers(0, 2**16),
            edge_density=st.sampled_from([0.2, 0.5, 1.0]),
        ),
    ),
    p=st.integers(1, 16),
    mode=st.sampled_from(("regular", "cleanup")),
    probs=st.lists(
        st.floats(0.001, 0.2, allow_nan=False), min_size=6, max_size=10,
        unique=True,
    ).map(sorted),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=3,
                   unique=True),
    retries=st.integers(0, 2),
)


def _assert_grid_matches_engine(wf, p, mode, probs, seeds, retries,
                                ordering=FIFO_ORDER):
    """Every cell of run_monte_carlo, as cells and as columnar rows,
    equals a per-run event-engine simulation, aborts included."""
    from repro.sim import ExecutionEnvironment, KernelConfig
    from repro.sim.kernel import SUMMARY_DTYPE, run_monte_carlo, summary_batch

    refs = [
        _event_cell(wf, prob, seed, retries, n_processors=p, data_mode=mode,
                    ordering=ordering, record_trace=False)
        for prob in probs
        for seed in seeds
    ]
    config = KernelConfig(
        environment=ExecutionEnvironment(n_processors=p), data_mode=mode,
        ordering=ordering,
    )
    cells = run_monte_carlo(wf, config, probs, seeds, max_retries=retries)
    rows = summary_batch(len(refs))
    assert run_monte_carlo(
        wf, config, probs, seeds, max_retries=retries, out=rows
    ) == len(refs)
    metrics = [n for n in SUMMARY_DTYPE.names if n != "aborted"]
    assert len(cells) == len(refs)
    for cell, row, (prob, seed), (ref, abort, deadlock) in zip(
        cells, rows, [(q, s) for q in probs for s in seeds], refs
    ):
        assert deadlock is None
        assert cell.probability == prob and cell.seed == seed
        assert (cell.aborted, cell.abort_message) == (
            abort is not None, abort or ""
        )
        assert bool(row["aborted"]) == cell.aborted
        if abort is not None:
            assert cell.result is None
            assert all(row[n] == 0 for n in metrics)
            continue
        assert cell.result == ref
        assert [row[n] for n in metrics] == [getattr(ref, n) for n in metrics]
    return cells


@settings(max_examples=10, deadline=None)
@given(**TRIE_GRIDS)
def test_monte_carlo_trie_grid_identical_to_event_engine(
    wf, p, mode, probs, seeds, retries
):
    _assert_grid_matches_engine(wf, p, mode, probs, seeds, retries)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(**TRIE_GRIDS)
def test_monte_carlo_trie_grid_identical_to_event_engine_heavy(
    wf, p, mode, probs, seeds, retries
):
    _assert_grid_matches_engine(wf, p, mode, probs, seeds, retries)


def test_monte_carlo_trie_grid_aborts_mid_branch():
    """A 1-degree grid whose forks abort after taking snapshots that
    later prefixes resume from still equals the engine cell for cell."""
    calls = []
    core = kernel._run_turbo_core

    def recording(*args, **kwargs):
        taken = kwargs.get("snapshots")
        try:
            return core(*args, **kwargs)
        except WorkflowAbortedError:
            if kwargs.get("verdicts") is not None and taken:
                calls.append(len(taken))
            raise

    probs = (0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.12, 0.16)
    with mock.patch.object(kernel, "_run_turbo_core", recording):
        cells = _assert_grid_matches_engine(
            montage_workflow(1.0), 8, "regular", probs, (0, 1, 2), 1
        )
    assert any(cell.aborted for cell in cells)
    assert calls, "no fork aborted after taking a snapshot"


def test_monte_carlo_non_fifo_grid_identical_to_event_engine():
    """Non-FIFO orderings take the routed replay (no forks)."""
    _assert_grid_matches_engine(
        montage_workflow(1.0), 8, "cleanup",
        (0.005, 0.01, 0.02, 0.05, 0.1, 0.2), (3, 4), 1,
        ordering=LONGEST_FIRST,
    )


@pytest.mark.audit
@settings(max_examples=25, deadline=None)
@given(
    wf=workflows(max_tasks=8),
    p=st.integers(1, 4),
    mode=st.sampled_from(DATA_MODES),
)
def test_kernel_records_satisfy_audit_oracle(wf, p, mode):
    # The oracle recomputes every aggregate from the kernel's emitted
    # records and checks schedule legality — an equivalence proof that
    # does not rely on the event engine at all.
    result = simulate(wf, p, data_mode=mode, kernel="fast", audit=True)
    assert result.n_task_executions == len(wf.tasks)


@pytest.mark.audit
@settings(max_examples=25, deadline=None)
@given(
    wf=workflows(max_tasks=8),
    p=st.integers(1, 4),
    mode=st.sampled_from(DATA_MODES),
    spec=failure_specs(),
)
def test_failure_kernel_records_satisfy_audit_oracle(wf, p, mode, spec):
    # The oracle reconciles the kernel's own failure traces: wasted
    # attempts re-billed into compute-seconds and cost, CPU occupancy
    # held across retries, attempt numbering contiguous, retry budget
    # respected — without consulting the event engine.
    result = simulate(
        wf, p, data_mode=mode, failures=spec.build(), kernel="fast",
        audit=True,
    )
    assert result.n_task_executions == len(wf.tasks) + result.n_task_failures


@pytest.mark.audit
@settings(max_examples=25, deadline=None)
@given(
    wf=workflows(max_tasks=8),
    p=st.integers(1, 4),
    mode=st.sampled_from(DATA_MODES),
    sep=st.booleans(),
)
def test_contended_kernel_records_satisfy_audit_oracle(wf, p, mode, sep):
    # The oracle's link checker enforces FIFO lane legality (no
    # overlapping transfers per lane) — run it over the kernel's own
    # contended-link records.
    result = simulate(
        wf, p, data_mode=mode, link_contention=True, separate_links=sep,
        kernel="fast", audit=True,
    )
    assert result.n_task_executions == len(wf.tasks)


@pytest.mark.audit
@settings(max_examples=25, deadline=None)
@given(
    wf=workflows(max_tasks=8),
    p=st.integers(1, 4),
    mode=st.sampled_from(DATA_MODES),
)
def test_capacity_kernel_records_satisfy_audit_oracle(wf, p, mode):
    # Feasible finite capacity (full footprint: admission control is
    # live, but no deadlock) — the kernel's records must still pass
    # every oracle check.
    total = sum(f.size_bytes for f in wf.files.values())
    try:
        result = simulate(
            wf, p, data_mode=mode, storage_capacity_bytes=max(total, 1.0),
            kernel="fast", audit=True,
        )
    except RuntimeError:
        # Genuinely infeasible under this mode (deadlock equality with
        # the engine is covered by the differential property above).
        assume(False)
    assert result.n_task_executions == len(wf.tasks)
