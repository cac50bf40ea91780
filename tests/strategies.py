"""Hypothesis strategies for arbitrary workflow DAGs and run parameters.

The layered generator in :mod:`repro.workflow.generators` covers the
common shapes; this strategy builds *arbitrary* DAGs — every task may read
any mix of fresh input files and files produced by any earlier task, may
produce several outputs, and outputs may be explicitly marked — so the
property suites exercise corner shapes (multi-output tasks, long skinny
chains crossing wide fans, files consumed by many levels at once).
:func:`simulation_parameters` draws run parameters that may break the
parameter rules, for the engines' agreement on bad input.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.sweep.job import FailureSpec, SimJob
from repro.workflow.dag import FileSpec, Task, Workflow
from repro.workflow.scaling import scale_file_sizes

__all__ = [
    "workflows",
    "failure_specs",
    "sim_jobs",
    "ccr_scaled_pairs",
    "simulation_parameters",
]

#: The paper's three data-management modes, for sampled_from().
DATA_MODES = ("regular", "cleanup", "remote-io")


@st.composite
def workflows(
    draw,
    max_tasks: int = 12,
    max_outputs_per_task: int = 3,
    max_file_bytes: float = 5e6,
    max_runtime: float = 200.0,
) -> Workflow:
    """Draw a random valid workflow.

    Tasks are created in index order; task *i* may consume outputs of any
    task *j < i* (guaranteeing acyclicity) and/or fresh initial inputs.
    Every task consumes at least one file so the simulator's staging paths
    are always exercised.
    """
    n_tasks = draw(st.integers(1, max_tasks))
    wf = Workflow(f"hypo-{n_tasks}")
    produced: list[str] = []
    file_counter = 0

    def new_file(prefix: str) -> str:
        nonlocal file_counter
        name = f"{prefix}{file_counter}"
        file_counter += 1
        size = draw(st.floats(0.0, max_file_bytes, allow_nan=False))
        wf.add_file(FileSpec(name, size))
        return name

    for i in range(n_tasks):
        inputs: list[str] = []
        if produced:
            k = draw(st.integers(0, min(3, len(produced))))
            if k:
                # sample distinct indices into `produced`
                idxs = draw(
                    st.lists(
                        st.integers(0, len(produced) - 1),
                        min_size=k,
                        max_size=k,
                        unique=True,
                    )
                )
                inputs.extend(produced[j] for j in idxs)
        n_fresh = draw(st.integers(0 if inputs else 1, 2))
        inputs.extend(new_file("in") for _ in range(n_fresh))
        n_out = draw(st.integers(0, max_outputs_per_task))
        outputs = [new_file("f") for _ in range(n_out)]
        wf.add_task(
            Task(
                task_id=f"t{i}",
                runtime=draw(
                    st.floats(0.001, max_runtime, allow_nan=False)
                ),
                inputs=tuple(inputs),
                outputs=tuple(outputs),
                transformation=f"kind{i % 3}",
            )
        )
        produced.extend(outputs)

    # Randomly promote a few consumed intermediates to explicit outputs.
    consumed = [f for f in produced if wf.consumers_of(f)]
    if consumed:
        n_marks = draw(st.integers(0, min(2, len(consumed))))
        if n_marks:
            idxs = draw(
                st.lists(
                    st.integers(0, len(consumed) - 1),
                    min_size=n_marks,
                    max_size=n_marks,
                    unique=True,
                )
            )
            for j in idxs:
                wf.mark_output(consumed[j])
    wf.validate()
    return wf


@st.composite
def failure_specs(draw, max_probability: float = 0.3) -> FailureSpec:
    """Draw a declarative failure injection.

    The retry budget is kept far above what ``max_probability`` can
    realistically exhaust, so generated runs always complete (a 0.3^50
    streak never comes up) and properties see retries, not aborts.
    """
    return FailureSpec(
        task_failure_probability=draw(
            st.floats(0.0, max_probability, allow_nan=False)
        ),
        seed=draw(st.integers(0, 2**16)),
        max_retries=50,
    )


@st.composite
def sim_jobs(
    draw,
    max_tasks: int = 10,
    with_failures: bool = True,
) -> SimJob:
    """Draw a fully-specified simulation point over an arbitrary DAG.

    Covers all three data-management modes, both link models, per-task
    overhead, VM boot delay and (optionally) failure injection — the full
    cross-section the audit oracle must reconcile.
    """
    failures = None
    if with_failures and draw(st.booleans()):
        failures = draw(failure_specs())
    contended = draw(st.booleans())
    return SimJob(
        workflow=draw(workflows(max_tasks=max_tasks)),
        n_processors=draw(st.integers(1, 8)),
        data_mode=draw(st.sampled_from(DATA_MODES)),
        task_overhead_seconds=draw(st.sampled_from([0.0, 0.0, 2.5])),
        compute_ready_seconds=draw(st.sampled_from([0.0, 0.0, 45.0])),
        link_contention=contended,
        separate_links=contended and draw(st.booleans()),
        failures=failures,
    )


@st.composite
def ccr_scaled_pairs(
    draw, max_tasks: int = 10
) -> tuple[Workflow, Workflow, float]:
    """Draw ``(workflow, scaled workflow, factor)`` for CCR properties.

    The scaled workflow has every file size multiplied by ``factor``
    (the paper's CCRd/CCRr rescaling), runtimes untouched.
    """
    wf = draw(workflows(max_tasks=max_tasks))
    factor = draw(st.sampled_from([0.25, 0.5, 2.0, 4.0, 10.0]))
    return wf, scale_file_sizes(wf, factor), factor


#: Bad values for a run's float parameters (of these, bandwidth accepts
#: +inf; capacity also rejects 0).
_BAD_FLOATS = (math.nan, math.inf, -math.inf, -1.0)


def _valid_or(valid, invalid):
    return st.one_of(valid, st.sampled_from(invalid))


@st.composite
def simulation_parameters(draw) -> dict:
    """Draw keyword arguments for ``simulate``, each possibly invalid.

    Every parameter mixes valid values with ones its rule rejects: a
    non-integer, bool, zero or negative processor count; NaN, infinite
    or negative bandwidth, capacity, overhead and ready time; a failure
    probability outside ``[0, 1)`` and a non-integer or negative retry
    budget.  ``failures`` is ``None`` or the ``(probability, seed,
    max_retries)`` of a :class:`~repro.sim.failures.FailureModel`, which
    each engine must build afresh (its draw stream is consumed).
    Capacities include ones too small for most DAGs, which deadlock.
    """
    failures = None
    if draw(st.booleans()):
        failures = (
            draw(_valid_or(st.floats(0.0, 0.3), (1.0, 1.5, -0.1, math.nan))),
            draw(st.integers(0, 2**16)),
            draw(_valid_or(st.integers(0, 5), (-1, 2.5, math.nan, True))),
        )
    return {
        "n_processors": draw(
            _valid_or(st.integers(1, 8), (0, -1, 2.5, 8.0, True, math.nan))
        ),
        "data_mode": draw(st.sampled_from(DATA_MODES)),
        "bandwidth_bytes_per_sec": draw(
            _valid_or(st.sampled_from((1e6, 1.25e6, math.inf)),
                      (0.0, *_BAD_FLOATS))
        ),
        "storage_capacity_bytes": draw(
            _valid_or(st.sampled_from((None, None, 1e3, 2e7, 1e12)),
                      (0.0, *_BAD_FLOATS))
        ),
        "task_overhead_seconds": draw(
            _valid_or(st.sampled_from((0.0, 2.5)), _BAD_FLOATS)
        ),
        "compute_ready_seconds": draw(
            _valid_or(st.sampled_from((0.0, 45.0)), _BAD_FLOATS)
        ),
        "failures": failures,
    }
