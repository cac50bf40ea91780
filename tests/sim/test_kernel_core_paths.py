"""Monte Carlo cells on the fast kernel's contended and capacity paths.

Every (probability, seed) cell of :func:`run_monte_carlo` over a
contended-link or finite-``storage_capacity_bytes`` environment must
equal a stand-alone event-engine simulation with a fresh
:class:`FailureModel`: dataclass equality of the :class:`SimulationResult`
for surviving cells, the verbatim abort message for aborted ones, and a
deadlock on the grid exactly when the engine deadlocks.  The property
runs with ``summary_only`` on (traceless cells) and off (cells honour
the config's ``record_trace=True`` and carry full records and curves).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import simulate
from repro.sim.executor import ExecutionEnvironment
from repro.sim.failures import FailureModel, WorkflowAbortedError
from repro.sim.kernel import KernelConfig, run_monte_carlo

from tests.strategies import workflows

pytestmark = pytest.mark.property


@pytest.mark.parametrize("summary", ["on", "off"])
@settings(max_examples=15, deadline=None)
@given(
    wf=workflows(max_tasks=10),
    probs=st.lists(
        st.floats(0.0, 0.4, allow_nan=False), min_size=1, max_size=2
    ),
    n_seeds=st.integers(1, 3),
    cont=st.booleans(),
    frac=st.sampled_from([None, 0.8]),
)
def test_monte_carlo_core_cells_identical(
    summary, wf, probs, n_seeds, cont, frac
):
    summary_only = summary == "on"
    total = sum(f.size_bytes for f in wf.files.values())
    env = ExecutionEnvironment(
        n_processors=2,
        link_contention=cont,
        storage_capacity_bytes=(
            None if frac is None else max(total * frac, 1.0)
        ),
        record_trace=not summary_only,
    )
    cfg = KernelConfig(environment=env)

    def reference(prob, seed):
        return simulate(
            wf,
            2,
            link_contention=cont,
            storage_capacity_bytes=env.storage_capacity_bytes,
            record_trace=not summary_only,
            failures=(
                FailureModel(prob, seed=seed, max_retries=1)
                if prob > 0.0
                else None
            ),
            kernel="event",
        )

    try:
        cells = run_monte_carlo(
            wf, cfg, probs, range(n_seeds), max_retries=1,
            summary_only=summary_only,
        )
    except RuntimeError as err:
        # Capacity deadlock: the grid raises the event engine's
        # diagnostic for the first deadlocking (not aborting) cell.
        assert not isinstance(err, WorkflowAbortedError)
        deadlocks = []
        for prob in probs:
            for seed in range(n_seeds):
                try:
                    reference(prob, seed)
                except WorkflowAbortedError:
                    continue
                except RuntimeError as ref_err:
                    deadlocks.append(str(ref_err))
        assert deadlocks and deadlocks[0] == str(err)
        return
    assert len(cells) == len(probs) * n_seeds
    for cell in cells:
        try:
            ref = reference(cell.probability, cell.seed)
        except WorkflowAbortedError as err:
            assert cell.aborted
            assert cell.abort_message == str(err)
        else:
            assert not cell.aborted
            assert cell.result == ref
