"""One priced processor ladder: the provisioner, the advisor and the sweep
behind Figures 4-6 offer the same pool sizes at the same prices."""

import pytest

from repro.core.costs import compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008
from repro.core.tradeoff import capped_ladder, processor_sweep
from repro.provisioning import advise_plan, candidate_plans
from repro.sim.executor import simulate
from repro.workflow.dag import Workflow
from repro.workflow.generators import chain_workflow, fork_join_workflow

WORKFLOWS = {
    "fork-join-6": lambda request: fork_join_workflow(6),
    "chain-5": lambda request: chain_workflow(5),
    "fork-join-200": lambda request: fork_join_workflow(200),
    "montage-1deg": lambda request: request.getfixturevalue("montage1"),
}

MODES = ("regular", "cleanup", "remote-io")


@pytest.fixture(params=sorted(WORKFLOWS))
def workflow(request):
    return WORKFLOWS[request.param](request)


def test_provisioner_and_advisor_offer_one_ladder(workflow):
    cands = candidate_plans(workflow)
    options = advise_plan(workflow, modes=("regular",)).options
    assert [c.n_processors for c in cands] == [o.n_processors for o in options]
    assert [(c.makespan, c.total_cost) for c in cands] == [
        (o.makespan, o.total_cost) for o in options
    ]


def test_capped_ladder(montage1):
    # Max parallelism 118: 1..64 plus the first ladder value >= 118.
    assert capped_ladder(montage1) == [1, 2, 4, 8, 16, 32, 64, 128]
    assert capped_ladder(montage1, [16, 118, 120, 4]) == [4, 16, 118]
    assert capped_ladder(montage1, [100, 200, 300]) == [100, 200]
    assert capped_ladder(montage1, []) == []
    # No task runs in parallel: the smallest pool is enough.
    assert capped_ladder(Workflow("empty")) == [1]


def test_sweep_equals_the_per_processor_simulate_loop(workflow):
    """The batched, memoized sweep returns what one ``simulate`` call per
    (mode, P) returns, priced the same."""
    processors = [1, 2, 4, 8, 16, 32, 64, 128]
    points = processor_sweep(workflow, processors, MODES)
    expected = []
    for mode in MODES:
        for p in processors:
            result = simulate(workflow, n_processors=p, data_mode=mode,
                              record_trace=False)
            plan = ExecutionPlan.provisioned(p, mode)
            expected.append(
                (p, mode, repr(result), compute_cost(result, AWS_2008, plan))
            )
    assert [
        (pt.n_processors, pt.plan.data_mode.value, repr(pt.result), pt.cost)
        for pt in points
    ] == expected
