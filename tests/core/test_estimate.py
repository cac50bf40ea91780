"""Analytic estimator tests: bounds hold, exact parts exact."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costs import compute_cost
from repro.core.estimate import estimate_cost, makespan_bounds
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008
from repro.sim.executor import simulate
from repro.workflow.generators import (
    chain_workflow,
    fork_join_workflow,
    random_layered_workflow,
)


class TestMakespanBounds:
    def test_chain_bounds_tight(self):
        wf = chain_workflow(5, runtime=100.0, file_size=1.25e6)
        lower, upper = makespan_bounds(wf, 1, 1.25e6)
        # serial chain: CP == W; lead-in 1 s; out tail 1 s.
        assert lower == pytest.approx(501.0)
        assert upper == pytest.approx(502.0)
        measured = simulate(wf, 1, bandwidth_bytes_per_sec=1.25e6).makespan
        assert lower - 1e-9 <= measured <= upper + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        layers=st.integers(1, 4),
        width=st.integers(1, 5),
        seed=st.integers(0, 5000),
        p=st.integers(1, 8),
    )
    def test_simulated_makespan_within_bounds(self, layers, width, seed, p):
        wf = random_layered_workflow(layers, width, seed=seed)
        lower, upper = makespan_bounds(wf, p)
        measured = simulate(wf, p, record_trace=False).makespan
        assert measured >= lower - 1e-6
        assert measured <= upper + 1e-6

    def test_montage_within_bounds(self, montage1):
        for p in (1, 8, 128):
            lower, upper = makespan_bounds(montage1, p)
            measured = simulate(montage1, p, record_trace=False).makespan
            assert lower - 1e-6 <= measured <= upper + 1e-6

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            makespan_bounds(chain_workflow(1), 0)


class TestCostEstimate:
    def test_transfer_components_exact(self, montage1):
        plan = ExecutionPlan.on_demand(118, "regular")
        est = estimate_cost(montage1, plan)
        measured = compute_cost(
            simulate(montage1, 118, "regular", record_trace=False),
            AWS_2008,
            plan,
        )
        assert est.cost.transfer_in_cost == pytest.approx(
            measured.transfer_in_cost
        )
        assert est.cost.transfer_out_cost == pytest.approx(
            measured.transfer_out_cost
        )

    def test_on_demand_cpu_exact(self, montage1):
        plan = ExecutionPlan.on_demand(118, "cleanup")
        est = estimate_cost(montage1, plan)
        assert est.cost.cpu_cost == pytest.approx(
            AWS_2008.cpu_cost(montage1.total_runtime())
        )

    def test_storage_bound_holds(self, montage1):
        plan = ExecutionPlan.provisioned(8, "regular")
        est = estimate_cost(montage1, plan)
        measured = compute_cost(
            simulate(montage1, 8, "regular", record_trace=False),
            AWS_2008,
            plan,
        )
        assert measured.storage_cost <= est.storage_cost_upper_bound + 1e-12

    @pytest.mark.parametrize(
        "fixture,p",
        [
            pytest.param("montage1", 1, id="1"),
            pytest.param("montage1", 8, id="8"),
            pytest.param("montage1", 64, id="64"),
            *(
                pytest.param(fixture, p, id=f"{fixture}-{p}")
                for fixture, ps in (
                    ("montage1", (16, 128)),
                    ("montage2", (1, 16, 128)),
                    ("montage4", (1, 16, 128)),
                )
                for p in ps
            ),
        ],
    )
    def test_total_within_30_percent_of_simulation(self, fixture, p, request):
        wf = request.getfixturevalue(fixture)
        plan = ExecutionPlan.provisioned(p, "regular")
        est = estimate_cost(wf, plan)
        result = simulate(wf, p, "regular", record_trace=False)
        measured = compute_cost(result, AWS_2008, plan)
        assert est.total == pytest.approx(measured.total, rel=0.30)
        assert est.makespan_lower - 1e-6 <= result.makespan
        assert result.makespan <= est.makespan_upper + 1e-6

    def test_vm_overhead_included(self):
        from repro.core.plans import VMOverhead

        wf = fork_join_workflow(4, runtime=100.0)
        plan = ExecutionPlan.provisioned(
            4, vm_overhead=VMOverhead(60.0, 60.0, fixed_cost_per_vm=0.01)
        )
        est = estimate_cost(wf, plan)
        base = estimate_cost(wf, ExecutionPlan.provisioned(4))
        assert est.cost.vm_fixed_cost == pytest.approx(0.04)
        assert est.cost.cpu_cost > base.cost.cpu_cost

    def test_estimate_is_fast(self, montage4):
        import time

        plan = ExecutionPlan.provisioned(64, "regular")
        t0 = time.perf_counter()
        estimate_cost(montage4, plan)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5  # vs ~1 s simulating the 4-degree workflow
