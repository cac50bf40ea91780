"""Service-billing tests."""

import pytest

from repro.core.pricing import AWS_2008
from repro.service.arrivals import (
    ServiceRequest,
    request_stream,
    uniform_arrivals,
)
from repro.service.economics import service_economics
from repro.service.simulator import ServiceSimulator
from repro.workflow.generators import chain_workflow

BW = 1.25e6
F = 1.25e6


def _run(n_procs, times, wf, **kw):
    return ServiceSimulator(
        n_procs, "regular", bandwidth_bytes_per_sec=BW, **kw
    ).run([ServiceRequest(f"r{i}", wf, t) for i, t in enumerate(times)])


class TestEconomics:
    @pytest.fixture(scope="class")
    def result(self):
        wf = chain_workflow(1, runtime=100.0, file_size=F)
        return _run(2, [0.0, 0.0], wf)

    def test_pool_bill_by_hand(self, result):
        eco = service_economics(result)
        # pool: 2 procs x 102 s horizon x $0.1/3600.
        assert eco.pool_cpu_cost == pytest.approx(2 * 102.0 / 36000.0)
        # on-demand CPU: 200 compute seconds.
        assert eco.on_demand_total.cpu_cost == pytest.approx(200.0 / 36000.0)

    def test_idle_waste(self, result):
        eco = service_economics(result)
        # 2 x 102 held - 200 used = 4 idle processor-seconds.
        assert eco.idle_waste == pytest.approx(4.0 / 36000.0)

    def test_per_request_costs(self, result):
        eco = service_economics(result)
        assert eco.n_requests == 2
        assert eco.cost_per_request == pytest.approx(
            eco.total_cost / 2
        )
        assert eco.cost_per_request_on_demand == pytest.approx(
            eco.on_demand_total.total / 2
        )
        # Pool accounting is never cheaper than resources-used accounting.
        assert eco.cost_per_request >= eco.cost_per_request_on_demand

    def test_longer_period_costs_more(self, result):
        short = service_economics(result)
        long = service_economics(result, period_seconds=result.horizon * 10)
        assert long.pool_cpu_cost == pytest.approx(
            short.pool_cpu_cost * 10
        )
        # DM fees are unchanged.
        assert long.on_demand_total.total == pytest.approx(
            short.on_demand_total.total
        )

    def test_period_shorter_than_horizon_rejected(self, result):
        with pytest.raises(ValueError):
            service_economics(result, period_seconds=result.horizon / 2)

    def test_transfer_fees_counted_once_per_request(self, result):
        eco = service_economics(result)
        # Each request moves 1.25 MB in and out.
        assert eco.on_demand_total.transfer_in_cost == pytest.approx(
            2 * 1.25e6 / 1e9 * 0.10
        )
        assert eco.on_demand_total.transfer_out_cost == pytest.approx(
            2 * 1.25e6 / 1e9 * 0.16
        )

    def test_empty_service(self):
        res = ServiceSimulator(4).run([])
        eco = service_economics(res, period_seconds=100.0)
        assert eco.n_requests == 0
        assert eco.cost_per_request == 0.0
        assert eco.on_demand_total.total == 0.0
        assert eco.pool_cpu_cost == pytest.approx(
            AWS_2008.cpu_cost(400.0)
        )


class TestMontageService:
    def test_utilization_improves_per_request_economics(self, montage1):
        """A busier pool amortizes better — the paper's core Q2 point."""
        lone = _run_montage(montage1, n_requests=1)
        busy = _run_montage(montage1, n_requests=8)
        assert busy.pool_utilization >= lone.pool_utilization
        assert busy.cost_per_request < lone.cost_per_request

    def test_pool_sizing(self, montage1):
        requests = request_stream(uniform_arrivals(10, 120.0), [montage1])
        p95s, on_demand = [], []
        for p in (8, 16, 32, 64, 128):
            result = ServiceSimulator(p, "cleanup").run(requests)
            eco = service_economics(result)
            p95s.append(result.percentile_response_time(95.0))
            on_demand.append(eco.cost_per_request_on_demand)
            assert eco.cost_per_request >= (
                eco.cost_per_request_on_demand - 1e-9
            )
            assert 0.0 < result.pool_utilization() <= 1.0
        assert p95s == sorted(p95s, reverse=True)  # bigger pool, faster
        # Resources-used cost is pool-size invariant up to the storage
        # term, which shrinks as queueing disappears.
        assert max(on_demand) - min(on_demand) < 0.001


def _run_montage(wf, n_requests):
    times = [i * 120.0 for i in range(n_requests)]
    result = ServiceSimulator(32, "cleanup").run(
        [ServiceRequest(f"r{i}", wf, t) for i, t in enumerate(times)]
    )
    return service_economics(result)
