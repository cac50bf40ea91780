"""Cloud-bursting policy tests."""

import pytest

from repro.provisioning.bursting import simulate_bursting
from repro.service.arrivals import ServiceRequest, request_stream, uniform_arrivals
from repro.util.units import HOUR


@pytest.fixture(scope="module")
def calm_stream(montage1):
    """Requests arriving far apart: a small cluster keeps up."""
    return request_stream(uniform_arrivals(4, 6 * HOUR), [montage1])


@pytest.fixture(scope="module")
def storm_stream(montage1):
    """A burst of simultaneous requests (the paper's 'sporadic overload')."""
    return [ServiceRequest(f"r{i}", montage1, 0.0) for i in range(6)]


class TestRouting:
    def test_calm_traffic_stays_local(self, calm_stream):
        out = simulate_bursting(
            calm_stream, local_processors=8, objective_seconds=2 * HOUR
        )
        assert out.n_burst == 0
        assert out.n_local == 4
        assert out.cloud_cost.total == 0.0

    def test_storm_bursts_overflow(self, storm_stream):
        out = simulate_bursting(
            storm_stream, local_processors=4, objective_seconds=2 * HOUR
        )
        assert out.n_burst > 0
        assert out.n_local > 0  # the cluster still takes the head
        assert out.cloud_cost.total > 0
        # The first arrival is always served locally (empty queue).
        assert not out.decisions[0].burst

    def test_bigger_cluster_bursts_less(self, storm_stream):
        small = simulate_bursting(storm_stream, 2, 2 * HOUR)
        big = simulate_bursting(storm_stream, 32, 2 * HOUR)
        assert big.n_burst <= small.n_burst
        assert big.cloud_cost.total <= small.cloud_cost.total

    def test_tighter_objective_bursts_more(self, storm_stream):
        loose = simulate_bursting(storm_stream, 4, 8 * HOUR)
        tight = simulate_bursting(storm_stream, 4, 1 * HOUR)
        assert tight.n_burst >= loose.n_burst

    def test_decisions_cover_all_requests(self, storm_stream):
        out = simulate_bursting(storm_stream, 4, 2 * HOUR)
        assert len(out.decisions) == len(storm_stream)
        assert out.n_local + out.n_burst == len(storm_stream)
        assert len(out.local_outcomes) == out.n_local
        assert len(out.cloud_outcomes) == out.n_burst

    def test_cloud_cost_matches_per_burst_pricing(self, storm_stream):
        out = simulate_bursting(
            storm_stream, 2, 1 * HOUR, cloud_processors_per_burst=16
        )
        if out.n_burst:
            # All bursts run the same workflow on the same plan.
            per_burst = out.cloud_cost.total / out.n_burst
            assert per_burst == pytest.approx(
                out.cloud_outcomes[0].result.makespan * 16 / 3600 * 0.1
                + out.cloud_cost.data_management_cost / out.n_burst,
                rel=1e-6,
            )

    def test_bursting_protects_response_times(self, storm_stream):
        """With bursting, the storm's worst response beats local-only."""
        burst = simulate_bursting(storm_stream, 2, 2 * HOUR)
        local_only = simulate_bursting(storm_stream, 2, 1e12)  # never burst
        assert local_only.n_burst == 0
        assert burst.max_response_time() < local_only.max_response_time()


    def test_local_capacity_sweep(self, montage1):
        storm = [ServiceRequest(f"r{i}", montage1, 0.0) for i in range(8)]
        outs = [
            simulate_bursting(storm, local, 2 * HOUR)
            for local in (1, 2, 4, 8, 16, 32)
        ]
        bursts = [out.n_burst for out in outs]
        costs = [out.cloud_cost.total for out in outs]
        assert bursts == sorted(bursts, reverse=True)  # bigger, fewer
        assert costs == sorted(costs, reverse=True)
        assert bursts[-1] == 0  # 32 local processors absorb the storm
        assert bursts[0] > 0


class TestValidation:
    def test_invalid_args(self, calm_stream):
        with pytest.raises(ValueError):
            simulate_bursting(calm_stream, 0, 10.0)
        with pytest.raises(ValueError):
            simulate_bursting(calm_stream, 1, 0.0)
