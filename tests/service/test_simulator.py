"""Shared-pool service simulator tests, including exact queueing scenarios."""

import pytest

from repro.service.arrivals import ServiceRequest, request_stream, uniform_arrivals
from repro.service.simulator import ServiceSimulator
from repro.sim.executor import simulate
from repro.workflow.generators import chain_workflow

BW = 1.25e6
F = 1.25e6


def _requests(times, wf):
    return [
        ServiceRequest(f"r{i}", wf, t) for i, t in enumerate(times)
    ]


class TestSingleRequestEquivalence:
    def test_matches_standalone_simulation(self, montage1):
        solo = simulate(montage1, 16, "cleanup", record_trace=False)
        svc = ServiceSimulator(16, "cleanup").run(
            _requests([0.0], montage1)
        )
        outcome = svc.outcomes[0]
        assert outcome.response_time == pytest.approx(solo.makespan)
        assert outcome.result.bytes_in == pytest.approx(solo.bytes_in)
        assert outcome.result.bytes_out == pytest.approx(solo.bytes_out)
        assert outcome.result.storage_byte_seconds == pytest.approx(
            solo.storage_byte_seconds
        )
        assert outcome.result.compute_seconds == pytest.approx(
            solo.compute_seconds
        )

    def test_delayed_arrival_shifts_clock_only(self, montage1):
        a = ServiceSimulator(16).run(_requests([0.0], montage1))
        b = ServiceSimulator(16).run(_requests([5_000.0], montage1))
        assert b.outcomes[0].response_time == pytest.approx(
            a.outcomes[0].response_time
        )
        assert b.horizon == pytest.approx(a.horizon + 5_000.0)


class TestQueueing:
    """chain(1) with runtime 100 and 1-second transfers: exact timings."""

    @pytest.fixture()
    def wf(self):
        return chain_workflow(1, runtime=100.0, file_size=F)

    def test_two_requests_one_processor_serialize(self, wf):
        svc = ServiceSimulator(1, "regular", bandwidth_bytes_per_sec=BW)
        res = svc.run(_requests([0.0, 0.0], wf))
        # r0: stage [0,1], run [1,101], out [101,102].
        # r1: staged concurrently (own link), queued for the processor
        # until 101: run [101,201], out [201,202].
        times = sorted(o.response_time for o in res.outcomes)
        assert times[0] == pytest.approx(102.0)
        assert times[1] == pytest.approx(202.0)

    def test_two_requests_two_processors_parallel(self, wf):
        svc = ServiceSimulator(2, "regular", bandwidth_bytes_per_sec=BW)
        res = svc.run(_requests([0.0, 0.0], wf))
        for o in res.outcomes:
            assert o.response_time == pytest.approx(102.0)

    def test_fcfs_priority(self, wf):
        svc = ServiceSimulator(1, "regular", bandwidth_bytes_per_sec=BW)
        res = svc.run(_requests([0.0, 10.0], wf))
        by_id = {o.request.request_id: o for o in res.outcomes}
        # The earlier arrival runs first.
        assert by_id["r0"].finished_at < by_id["r1"].finished_at

    def test_peak_concurrency_and_utilization(self, wf):
        svc = ServiceSimulator(4, "regular", bandwidth_bytes_per_sec=BW)
        res = svc.run(_requests([0.0] * 4, wf))
        assert res.peak_concurrency() == 4
        # 4 x 100 busy seconds over 4 procs x 102 s horizon.
        assert res.pool_utilization() == pytest.approx(400.0 / (4 * 102.0))


class TestAggregates:
    def test_percentiles_and_means(self, montage1):
        reqs = request_stream(uniform_arrivals(4, 300.0), [montage1])
        res = ServiceSimulator(64).run(reqs)
        times = res.response_times()
        assert res.mean_response_time() == pytest.approx(times.mean())
        assert res.percentile_response_time(100.0) == pytest.approx(
            times.max()
        )
        assert res.n_requests == 4

    def test_total_compute_scales_with_requests(self, montage1):
        reqs = request_stream(uniform_arrivals(3, 100.0), [montage1])
        res = ServiceSimulator(200).run(reqs)
        assert res.total_compute_seconds() == pytest.approx(
            3 * montage1.total_runtime()
        )

    def test_empty_stream(self):
        res = ServiceSimulator(4).run([])
        assert res.n_requests == 0
        assert res.horizon == 0.0
        assert res.mean_response_time() == 0.0
        assert res.percentile_response_time(95.0) == 0.0

    @pytest.mark.parametrize("q", [150.0, float("nan")])
    def test_empty_stream_rejects_out_of_range_q(self, q):
        """As on the fluid engine's result: numpy's own range error."""
        res = ServiceSimulator(4, "cleanup").run([])
        with pytest.raises(
            ValueError, match=r"Percentiles must be in the range \[0, 100\]"
        ):
            res.percentile_response_time(q)

    def test_more_processors_never_hurt_p95(self, montage1):
        reqs = request_stream(uniform_arrivals(4, 60.0), [montage1])
        small = ServiceSimulator(8).run(reqs)
        big = ServiceSimulator(128).run(reqs)
        assert big.percentile_response_time(95) <= (
            small.percentile_response_time(95) + 1e-6
        )


class TestColumnarCaching:
    """Aggregates derive from numpy columns cached on first access."""

    def test_response_times_cached_and_read_only(self, montage1):
        reqs = request_stream(uniform_arrivals(3, 200.0), [montage1])
        res = ServiceSimulator(64).run(reqs)
        first = res.response_times()
        assert first is res.response_times()  # same array object reused
        assert not first.flags.writeable
        # The cached column matches the per-outcome values exactly.
        assert first.tolist() == [o.response_time for o in res.outcomes]

    def test_scalar_aggregates_cached(self, montage1):
        reqs = request_stream(uniform_arrivals(2, 500.0), [montage1])
        res = ServiceSimulator(32).run(reqs)
        total = res.total_compute_seconds()
        peak = res.peak_concurrency()
        assert res.total_compute_seconds() == total
        assert res.peak_concurrency() == peak
        assert res._total_compute_seconds == total
        assert res._peak_concurrency == peak
