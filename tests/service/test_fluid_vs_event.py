"""Differential validation: fluid engine vs the event-based simulator.

The fluid engine's claim to correctness is not structural — it is the
window-replay harness: cache-miss sub-streams of the sampled traffic
run cold-start through the event-based :class:`ServiceSimulator`, and
the fluid approximation must land within a few percent of the event
engine's mean miss-path response time in the regime the service
actually operates in (pool wide relative to one workflow's saturating
share, utilization below saturation).
"""

import numpy as np
import pytest

from repro.service.scale import (
    FluidServiceEngine,
    event_economics,
    montage_traffic,
    replay_misses,
    sample_traffic,
    validate_fluid,
)
from repro.service.simulator import ServiceRequest, ServiceSimulator
from repro.sweep.cache import SimCache


@pytest.fixture(scope="module")
def sample():
    # Small enough that event replay of every window stays fast, big
    # enough that windows hold tens of misses.
    spec = montage_traffic(150_000, n_regions=30_000, seed=7)
    return sample_traffic(spec, cache=SimCache())


class TestFluidVsEvent:
    def test_mean_miss_response_within_five_percent(self, sample):
        validation = validate_fluid(
            sample, 512, n_windows=3, cache=SimCache()
        )
        assert len(validation.windows) == 3
        assert validation.mean_error <= 0.05
        assert validation.max_error <= 0.10

    def test_validation_is_deterministic(self, sample):
        a = validate_fluid(sample, 512, n_windows=2, cache=SimCache())
        b = validate_fluid(sample, 512, n_windows=2, cache=SimCache())
        assert [w.event_mean for w in a.windows] == [
            w.event_mean for w in b.windows
        ]
        assert [w.fluid_mean for w in a.windows] == [
            w.fluid_mean for w in b.windows
        ]

    def test_window_bookkeeping(self, sample):
        validation = validate_fluid(
            sample, 512, n_windows=2, cache=SimCache()
        )
        for w in validation.windows:
            assert w.n_misses > 0
            assert w.event_mean > 0
            assert w.rel_error == pytest.approx(
                abs(w.fluid_mean - w.event_mean) / w.event_mean
            )
        total_misses = sum(w.n_misses for w in validation.windows)
        assert validation.projected_event_seconds(
            total_misses
        ) == pytest.approx(
            sum(w.event_seconds for w in validation.windows)
        )

    def test_rejects_zero_windows(self, sample):
        with pytest.raises(ValueError):
            validate_fluid(sample, 512, n_windows=0)

    def test_direct_window_replay_matches_validator(self, sample):
        # Re-derive one window by hand and confirm both engines see the
        # exact stream the validator reports on.
        window = sample.window(sample.horizon / 3, 3_600.0)
        assert window.n_requests == window.n_misses > 0
        workflow = sample.spec.mix[0].workflow
        requests = [
            ServiceRequest(
                request_id=f"w-{i}",
                workflow=workflow,
                arrival_time=float(t),
            )
            for i, t in enumerate(window.times)
        ]
        event = ServiceSimulator(
            512,
            sample.spec.data_mode,
            bandwidth_bytes_per_sec=sample.spec.bandwidth_bytes_per_sec,
        ).run(requests)
        fluid = FluidServiceEngine(512, cache=SimCache()).run(window)
        event_mean = event.mean_response_time()
        fluid_mean = fluid.miss_mean_response_time()
        assert abs(fluid_mean - event_mean) / event_mean <= 0.10

    def test_fluid_wall_time_beats_event_on_windows(self, sample):
        validation = validate_fluid(
            sample, 512, n_windows=2, cache=SimCache()
        )
        event = sum(w.event_seconds for w in validation.windows)
        fluid = sum(w.fluid_seconds for w in validation.windows)
        # The fluid pass over a window must not be slower than event
        # replay of the same window (in practice it is ~100x faster;
        # keep the bound loose so CI noise cannot flake it).
        assert fluid < event


class TestFluidStructure:
    """Structural agreement beyond one number: load ordering."""

    def test_busier_windows_wait_longer_in_both_engines(self, sample):
        # Compare an early (cold cache, more misses) and a late window:
        # whichever waits longer under the event engine must also wait
        # longer under the fluid engine.
        early = sample.window(0.05 * sample.horizon, 3_600.0)
        late = sample.window(0.80 * sample.horizon, 3_600.0)
        workflow = sample.spec.mix[0].workflow

        def event_mean(window):
            requests = [
                ServiceRequest(
                    request_id=f"r-{i}",
                    workflow=workflow,
                    arrival_time=float(t),
                )
                for i, t in enumerate(window.times)
            ]
            return ServiceSimulator(
                256, sample.spec.data_mode
            ).run(requests).mean_response_time()

        def fluid_mean(window):
            return FluidServiceEngine(256, cache=SimCache()).run(
                window
            ).miss_mean_response_time()

        ev = (event_mean(early), event_mean(late))
        fl = (fluid_mean(early), fluid_mean(late))
        assert early.n_misses != late.n_misses
        assert (ev[0] > ev[1]) == (fl[0] > fl[1])


class TestOneBill:
    """Both engines price a sample through one ``ServiceEconomics``."""

    def test_hits_and_rent_are_billed_identically(self):
        sample = sample_traffic(montage_traffic(300, n_regions=50, seed=3))
        assert 0 < sample.n_misses < sample.n_requests
        replay = replay_misses(sample, 16)
        assert replay.n_requests == sample.n_misses
        event = event_economics(sample, replay)
        fluid_result = FluidServiceEngine(16).run(sample)
        fluid = fluid_result.economics
        for name in ("n_requests", "n_misses", "serve_cost",
                     "cache_storage_cost"):
            assert getattr(event, name) == getattr(fluid, name), name
        # Both bills' response times cover every request: the replayed
        # misses plus the hits' transfers, which the engines share.
        column = fluid_result.response_times()
        event_column = np.concatenate(
            [replay.response_times(), column[sample.hit]]
        )
        assert event.mean_response_time == event_column.mean()
        assert event.p95_response_time == np.percentile(event_column, 95.0)
        assert fluid.mean_response_time == column.mean()
        assert fluid.p95_response_time == np.percentile(column, 95.0)
        assert event.mean_response_time < replay.mean_response_time()
        # Both take utilization over the same held period; the pool is
        # wide enough here that nothing queues, so they agree.
        assert event.pool_utilization == pytest.approx(
            fluid.pool_utilization, rel=1e-9
        )
        assert event.serve_cost > 0.0
        assert event.cache_storage_cost > 0.0
        assert event.total_cost == (
            event.pool_cpu_cost
            + event.on_demand_total.data_management_cost
            + event.serve_cost
            + event.cache_storage_cost
        )
