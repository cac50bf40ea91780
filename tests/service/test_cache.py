"""Mosaic-cache tests (the paper's store-vs-recompute recommendation)."""

import math

import numpy as np
import pytest

from repro.core.pricing import AWS_2008
from repro.service.cache import (
    MosaicCache,
    RegionRequest,
    ZipfPopularity,
    popularity_stream,
    simulate_cache_policy,
    sweep_retention,
)
from repro.util.units import MB, MONTH

MOSAIC = 557.9 * MB  # the paper's 2-degree mosaic
GEN_COST = 2.21      # ~the paper's staged 2-degree request cost


class TestZipf:
    def test_probabilities_normalized_and_ranked(self):
        pop = ZipfPopularity(100, exponent=1.2, seed=0)
        probs = [pop.probability(k) for k in range(100)]
        assert sum(probs) == pytest.approx(1.0)
        assert probs == sorted(probs, reverse=True)

    def test_zero_exponent_is_uniform(self):
        pop = ZipfPopularity(10, exponent=0.0, seed=0)
        assert pop.probability(0) == pytest.approx(0.1)
        assert pop.probability(9) == pytest.approx(0.1)

    def test_sampling_deterministic(self):
        a = ZipfPopularity(50, seed=3).sample(100)
        b = ZipfPopularity(50, seed=3).sample(100)
        assert (a == b).all()

    def test_head_dominates(self):
        pop = ZipfPopularity(1000, exponent=1.5, seed=1)
        draws = pop.sample(5000)
        assert (draws < 10).mean() > 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            ZipfPopularity(0)
        with pytest.raises(ValueError):
            ZipfPopularity(5, exponent=-1.0)
        with pytest.raises(ValueError):
            ZipfPopularity(5).sample(-1)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_rejected(self, exponent):
        with pytest.raises(ValueError, match="zipf exponent"):
            ZipfPopularity(5, exponent=exponent)


class TestPopularityStream:
    def test_deterministic_and_time_ordered(self):
        pop = ZipfPopularity(20, seed=2)
        a = popularity_stream(pop, 100.0, 6.0, seed=7)
        pop2 = ZipfPopularity(20, seed=2)
        b = popularity_stream(pop2, 100.0, 6.0, seed=7)
        assert [(r.time, r.region) for r in a] == [
            (r.time, r.region) for r in b
        ]
        times = [r.time for r in a]
        assert times == sorted(times)
        assert all(t < 6.0 * MONTH for t in times)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["requests_per_month", "horizon_months"])
    def test_bad_rate_or_horizon_rejected(self, name, bad):
        # A NaN rate once looped forever: NaN gaps never reach the horizon.
        args = {"requests_per_month": 100.0, "horizon_months": 1.0, name: bad}
        with pytest.raises(ValueError, match=name):
            popularity_stream(ZipfPopularity(20, seed=2), seed=1, **args)

    def test_volume_near_rate(self):
        pop = ZipfPopularity(20, seed=2)
        stream = popularity_stream(pop, 200.0, 12.0, seed=1)
        assert 2000 < len(stream) < 2800  # ~2400 expected


class TestMosaicCacheAccounting:
    def test_hit_within_ttl(self):
        cache = MosaicCache(mosaic_bytes=1e9, retention_seconds=10.0)
        assert not cache.lookup("orion", 0.0)
        assert cache.lookup("orion", 5.0)
        # Residency so far: 5 s x 1 GB.
        assert cache._storage_byte_seconds == pytest.approx(5e9)

    def test_miss_after_expiry_charges_full_ttl(self):
        cache = MosaicCache(mosaic_bytes=1e9, retention_seconds=10.0)
        cache.lookup("orion", 0.0)
        assert not cache.lookup("orion", 50.0)  # expired
        assert cache._storage_byte_seconds == pytest.approx(10e9)

    def test_close_accounts_residual(self):
        cache = MosaicCache(mosaic_bytes=1e9, retention_seconds=10.0)
        cache.lookup("orion", 0.0)
        cache.close(4.0)  # horizon before expiry
        assert cache._storage_byte_seconds == pytest.approx(4e9)

    def test_zero_retention_never_caches(self):
        cache = MosaicCache(mosaic_bytes=1e9, retention_seconds=0.0)
        assert not cache.lookup("orion", 0.0)
        assert not cache.lookup("orion", 0.0)
        cache.close(100.0)
        assert cache._storage_byte_seconds == 0.0
        assert cache.hits == 0

    def test_storage_cost_uses_pricing(self):
        cache = MosaicCache(
            mosaic_bytes=1e9, retention_seconds=MONTH, pricing=AWS_2008
        )
        cache.lookup("orion", 0.0)
        cache.close(2 * MONTH)
        # 1 GB for one month at $0.15.
        assert cache.storage_cost == pytest.approx(0.15)


class TestPolicySimulation:
    def _stream(self):
        pop = ZipfPopularity(200, exponent=1.2, seed=11)
        return popularity_stream(pop, 150.0, 24.0, seed=11), 24.0

    def test_zero_retention_recomputes_everything(self):
        stream, horizon = self._stream()
        res = simulate_cache_policy(stream, horizon, 0.0, GEN_COST, MOSAIC)
        assert res.hits == 0
        assert res.misses == len(stream)
        assert res.compute_cost == pytest.approx(GEN_COST * len(stream))
        assert res.storage_cost == 0.0

    def test_hits_plus_misses_is_total(self):
        stream, horizon = self._stream()
        res = simulate_cache_policy(stream, horizon, 6.0, GEN_COST, MOSAIC)
        assert res.hits + res.misses == res.n_requests == len(stream)
        assert 0 < res.hit_rate < 1

    def test_longer_retention_more_hits_more_storage(self):
        stream, horizon = self._stream()
        short = simulate_cache_policy(stream, horizon, 1.0, GEN_COST, MOSAIC)
        long = simulate_cache_policy(stream, horizon, 12.0, GEN_COST, MOSAIC)
        assert long.hits >= short.hits
        assert long.storage_cost > short.storage_cost
        assert long.compute_cost <= short.compute_cost

    def test_caching_beats_no_cache_for_popular_stream(self):
        """The paper's recommendation: with plausible repeat traffic,
        storing popular mosaics beats recomputing on demand."""
        stream, horizon = self._stream()
        results = sweep_retention(
            stream, horizon, [0.0, 3.0, 6.0, 12.0, 24.0], GEN_COST, MOSAIC
        )
        no_cache = results[0]
        best = min(results, key=lambda r: r.total_cost)
        assert best.retention_months > 0
        assert best.total_cost < no_cache.total_cost

    def test_retention_sweep_favours_caching(self):
        pop = ZipfPopularity(200, exponent=1.2, seed=2008)
        stream = popularity_stream(pop, 150.0, 24.0, seed=2008)
        results = sweep_retention(
            stream, 24.0, [0.0, 1.0, 3.0, 6.0, 12.0, 24.0], GEN_COST, MOSAIC
        )
        best = min(results, key=lambda r: r.total_cost)
        assert best.retention_months > 0
        assert best.total_cost < results[0].total_cost
        hit_rates = [r.hit_rate for r in results]
        assert hit_rates == sorted(hit_rates)  # longer retention, more hits

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_cache_policy([], 1.0, -1.0, GEN_COST, MOSAIC)
        with pytest.raises(ValueError):
            simulate_cache_policy([], 1.0, 1.0, -GEN_COST, MOSAIC)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("name", ["retention_months", "generation_cost"])
    def test_non_finite_or_negative_rejected(self, name, bad):
        pop = ZipfPopularity(20, seed=2)
        stream = popularity_stream(pop, 100.0, 1.0, seed=1)
        args = {"retention_months": 1.0, "generation_cost": GEN_COST,
                name: bad}
        with pytest.raises(ValueError, match=name):
            simulate_cache_policy(stream, 1.0, mosaic_bytes=MOSAIC, **args)

    @pytest.mark.parametrize(
        ("name", "bad", "message"),
        [
            ("horizon_months", math.nan, "finite and > 0"),
            ("horizon_months", -5.0, "finite and > 0"),
            ("mosaic_bytes", math.nan, "finite and >= 0"),
            ("mosaic_bytes", -1.0, "finite and >= 0"),
        ],
        ids=["horizon-nan", "horizon-5", "mosaic-nan", "mosaic-1"],
    )
    def test_bad_horizon_or_mosaic_size_rejected(self, name, bad, message):
        # Unchecked, a NaN or negative horizon silently dropped the
        # residency still to bill at the horizon, a NaN size gave a NaN
        # total and -1 raised only inside transfer_out_cost.
        pop = ZipfPopularity(20, seed=2)
        stream = popularity_stream(pop, 100.0, 6.0, seed=1)
        args = {"horizon_months": 6.0, "mosaic_bytes": MOSAIC, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be {message}"):
            simulate_cache_policy(
                stream, retention_months=1.0, generation_cost=GEN_COST, **args
            )

    def test_unpopular_stream_prefers_no_cache(self):
        """Uniform traffic over many regions rarely repeats within the
        horizon — retention only buys storage fees."""
        pop = ZipfPopularity(100_000, exponent=0.0, seed=5)
        stream = popularity_stream(pop, 50.0, 12.0, seed=5)
        results = sweep_retention(
            stream, 12.0, [0.0, 12.0], GEN_COST, MOSAIC
        )
        assert results[0].total_cost <= results[1].total_cost
