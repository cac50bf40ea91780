"""The fluid service engine: summaries, traffic, cache model, engine.

The differential tests against the event simulator live in
``test_fluid_vs_event.py``; this module covers the pieces the fluid
engine is assembled from, each against an independent oracle:

* class summaries vs direct fast-kernel runs (and blob memoization);
* the vectorized TTL cache vs the sequential :class:`MosaicCache` loop
  and vs a stable-argsort resolver kept here as the oracle;
* the bucketed region sampler vs ``Generator.choice``, and a golden
  digest of one sampled stream;
* golden digests of two engine runs (response column, every
  trajectory, every economics field);
* the count-table percentile vs ``np.percentile`` on expanded rows,
  bit for bit;
* engine invariants (zero traffic, overload backlog, pool
  monotonicity, hit-rate effects) and the economics identities;
* capacity planning and autoscaling at scale.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.costs import CostBreakdown
from repro.core.pricing import AWS_2008
from repro.montage.generator import montage_workflow
from repro.provisioning import AutoscalePolicy, evaluate_autoscale
from repro.service.cache import MosaicCache, zipf_probabilities
from repro.service.capacity import plan_capacity_at_scale
from repro.service.scale import (
    EVENT_FEASIBLE_REQUESTS,
    FluidServiceEngine,
    MixComponent,
    TrafficSpec,
    _count_percentile,
    _resolve_ttl_cache,
    _zipf_regions,
    montage_traffic,
    resolve_service_engine,
    sample_traffic,
)
from repro.service.summaries import summarize_class, summarize_mix
from repro.sim.executor import ExecutionEnvironment
from repro.sim.kernel import run_fast_kernel
from repro.sweep.cache import SimCache
from repro.util.units import MONTH
from repro.workflow.generators import fork_join_workflow


@pytest.fixture(scope="module")
def wf1():
    return montage_workflow(1.0)


@pytest.fixture(scope="module")
def summary1(wf1):
    return summarize_class(wf1, cache=SimCache())


class TestClassSummary:
    def test_ladder_values_match_direct_kernel_runs(self, wf1, summary1):
        for share in (1, 8, summary1.saturating_share):
            direct = run_fast_kernel(
                wf1,
                ExecutionEnvironment(n_processors=share),
                data_mode="cleanup",
            )
            assert summary1.makespan(share) == direct.makespan
            assert summary1.busy(share) == pytest.approx(
                direct.cpu_busy_seconds
            )

    def test_ladder_ends_at_saturation(self, summary1):
        # The last two rungs have exactly equal makespans, and no
        # earlier consecutive pair does.
        spans = summary1.makespans
        assert spans[-1] == spans[-2]
        assert all(a > b for a, b in zip(spans[:-2], spans[1:-1]))

    def test_interpolation_monotone_between_rungs(self, summary1):
        shares = np.linspace(1, summary1.saturating_share, 50)
        spans = [summary1.makespan(s) for s in shares]
        assert all(a >= b - 1e-9 for a, b in zip(spans, spans[1:]))

    def test_flat_beyond_saturation(self, summary1):
        assert summary1.makespan(10 * summary1.saturating_share) == (
            summary1.makespans[-1]
        )

    def test_blob_memoization_round_trips(self, wf1):
        cache = SimCache()
        first = summarize_class(wf1, cache=cache)
        again = summarize_class(wf1, cache=cache)
        assert again == first

    def test_extra_shares_appear_on_ladder(self, wf1):
        summary = summarize_class(wf1, extra_shares=(48,), cache=SimCache())
        assert 48 in summary.shares
        direct = run_fast_kernel(
            wf1,
            ExecutionEnvironment(n_processors=48),
            data_mode="cleanup",
        )
        assert summary.makespan(48) == direct.makespan

    def test_mosaic_bytes_from_workflow_file(self, wf1, summary1):
        assert summary1.mosaic_bytes == (
            wf1.file("mosaic.fits").size_bytes
        )


class TestVectorizedTTLCache:
    """The columnar TTL resolve must replay MosaicCache exactly."""

    def _reference(self, regions, times, ttl, horizon, mosaic_bytes):
        cache = MosaicCache(
            mosaic_bytes=mosaic_bytes, retention_seconds=ttl
        )
        hits = np.array(
            [cache.lookup(int(r), float(t)) for r, t in zip(regions, times)]
        )
        cache.close(horizon)
        return hits, cache._storage_byte_seconds

    @pytest.mark.parametrize("ttl_months", [0.0, 0.05, 0.5, 2.0])
    def test_matches_sequential_loop(self, ttl_months):
        rng = np.random.default_rng(42)
        n = 5_000
        times = np.sort(rng.uniform(0.0, MONTH, size=n))
        regions = rng.integers(0, 200, size=n)
        ttl = ttl_months * MONTH
        mosaic_bytes = 7e6
        hits, residency = _resolve_ttl_cache(
            regions.astype(np.int64),
            times,
            ttl,
            MONTH,
            n_classes=1,
            n_regions=200,
            mosaic_bytes=np.array([mosaic_bytes]),
        )
        ref_hits, ref_bytes = self._reference(
            regions, times, ttl, MONTH, mosaic_bytes
        )
        assert np.array_equal(hits, ref_hits)
        assert float(residency[0]) == pytest.approx(ref_bytes, rel=1e-12)

    def test_classes_partition_the_key_space(self):
        # Same region in different classes must not collide.
        times = np.array([0.0, 10.0, 20.0, 30.0])
        classes = np.array([0, 1, 0, 1], dtype=np.int64)
        regions = np.array([5, 5, 5, 5], dtype=np.int64)
        keys = classes * 100 + regions
        hits, residency = _resolve_ttl_cache(
            keys, times, 1_000.0, 100.0, 2, 100,
            np.array([1.0, 10.0]),
        )
        assert hits.tolist() == [False, False, True, True]
        assert residency[0] == pytest.approx(20.0 + 80.0)
        assert residency[1] == pytest.approx((20.0 + 70.0) * 10.0)


def stable_argsort_resolver(keys, times, ttl, horizon, n_classes,
                            n_regions, mosaic_bytes):
    """The TTL resolver as it was written with one stable argsort by
    key: the oracle the composite-key sort must match bit for bit."""
    n = keys.size
    if n == 0 or ttl <= 0:
        return np.zeros(n, dtype=bool), np.zeros(n_classes)
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    t = times[order]
    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = k[1:] == k[:-1]
    gap = np.empty(n)
    gap[0] = np.inf
    gap[1:] = t[1:] - t[:-1]
    hits = np.empty(n, dtype=bool)
    hits[order] = same & (gap <= ttl)
    pair_seconds = np.where(same, np.minimum(gap, ttl), 0.0)
    cls_sorted = (k // n_regions).astype(np.int64)
    residency = np.bincount(
        cls_sorted, weights=pair_seconds, minlength=n_classes
    )
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = ~same[1:]
    tail_seconds = np.minimum(ttl, np.maximum(0.0, horizon - t[last]))
    residency += np.bincount(
        cls_sorted[last], weights=tail_seconds, minlength=n_classes
    )
    return hits, residency * mosaic_bytes


class TestResolverMatchesStableArgsort:
    """One sort of unique ``key * n + position`` composites orders each
    key's accesses exactly as the stable argsort did."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("ttl", [0.0, 3.0, 40.0, 1e9])
    def test_multi_class_ties_and_repeats(self, seed, ttl):
        rng = np.random.default_rng(seed)
        n, n_classes, n_regions = 20_000, 3, 7  # 7: not a power of two
        # Integer times: many requests share a timestamp.
        times = np.sort(rng.integers(0, 500, size=n)).astype(float)
        keys = (rng.integers(0, n_classes, size=n) * n_regions
                + rng.integers(0, n_regions, size=n))
        mosaic_bytes = np.array([1.5e6, 7e6, 3.25e8])
        got = _resolve_ttl_cache(keys, times, ttl, 600.0, n_classes,
                                 n_regions, mosaic_bytes)
        want = stable_argsort_resolver(keys, times, ttl, 600.0, n_classes,
                                       n_regions, mosaic_bytes)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()

    def test_one_hot_key_and_singletons(self):
        # Half the stream is one key, the rest never repeats.
        n = 10_001
        keys = np.where(np.arange(n) % 2 == 0, 5, np.arange(n) + 1_000)
        times = np.repeat(np.arange(n // 10 + 1, dtype=float), 10)[:n]
        args = (keys, times, 2.0, 2_000.0, 2, 15_000, np.array([1.0, 3.0]))
        got, want = _resolve_ttl_cache(*args), stable_argsort_resolver(*args)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()

    def test_largest_key_space_that_fits_int64(self):
        n = 4
        n_regions = (2**63 - 1) // n  # n_regions * n < 2**63
        keys = np.array([n_regions - 1, 0, n_regions - 1, 0], dtype=np.int64)
        times = np.array([0.0, 1.0, 2.0, 9.0])
        args = (keys, times, 5.0, 10.0, 1, n_regions, np.ones(1))
        got, want = _resolve_ttl_cache(*args), stable_argsort_resolver(*args)
        assert got[0].tolist() == want[0].tolist() == [False, False, True,
                                                       False]
        assert got[1].tobytes() == want[1].tobytes()

    def test_key_space_past_int64_raises_before_allocating(self):
        keys = np.arange(4, dtype=np.int64)
        times = np.arange(4.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large for int64"):
                _resolve_ttl_cache(keys, times, 5.0, 10.0, 1, 2**62,
                                   np.ones(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestRegionSampler:
    """``_zipf_regions`` is ``Generator.choice`` with a bucket table in
    front of the binary search: the draws must be identical."""

    @pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "n_regions", [1, 2, 3, 1_000, 50_000, 500_000]  # > bucket count
    )
    def test_equals_generator_choice(self, n_regions, exponent):
        p = zipf_probabilities(n_regions, exponent)
        for n in (0, 1, 100_000):
            for seed in (0, 7, 2024):
                got = _zipf_regions(np.random.default_rng([seed, 2]),
                                    n_regions, exponent, n)
                want = np.random.default_rng([seed, 2]).choice(
                    n_regions, size=n, p=p
                )
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (n, seed)


    @pytest.mark.parametrize("exponent", [0.0, 1.0])
    @pytest.mark.parametrize("n_regions", [2, 3, 1_000, 50_000])
    def test_draws_on_cdf_steps_and_bucket_edges(self, n_regions,
                                                 exponent):
        # Random draws almost never land exactly on a CDF value or a
        # bucket edge; feed such draws directly to pin ties to the
        # right-side search ``choice`` performs.
        cdf = zipf_probabilities(n_regions, exponent).cumsum()
        cdf /= cdf[-1]
        edges = np.concatenate(
            [np.arange(2**b) / 2**b for b in (1, 4, 16, 18)]
        )
        u = np.concatenate([cdf[:-1], edges])
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]

        class Draws:
            def random(self, n):
                assert n == u.size
                return u.copy()

        got = _zipf_regions(Draws(), n_regions, exponent, u.size)
        assert np.array_equal(got, cdf.searchsorted(u, "right"))


def _golden_spec():
    return TrafficSpec(
        requests_per_month=100_000,
        horizon_months=1.0,
        mix=(
            MixComponent(montage_workflow(1.0), weight=3.0),
            MixComponent(montage_workflow(2.0), weight=1.0),
        ),
        n_regions=2_000,
        retention_months=0.5,
        seed=9,
    )


class TestGoldenSample:
    """Pins one sampled stream; the values were recorded with the
    stable-argsort resolver and ``Generator.choice`` regions."""

    DIGESTS = {
        "times": "2f7c24c3dcfd33d57231e1e4bbbcbf4ade5b2d1c"
                 "eba450e1df01a300c6e8a579",
        "class_idx": "6ac291464e95f15273fd80504904d8a7bc7ce525"
                     "d0fdf39994800f8b9afb5423",
        "region": "c40f4156705eb3b1980d2b2732673ca9aa709013"
                  "4484cf087894a076af5cc3d6",
        "hit": "cc4a50cc85e4daf57ad1ba360f4a7c535b28833f"
               "e257a7b27a9c1e7ee01ec31c",
    }
    RESIDENCY = ["0x1.603e4a1563845p+59", "0x1.ac4dc82affc3fp+60"]

    def test_two_class_stream_is_pinned(self):
        sample = sample_traffic(_golden_spec(), cache=SimCache())
        assert sample.n_requests == 100_077
        digests = {
            name: hashlib.sha256(getattr(sample, name).tobytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS
        assert [float(x).hex() for x in sample.residency_byte_seconds] == (
            self.RESIDENCY
        )


def _engine_digests(result):
    """SHA-256 of the response column and of every trajectory."""
    columns = {"responses": result.response_times(), **result.trajectories}
    return {
        name: hashlib.sha256(column.tobytes()).hexdigest()
        for name, column in columns.items()
    }


def _economics_hex(economics):
    """``float.hex`` of every ``ServiceEconomics`` field (counts as ints)."""
    out = {}
    for f in dataclasses.fields(economics):
        value = getattr(economics, f.name)
        if isinstance(value, CostBreakdown):
            for g in dataclasses.fields(value):
                out[f"{f.name}.{g.name}"] = getattr(value, g.name).hex()
        else:
            out[f.name] = value.hex() if isinstance(value, float) else value
    return out


class TestGoldenEngine:
    """Pins two engine runs bit for bit; the values were recorded
    before the engine's per-epoch tallies were folded into one table."""

    RESIZING = {
        "responses": "4cbe7ba97c97524a803d54fa51cbaabf"
                     "a61d4e7af1b0071f9be1c9e18e8422c0",
        "epoch_start": "a3ea667ae544cc450e13b98dee788c67"
                       "c4c8126d549e1f6d964e7dcf95ee81b6",
        "arrival_rate": "c57d367e1b00d6106c9755ad22d3c328"
                        "5cc63bfdfc7c1c3eb97c5074afa04adf",
        "utilization": "436f750b64e6723104d8cafde349de0c"
                       "d5886635b5b4c6be25c0f33d878d1215",
        "backlog_jobs": "22f53f839fec60bdbaf57876aca89436"
                        "129497b584f701c268cde7cc2d37e111",
        "wait": "2be9f99eab6e8e5f8168a8daac74d0e5"
                "4a7274b56008f2922c9c94e747d5e237",
        "pool": "50cbf1d710dc10edf1a2305f7c870015"
                "013893e96195ea44be935c67d170bba2",
        "mean_response": "e008cb5d51d5adc122c138a9fe474851"
                         "38d472208311d02d73a41c3e33af64f2",
        "p95_response": "1566f256e4e7ef150f2e6463c46ac771"
                        "4f031898053ff41e49832157b6896b12",
        "cost_per_request": "4e37e14d39276a7891a86c299c9b6a88"
                            "64087163249ad9772da68f96bfef966d",
    }
    RESIZING_ECONOMICS = {
        "n_requests": 100_077,
        "n_misses": 4_134,
        "pool_processor_seconds": "0x1.82f0400000000p+28",
        "pool_cpu_cost": "0x1.6033333333333p+13",
        "on_demand_total.cpu_cost": "0x1.4e2163f1411efp+12",
        "on_demand_total.storage_cost": "0x1.1b6973d9bfe1dp-2",
        "on_demand_total.transfer_in_cost": "0x1.c0d9036b8928ep+7",
        "on_demand_total.transfer_out_cost": "0x1.e778525f7bef2p+7",
        "on_demand_total.vm_fixed_cost": "0x0.0p+0",
        "serve_cost": "0x1.fd129fd94ebb6p+11",
        "cache_storage_cost": "0x1.3b0e880466941p+7",
        "mean_response_time": "0x1.a9cfa8d603212p+10",
        "p95_response_time": "0x1.be51eb851eb85p+8",
        "pool_utilization": "0x1.bb3ae2ba2fb75p-2",
    }
    SPARSE = {
        "responses": "f3af1c734b65d5e9b4c7ac5cbe8ae52c"
                     "0f4fffe18411166bb23d8f101225f52f",
        "epoch_start": "c26b32a7f4972b8f82a268a2f73a5516"
                       "6957154bc6cbbc1145c77e0bd91f3cae",
        "arrival_rate": "a5fc942da60e3117efccc833bb6589f8"
                        "5e855a81c2988f3be51a5be00ebe2f1f",
        "utilization": "1bd31117ab47586823ac09fd311303d3"
                       "b9d7dfae16c56f48cea0512230608779",
        "backlog_jobs": "92fb09750a29d5f0fd000c5bde1dd3d3"
                        "7381e51bc58a7f6be68a8d1aea9011b1",
        "wait": "e5f65ced352217affa480c59dd8e0355"
                "64a47e1366f88a882ef129a97e5a0a2a",
        "pool": "4e31a2d323e850323376791cfa90cb55"
                "fc7d71da20ba5432f84ef2c837323f4e",
        "mean_response": "93bf557e4a0324537b5793de3c0b8952"
                         "3314832a54e4e2133dad531ffae5b101",
        "p95_response": "8a3538475e84a7af2098f0c1f309c1e5"
                        "76bc6d0c5f2e9b716efcabe30d15fac0",
        "cost_per_request": "6610ea8b3d573dcd4aad215d728c4b2e"
                            "32757f3e37712346ac2f66c99613c959",
    }
    SPARSE_ECONOMICS = {
        "n_requests": 2_013,
        "n_misses": 100,
        "pool_processor_seconds": "0x1.3c68000000000p+25",
        "pool_cpu_cost": "0x1.2000000000000p+10",
        "on_demand_total.cpu_cost": "0x1.c29d0369d0374p+5",
        "on_demand_total.storage_cost": "0x1.260964b4321ecp-8",
        "on_demand_total.transfer_in_cost": "0x1.2ae590e8f0efdp+1",
        "on_demand_total.transfer_out_cost": "0x1.66cc6d2b7c859p+1",
        "on_demand_total.vm_fixed_cost": "0x0.0p+0",
        "serve_cost": "0x1.a8bdb85cd33fcp+5",
        "cache_storage_cost": "0x1.25035717889d6p+1",
        "mean_response_time": "0x1.0410b62ca8f2bp+8",
        "p95_response_time": "0x1.1589374bc6a7fp+7",
        "pool_utilization": "0x1.908b91419ca2fp-5",
    }

    def test_two_class_mix_with_resizing_controller(self):
        cache = SimCache()
        sample = sample_traffic(_golden_spec(), cache=cache)

        def controller(epoch, state):
            if state["utilization"] > 0.6:
                return 256
            return 64 if epoch % 5 == 0 else 128

        result = FluidServiceEngine(128, cache=cache).run(
            sample, controller=controller
        )
        assert set(np.unique(result.trajectories["pool"])) == {64, 128, 256}
        assert _engine_digests(result) == self.RESIZING
        assert _economics_hex(result.economics) == self.RESIZING_ECONOMICS

    def test_single_class_with_sparse_epochs(self):
        sample = sample_traffic(
            montage_traffic(2_000.0, n_regions=100, seed=4), cache=SimCache()
        )
        result = FluidServiceEngine(
            16, epoch_seconds=600.0, cache=SimCache()
        ).run(sample)
        empty = result.trajectories["arrival_rate"] == 0
        assert empty.sum() > empty.size // 2
        assert _engine_digests(result) == self.SPARSE
        assert _economics_hex(result.economics) == self.SPARSE_ECONOMICS

    def test_percentile_queries_match_np_percentile(self):
        sample = sample_traffic(_golden_spec(), cache=SimCache())

        def controller(epoch, state):
            if state["utilization"] > 0.6:
                return 256
            return 64 if epoch % 5 == 0 else 128

        result = FluidServiceEngine(128, cache=SimCache()).run(
            sample, controller=controller
        )
        responses = result.response_times()
        misses = responses[~sample.hit]
        for q in TestCountPercentile.QS:
            assert result.percentile_response_time(q).hex() == float(
                np.percentile(responses, q)
            ).hex()
            assert result.miss_percentile_response_time(q).hex() == float(
                np.percentile(misses, q)
            ).hex()


class TestCountPercentile:
    """``_count_percentile`` against ``np.percentile`` over each row
    expanded by its counts, compared by ``float.hex`` so that a change
    in the installed numpy's linear-method arithmetic shows."""

    QS = (0, 37.5, 50, 95, 99.9, 100)

    def _check(self, values, counts, qs=QS):
        values = np.asarray(values, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        with np.errstate(invalid="ignore"):  # inf - inf, as numpy does
            for q in qs:
                got = _count_percentile(values, counts, q)
                want = [
                    float(np.percentile(np.repeat(v, c), q))
                    if c.sum() else 0.0
                    for v, c in zip(values, counts)
                ]
                assert [x.hex() for x in got.tolist()] == [
                    w.hex() for w in want
                ], q

    @pytest.mark.parametrize(
        "n, q, gamma",
        [
            (1, 50.0, "n = 1"),
            (21, 50.0, "0"),
            (20, 95.0, "< 0.5"),
            (502, 99.9, "just < 0.5"),
            (11, 95.0, ">= 0.5"),
            (3, 37.5, ">= 0.5"),
            (5, 100.0, "v = n - 1"),
        ],
    )
    def test_neighbour_ranks_and_gamma(self, n, q, gamma):
        v = (n - 1) * (q / 100)
        frac = v - np.floor(v)
        assert {
            "n = 1": n == 1,
            "0": frac == 0.0 and v < n - 1,
            "< 0.5": 0.0 < frac < 0.5,
            "just < 0.5": 0.49 < frac < 0.5,
            ">= 0.5": frac >= 0.5,
            "v = n - 1": v == n - 1 and n > 1,
        }[gamma]
        # Three cells holding n requests, two of them sharing a value
        # (a hit equal to a miss).
        split = [n // 2, n - n // 2 - n // 3, n // 3]
        self._check([[4.0, 1.5, 4.0]], [split], qs=(q,))

    def test_edge_rows(self):
        self._check(
            [
                [7.25, 7.25, 7.25, 7.25],      # all values equal
                [2.0, 1.0, 2.0, 3.0],          # a hit equal to a miss
                [5.0, 1.0, 9.0, 2.0],          # no requests: 0.0
                [np.inf, 1.0, 3.0, np.inf],    # +inf responses
                [3.0, np.inf, 0.5, 2.0],       # one request
                # Signed zeros show gamma at the last rank (v + 1).
                [-0.0, 1.0, 2.0, 3.0],
                [-0.0, 1.0, 2.0, 3.0],
            ],
            [
                [3, 1, 4, 2],
                [5, 0, 7, 1],
                [0, 0, 0, 0],
                [2, 3, 1, 0],
                [1, 0, 0, 0],
                [1, 0, 0, 0],
                [4, 0, 0, 0],
            ],
        )

    def test_random_multisets(self):
        rng = np.random.default_rng(31)
        pool = np.array([0.0, 0.1, 0.3, 1.0, 1.0 + 2**-52, 86.5, 1e9, np.inf])
        for _ in range(40):
            cells = int(rng.integers(1, 9))
            values = rng.choice(pool, size=(6, cells))
            counts = rng.integers(0, 4, size=(6, cells)) * rng.choice(
                [1, 1, 50], size=(6, 1)
            )
            self._check(values, counts)

    @pytest.mark.parametrize("q", [-1.0, 100.5, float("nan")])
    def test_out_of_range_q_raises_numpys_error(self, q):
        message = "Percentiles must be in the range"
        with pytest.raises(ValueError, match=message):
            np.percentile([1.0], q)
        with pytest.raises(ValueError, match=message):
            _count_percentile(np.ones((1, 2)), np.ones((1, 2), int), q)


class TestTrafficSampling:
    def test_deterministic_per_seed(self):
        spec = montage_traffic(50_000, n_regions=500, seed=3)
        a = sample_traffic(spec)
        b = sample_traffic(spec)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.region, b.region)
        assert np.array_equal(a.hit, b.hit)

    def test_zero_retention_never_hits(self):
        spec = montage_traffic(
            50_000, n_regions=100, retention_months=0.0, seed=5
        )
        sample = sample_traffic(spec)
        assert sample.hit_rate == 0.0
        assert sample.residency_byte_seconds.sum() == 0.0

    def test_popular_regions_drive_hits(self):
        few = sample_traffic(
            montage_traffic(100_000, n_regions=50, seed=1)
        )
        many = sample_traffic(
            montage_traffic(100_000, n_regions=500_000, seed=1)
        )
        assert few.hit_rate > many.hit_rate

    def test_mix_weights_respected(self):
        spec = TrafficSpec(
            requests_per_month=100_000,
            horizon_months=0.5,
            mix=(
                MixComponent(montage_workflow(1.0), weight=3.0),
                MixComponent(montage_workflow(2.0), weight=1.0),
            ),
            n_regions=1_000,
            seed=9,
        )
        sample = sample_traffic(spec, cache=SimCache())
        share_small = (sample.class_idx == 0).mean()
        assert 0.72 < share_small < 0.78  # ~0.75 expected

    def test_window_extracts_rezeroed_misses(self):
        spec = montage_traffic(200_000, n_regions=1_000, seed=2)
        sample = sample_traffic(spec)
        window = sample.window(100_000.0, 3_600.0)
        assert window.n_requests == window.n_misses
        assert (window.times >= 0).all()
        assert (window.times < 3_600.0).all()
        mask = (
            (sample.times >= 100_000.0)
            & (sample.times < 103_600.0)
            & ~sample.hit
        )
        assert window.n_requests == int(mask.sum())


class TestTrafficSpecValidation:
    @pytest.mark.parametrize(
        "override,match",
        [
            ({"requests_per_month": float("nan")}, "requests_per_month"),
            ({"horizon_months": float("inf")}, "horizon_months"),
            ({"weight": float("nan")}, "mix weight"),
            ({"zipf_exponent": float("nan")}, "zipf_exponent"),
            ({"retention_months": float("nan")}, "retention_months"),
            ({"bandwidth_bytes_per_sec": -1.0}, "bandwidth must be positive"),
        ],
        ids=["requests-nan", "horizon-inf", "weight-nan", "zipf-nan",
             "retention-nan", "bandwidth-negative"],
    )
    def test_bad_value_rejected_at_construction(self, override, match):
        wf = fork_join_workflow(2)  # 3 tasks
        args = {"requests_per_month": 1_000.0, "horizon_months": 1.0}
        args.update(override)
        weight = args.pop("weight", 1.0)
        with pytest.raises(ValueError, match=match):
            TrafficSpec(mix=(MixComponent(wf, weight=weight),), **args)


@pytest.fixture(scope="module")
def traffic_sample():
    spec = montage_traffic(200_000, n_regions=20_000, seed=11)
    return sample_traffic(spec)


class TestFluidEngine:
    def test_zero_traffic_rejected_by_spec(self):
        with pytest.raises(ValueError):
            montage_traffic(0.0)

    def test_pool_monotonicity(self, traffic_sample):
        waits = []
        for pool in (128, 256, 512):
            result = FluidServiceEngine(pool).run(traffic_sample)
            waits.append(result.miss_mean_response_time())
        assert waits[0] >= waits[1] >= waits[2]

    def test_overload_accumulates_backlog(self, traffic_sample):
        starved = FluidServiceEngine(8).run(traffic_sample)
        ample = FluidServiceEngine(2048).run(traffic_sample)
        assert starved.peak_backlog() > 100.0
        assert ample.peak_backlog() < starved.peak_backlog()
        assert starved.pool_utilization() > ample.pool_utilization()

    def test_hits_are_transfer_only(self, traffic_sample):
        result = FluidServiceEngine(512).run(traffic_sample)
        responses = result.response_times()
        hits = traffic_sample.hit
        spec = traffic_sample.spec
        expected = (
            spec.mix[0].workflow.file("mosaic.fits").size_bytes
            / spec.bandwidth_bytes_per_sec
        )
        assert np.allclose(responses[hits], expected)
        assert (responses[~hits] > expected).all()

    def test_miss_statistics_cover_misses_only(self, traffic_sample):
        result = FluidServiceEngine(512).run(traffic_sample)
        misses = result.response_times()[~traffic_sample.hit]
        assert result.miss_mean_response_time() == float(misses.mean())
        for q in (50.0, 95.0):
            assert result.miss_percentile_response_time(q) == float(
                np.percentile(misses, q)
            )

    def test_response_column_read_only_and_cached(self, traffic_sample):
        result = FluidServiceEngine(512).run(traffic_sample)
        col = result.response_times()
        assert col is result.response_times()
        assert not col.flags.writeable
        assert result.mean_response_time() == pytest.approx(
            float(col.mean())
        )

    def test_trajectories_cover_horizon(self, traffic_sample):
        engine = FluidServiceEngine(512, epoch_seconds=7200.0)
        result = engine.run(traffic_sample)
        n_epochs = int(np.ceil(traffic_sample.horizon / 7200.0))
        for name in (
            "epoch_start", "arrival_rate", "utilization",
            "backlog_jobs", "wait", "pool", "mean_response",
            "p95_response", "cost_per_request",
        ):
            assert result.trajectories[name].shape == (n_epochs,), name

    @pytest.mark.parametrize("sparse", [False, True])
    def test_response_trajectories_are_per_epoch_statistics(
        self, traffic_sample, sparse
    ):
        sample = (
            sample_traffic(montage_traffic(2_000.0, n_regions=100, seed=4))
            if sparse else traffic_sample  # sparse: most epochs empty
        )
        delta = 7_200.0 if not sparse else 600.0
        result = FluidServiceEngine(512, epoch_seconds=delta).run(sample)
        responses = result.response_times()
        n_epochs = int(np.ceil(sample.horizon / delta))
        epoch = np.minimum(
            (sample.times / delta).astype(np.int64), n_epochs - 1
        )
        p95 = np.zeros(n_epochs)
        mean = np.zeros(n_epochs)
        for e in range(n_epochs):
            values = responses[epoch == e]
            if values.size:
                p95[e] = np.percentile(values, 95)
                mean[e] = values.mean()
        if sparse:
            assert (p95 == 0).sum() > n_epochs // 2
        assert np.array_equal(result.trajectories["p95_response"], p95)
        # The engine sums by bincount, ``mean`` pairwise: last-bit slack.
        assert result.trajectories["mean_response"] == pytest.approx(
            mean, rel=1e-12, abs=0.0
        )

    def test_economics_identities(self, traffic_sample):
        result = FluidServiceEngine(512).run(traffic_sample)
        eco = result.economics
        assert eco.n_requests == traffic_sample.n_requests
        assert eco.n_misses == traffic_sample.n_misses
        assert eco.hit_rate == pytest.approx(traffic_sample.hit_rate)
        assert eco.total_cost == pytest.approx(
            eco.pool_cpu_cost
            + eco.on_demand_total.data_management_cost
            + eco.serve_cost
            + eco.cache_storage_cost
        )
        assert eco.cost_per_request == pytest.approx(
            eco.total_cost / eco.n_requests
        )
        # The pool bill is the provisioned pool held for the horizon.
        assert eco.pool_processor_seconds == pytest.approx(
            512 * traffic_sample.horizon
        )
        assert eco.pool_cpu_cost == pytest.approx(
            AWS_2008.cpu_cost(
                eco.pool_processor_seconds, n_instances=512
            )
        )
        assert eco.cache_storage_cost == pytest.approx(
            AWS_2008.storage_cost(
                float(traffic_sample.residency_byte_seconds.sum())
            )
        )

    def test_controller_resizes_pool(self, traffic_sample):
        engine = FluidServiceEngine(512)
        result = engine.run(
            traffic_sample,
            controller=lambda e, state: 256 if e % 2 else 512,
        )
        pools = np.unique(result.trajectories["pool"])
        assert set(pools.tolist()) == {256, 512}

    @pytest.mark.parametrize("bad", [0, -1, 2.5, float("nan"), True])
    def test_controller_must_return_a_processor_count(
        self, traffic_sample, bad
    ):
        with pytest.raises(ValueError, match="processor"):
            FluidServiceEngine(8).run(
                traffic_sample, controller=lambda e, state: bad
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            FluidServiceEngine(0)
        with pytest.raises(ValueError):
            FluidServiceEngine(8, epoch_seconds=0.0)


class TestEngineResolution:
    def test_explicit_engines_pass_through(self):
        assert resolve_service_engine("event", 10**7) == "event"
        assert resolve_service_engine("fluid", 1) == "fluid"

    def test_auto_switches_on_stream_size(self):
        assert resolve_service_engine(
            "auto", EVENT_FEASIBLE_REQUESTS
        ) == "event"
        assert resolve_service_engine(
            "auto", EVENT_FEASIBLE_REQUESTS + 1
        ) == "fluid"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_service_engine("warp", 10)


class TestCapacityAtScale:
    def test_plan_meets_objective_minimally(self, traffic_sample):
        plan = plan_capacity_at_scale(
            traffic_sample, objective_p95_seconds=3_600.0
        )
        assert plan.feasible
        chosen = plan.chosen
        assert chosen.meets_objective
        assert chosen.p95_response_time <= 3_600.0
        # One processor fewer must miss the objective.
        smaller = FluidServiceEngine(chosen.n_processors - 1).run(
            traffic_sample
        )
        misses = ~traffic_sample.hit
        p95 = float(
            np.percentile(smaller.response_times()[misses], 95.0)
        )
        assert p95 > 3_600.0

    def test_infeasible_objective_reports_candidates(self, traffic_sample):
        plan = plan_capacity_at_scale(
            traffic_sample,
            objective_p95_seconds=1.0,
            max_processors=64,
        )
        assert not plan.feasible
        assert plan.candidates
        with pytest.raises(ValueError):
            _ = plan.n_processors


class TestAutoscale:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_processors=0, max_processors=8)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_processors=8, max_processors=4)
        with pytest.raises(ValueError):
            AutoscalePolicy(
                min_processors=1, max_processors=8, scale_factor=1.0
            )
        with pytest.raises(ValueError):
            AutoscalePolicy(
                min_processors=1, max_processors=8,
                low_utilization=0.9, high_utilization=0.8,
            )

    def test_pool_stays_within_bounds(self, traffic_sample):
        policy = AutoscalePolicy(min_processors=64, max_processors=1024)
        outcome = evaluate_autoscale(traffic_sample, policy, 256)
        pools = outcome.pool_trajectory
        assert pools.min() >= 64
        assert pools.max() <= 1024
        assert outcome.peak_pool == int(pools.max())
        assert outcome.mean_pool == pytest.approx(float(pools.mean()))

    def test_cooldown_limits_resize_rate(self, traffic_sample):
        policy = AutoscalePolicy(
            min_processors=16, max_processors=4096, cooldown_epochs=4
        )
        outcome = evaluate_autoscale(traffic_sample, policy, 64)
        pools = outcome.pool_trajectory
        changes = np.flatnonzero(np.diff(pools) != 0)
        assert (np.diff(changes) >= 4).all()

    def test_elasticity_saves_on_overprovisioned_baseline(
        self, traffic_sample
    ):
        # A baseline sized for the cold-start transient idles later;
        # scaling down must cost strictly less than holding it.
        policy = AutoscalePolicy(min_processors=64, max_processors=4096)
        outcome = evaluate_autoscale(traffic_sample, policy, 2048)
        assert outcome.scaled_cost < outcome.fixed_cost
        assert outcome.cost_savings == pytest.approx(
            outcome.fixed_cost - outcome.scaled_cost
        )
        assert 0.0 < outcome.savings_fraction < 1.0
