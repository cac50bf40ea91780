"""Fluid-approximation service engine: mosaic-as-a-service at scale.

The event-based :class:`~repro.service.simulator.ServiceSimulator`
multiplexes every request through the full event engine and tops out
around thousands of requests.  The paper's Question-2b economics
(~18,000 mosaics/month amortize hosting the 2MASS archive) only get
interesting far beyond that, so this module simulates 10⁵–10⁷
requests/month in seconds by replacing per-request event simulation
with three layers:

1. **per-class summaries** (:mod:`repro.service.summaries`): solo
   makespan / busy-seconds / bytes per workflow class as functions of
   pool share, precomputed once by the fast kernel and memoized in the
   sweep cache;
2. an **epoch-stepped fluid + M/G/c queueing model** over those
   summaries.  Within an epoch the miss stream is a rate; the pool is
   ``s = c / d̄`` whole-workflow service slots (``d̄`` = average
   processors one running workflow holds), the steady-state wait comes
   from the Allen–Cunneen/Sakasegawa approximation
   ``Wq ≈ ((C²a + C²s)/2) · u^{√(2(s+1))−1}/(s(1−u)) · τ`` and
   overload accumulates a fluid job backlog drained at capacity — so
   utilization, backlog, and waits become trajectories;
3. a **content-addressed result-cache model**: requests are Zipf-popular
   over sky regions, the product key is (workflow class, region) — the
   service-level analogue of ``Workflow.fingerprint()`` dedup — and a
   TTL cache is resolved *vectorized* with byte-identical semantics to
   :class:`~repro.service.cache.MosaicCache`, so cache hit rate flows
   through both the latency and the economics.

Every approximation is validated the way the fast kernel was: a
differential harness (:func:`validate_fluid`) replays subsampled traffic
windows through the event-based simulator and bounds the error (see the
``service-scale`` ablation and ``tests/service/test_fluid_vs_event.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.costs import CostBreakdown
from repro.core.pricing import AWS_2008, PricingModel
from repro.montage.generator import montage_workflow
from repro.service.arrivals import ServiceRequest, poisson_arrival_array
from repro.service.cache import zipf_probabilities
from repro.service.economics import ServiceEconomics, service_economics
from repro.service.simulator import (
    ResponseStats,
    ServiceResult,
    ServiceSimulator,
)
from repro.service.summaries import ClassSummary, summarize_mix
from repro.sim.executor import DEFAULT_BANDWIDTH
from repro.sim.resources import (
    check_bandwidth,
    check_count,
    check_finite,
    processor_count,
)
from repro.sweep.cache import SimCache
from repro.util.units import MONTH
from repro.workflow.dag import Workflow

__all__ = [
    "MixComponent",
    "TrafficSpec",
    "TrafficSample",
    "montage_traffic",
    "sample_traffic",
    "FluidServiceEngine",
    "FluidServiceResult",
    "WindowValidation",
    "FluidValidation",
    "replay_misses",
    "event_economics",
    "validate_fluid",
    "resolve_service_engine",
    "EVENT_FEASIBLE_REQUESTS",
]

#: ``engine="auto"`` uses the event simulator up to this many requests.
EVENT_FEASIBLE_REQUESTS = 2_000

#: Utilization clamp for the steady-state wait formula: near and past
#: saturation the formula diverges while a finite epoch cannot realize
#: an unbounded queue — there the fluid backlog term owns the delay.
_RHO_CLAMP = 0.95


@dataclass(frozen=True)
class MixComponent:
    """One workflow class in the request mix with its traffic weight."""

    workflow: Workflow
    weight: float

    def __post_init__(self) -> None:
        check_finite("mix weight", self.weight, positive=True)


@dataclass(frozen=True)
class TrafficSpec:
    """A service workload: sustained request traffic over a horizon."""

    requests_per_month: float
    horizon_months: float
    mix: tuple[MixComponent, ...]
    n_regions: int = 10_000
    zipf_exponent: float = 1.0
    retention_months: float = 1.0
    seed: int = 0
    data_mode: str = "cleanup"
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH

    def __post_init__(self) -> None:
        for name in ("requests_per_month", "horizon_months"):
            check_finite(name, getattr(self, name), positive=True)
        for name in ("zipf_exponent", "retention_months"):
            check_finite(name, getattr(self, name))
        if not self.mix:
            raise ValueError("need at least one mix component")
        check_count("n_regions", self.n_regions)
        check_bandwidth(self.bandwidth_bytes_per_sec)

    @property
    def rate_per_second(self) -> float:
        return self.requests_per_month / MONTH

    @property
    def horizon_seconds(self) -> float:
        return self.horizon_months * MONTH

    @property
    def weights(self) -> np.ndarray:
        w = np.array([c.weight for c in self.mix], dtype=float)
        return w / w.sum()


def montage_traffic(
    requests_per_month: float,
    horizon_months: float = 1.0,
    degrees: tuple[float, ...] = (1.0,),
    weights: tuple[float, ...] | None = None,
    **kwargs,
) -> TrafficSpec:
    """Convenience spec: a mix of calibrated Montage mosaic sizes."""
    if weights is None:
        weights = (1.0,) * len(degrees)
    if len(weights) != len(degrees):
        raise ValueError("weights and degrees length mismatch")
    mix = tuple(
        MixComponent(workflow=montage_workflow(d), weight=w)
        for d, w in zip(degrees, weights)
    )
    return TrafficSpec(
        requests_per_month=requests_per_month,
        horizon_months=horizon_months,
        mix=mix,
        **kwargs,
    )


# ------------------------------------------------------------------ #
# columnar traffic sampling + vectorized result-cache resolution
# ------------------------------------------------------------------ #
@dataclass
class TrafficSample:
    """A sampled request stream, columnar.

    One row per request, in arrival order (``times`` is sorted): arrival
    time, workflow class, sky region, and the resolved result-cache
    verdict.  ``residency_byte_seconds`` is the cache's total storage
    residency (for rent), per class.
    """

    spec: TrafficSpec
    times: np.ndarray
    class_idx: np.ndarray
    region: np.ndarray
    hit: np.ndarray
    residency_byte_seconds: np.ndarray  # per class
    horizon: float

    @property
    def n_requests(self) -> int:
        return int(self.times.size)

    @property
    def n_misses(self) -> int:
        return int((~self.hit).sum())

    @property
    def hit_rate(self) -> float:
        n = self.n_requests
        return float(self.hit.sum() / n) if n else 0.0

    def window(self, t0: float, width: float, *,
               misses_only: bool = True) -> "TrafficSample":
        """Re-zeroed slice of the stream over ``[t0, t0 + width)``.

        With ``misses_only`` (the default) only cache misses survive —
        the sub-stream the shared pool actually sees — and the window
        carries no residency (cache economics stay with the full run).
        """
        mask = (self.times >= t0) & (self.times < t0 + width)
        if misses_only:
            mask &= ~self.hit
        return TrafficSample(
            spec=self.spec,
            times=self.times[mask] - t0,
            class_idx=self.class_idx[mask],
            region=self.region[mask],
            hit=self.hit[mask] if not misses_only
            else np.zeros(int(mask.sum()), dtype=bool),
            residency_byte_seconds=np.zeros(len(self.spec.mix)),
            horizon=width,
        )


#: Bucket count of the region sampler's inverse-CDF table (a power of
#: two, so ``u * B`` and ``j / B`` are exact).  At 50,000 regions and
#: Zipf exponent 1.0, 2**18 buckets leave 16% of draws to a full
#: binary search (2**16 leave 28%).
_REGION_BUCKETS = 1 << 18


def _zipf_regions(
    rng: np.random.Generator, n_regions: int, exponent: float, n: int
) -> np.ndarray:
    """``rng.choice(n_regions, size=n, p=zipf_probabilities(...))``,
    bit for bit, without a full binary search per draw.

    Performs ``Generator.choice``'s own steps — ``cdf = p.cumsum();
    cdf /= cdf[-1]``, ``rng.random(n)``, ``cdf.searchsorted(u,
    "right")`` — but answers the search from a bucket table first.
    Bucket ``j`` covers ``[j/B, (j+1)/B)`` and ``table[j]`` counts the
    CDF entries ``<= j/B``; when ``table[j] == table[j+1]`` no CDF
    step lies in the bucket, so every draw in it searches to
    ``table[j]``.  Only draws whose bucket holds a step are searched.
    """
    cdf = zipf_probabilities(n_regions, exponent).cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    buckets = _REGION_BUCKETS
    table = cdf.searchsorted(np.arange(buckets + 1) / buckets, "right")
    stepped = table[1:] != table[:-1]
    # ``random`` draws are multiples of 2**-53, so ``u * B`` is exact.
    j = (u * buckets).astype(np.intp)
    region = table[j]
    search = stepped[j]
    del j
    region[search] = cdf.searchsorted(u[search], "right")
    return region


def _resolve_ttl_cache(
    keys: np.ndarray,
    times: np.ndarray,
    ttl: float,
    horizon: float,
    n_classes: int,
    n_regions: int,
    mosaic_bytes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized TTL result cache over product keys.

    Byte-identical semantics to :class:`~repro.service.cache.MosaicCache`
    applied per product key: a repeat within ``ttl`` of the previous
    access is a hit; residency accrues ``min(gap, ttl)`` between
    consecutive accesses and ``min(ttl, horizon - last)`` after the
    last.  Returns ``(hit flags, per-class residency byte-seconds)``.
    ``keys`` must be int64 in ``[0, n_classes * n_regions)``.
    """
    n = keys.size
    if n == 0 or ttl <= 0:
        return np.zeros(n, dtype=bool), np.zeros(n_classes)
    if int(n_classes) * int(n_regions) * n >= 2**63:
        raise ValueError(
            f"TTL cache key space too large for int64: {n_classes} "
            f"classes x {n_regions} regions x {n} requests >= 2**63"
        )
    # ``key * n + position`` is unique per request, so one unstable
    # sort orders each key's accesses by position, which is time order
    # (times are globally sorted) — the order of a stable argsort by
    # key.
    composite = keys * n
    composite += np.arange(n)
    composite.sort()
    k, order = np.divmod(composite, n)
    del composite
    t = times[order]
    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = k[1:] == k[:-1]
    gap = np.empty(n)
    gap[0] = np.inf
    np.subtract(t[1:], t[:-1], out=gap[1:])
    hits = np.empty(n, dtype=bool)
    hits[order] = same & (gap <= ttl)
    del order

    # Residency between consecutive same-key accesses, attributed to
    # the class of the entry (same for both accesses of a pair).
    pair_seconds = np.minimum(gap, ttl, out=gap)
    pair_seconds[~same] = 0.0
    cls_sorted = np.floor_divide(k, n_regions, out=k)
    residency = np.bincount(
        cls_sorted, weights=pair_seconds, minlength=n_classes
    )
    del pair_seconds, gap
    # Tail residency past each key's final access.
    last = np.empty(n, dtype=bool)
    last[-1] = True
    np.logical_not(same[1:], out=last[:-1])
    tail_seconds = np.minimum(ttl, np.maximum(0.0, horizon - t[last]))
    residency += np.bincount(
        cls_sorted[last], weights=tail_seconds, minlength=n_classes
    )
    return hits, residency * mosaic_bytes


def sample_traffic(
    spec: TrafficSpec,
    summaries: tuple[ClassSummary, ...] | None = None,
    *,
    cache: SimCache | None = None,
) -> TrafficSample:
    """Sample the full columnar request stream for a traffic spec.

    Deterministic per ``spec.seed``: arrivals, class assignment, region
    popularity and the resolved TTL cache all derive from seeded child
    streams.  Classes are ``Generator.choice`` draws on the
    ``[seed, 1]`` stream; regions reproduce ``Generator.choice`` on the
    ``[seed, 2]`` stream step for step (cumulative sum, normalization,
    ``random``, right-side search; see :func:`_zipf_regions`), so the
    stream is bit-identical to ``choice``'s.  A golden test in
    ``tests/service/test_scale.py`` pins the sampled columns.
    """
    if summaries is None:
        summaries = summarize_mix(
            spec.mix,
            data_mode=spec.data_mode,
            bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec,
            cache=cache,
        )
    times = poisson_arrival_array(
        spec.rate_per_second, spec.horizon_seconds, spec.seed
    )
    n = times.size
    n_classes = len(spec.mix)
    if n_classes == 1:
        class_idx = np.zeros(n, dtype=np.int64)
    else:
        rng_class = np.random.default_rng([spec.seed, 1])
        class_idx = rng_class.choice(n_classes, size=n, p=spec.weights)
    region = _zipf_regions(
        np.random.default_rng([spec.seed, 2]),
        spec.n_regions,
        spec.zipf_exponent,
        n,
    )
    keys = class_idx * spec.n_regions
    keys += region
    mosaic_bytes = np.array([s.mosaic_bytes for s in summaries])
    hits, residency = _resolve_ttl_cache(
        keys,
        times,
        spec.retention_months * MONTH,
        spec.horizon_seconds,
        n_classes,
        spec.n_regions,
        mosaic_bytes,
    )
    return TrafficSample(
        spec=spec,
        times=times,
        class_idx=class_idx,
        region=region,
        hit=hits,
        residency_byte_seconds=residency,
        horizon=spec.horizon_seconds,
    )


# ------------------------------------------------------------------ #
# the fluid engine
# ------------------------------------------------------------------ #
@dataclass
class FluidServiceResult(ResponseStats):
    """A full-scale service horizon, fluid-approximated.

    Sampled outcomes are columnar from birth: one response time per
    request (misses: epoch wait + solo makespan at the pool; hits: the
    mosaic's outbound transfer), cached read-only, with every aggregate
    derived from the columns.  ``trajectories`` maps metric name to a
    per-epoch array (``epoch_start``, ``arrival_rate``, ``utilization``,
    ``backlog_jobs``, ``wait``, ``mean_response``, ``p95_response``,
    ``cost_per_request``, ``pool``).
    """

    sample: TrafficSample
    n_processors: int
    epoch_seconds: float
    trajectories: dict[str, np.ndarray]
    economics: ServiceEconomics
    elapsed_seconds: float
    _response_times: np.ndarray = field(repr=False)
    # ``(verdict, epoch, class)`` tables, verdict 0 = miss, 1 = hit:
    # the response every such request takes, and how many there are.
    _values: np.ndarray = field(repr=False)
    _counts: np.ndarray = field(repr=False)

    @property
    def spec(self) -> TrafficSpec:
        return self.sample.spec

    @property
    def n_requests(self) -> int:
        return self.sample.n_requests

    @property
    def hit_rate(self) -> float:
        return self.sample.hit_rate

    @property
    def horizon(self) -> float:
        return self.sample.horizon

    def response_times(self) -> np.ndarray:
        return self._response_times

    def percentile_response_time(self, q: float) -> float:
        """q-th percentile response time (q in [0, 100])."""
        return _pooled_percentile(self._values, self._counts, q)

    def miss_mean_response_time(self) -> float:
        """Mean response over cache misses only (the queue+service path)."""
        misses = self._response_times[~self.sample.hit]
        return float(misses.mean()) if misses.size else 0.0

    def miss_percentile_response_time(self, q: float) -> float:
        """q-th percentile response over cache misses only (q in [0, 100])."""
        return _pooled_percentile(self._values[0], self._counts[0], q)

    def pool_utilization(self) -> float:
        util = self.trajectories["utilization"]
        return float(util.mean()) if util.size else 0.0

    def peak_backlog(self) -> float:
        backlog = self.trajectories["backlog_jobs"]
        return float(backlog.max()) if backlog.size else 0.0

    @property
    def requests_per_second_simulated(self) -> float:
        """Engine throughput: sampled requests per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_requests / self.elapsed_seconds


class FluidServiceEngine:
    """Epoch-stepped fluid/M/G/c service simulation over class summaries.

    Parameters
    ----------
    n_processors:
        The provisioned shared pool (per-epoch sizes may be overridden
        by a ``controller`` — see :meth:`run`).
    epoch_seconds:
        Fluid step; traffic within an epoch is a rate (default 1 h).
    pricing:
        Fee structure for the economics.
    """

    def __init__(
        self,
        n_processors: int,
        *,
        epoch_seconds: float = 3600.0,
        pricing: PricingModel = AWS_2008,
        cache: SimCache | None = None,
    ) -> None:
        self.n_processors = processor_count(n_processors)
        check_finite("epoch_seconds", epoch_seconds, positive=True)
        self.epoch_seconds = float(epoch_seconds)
        self.pricing = pricing
        self.cache = cache

    # -------------------------------------------------------------- #
    def run(
        self,
        sample: TrafficSample,
        summaries: tuple[ClassSummary, ...] | None = None,
        *,
        controller=None,
    ) -> FluidServiceResult:
        """Simulate the whole horizon; seconds for millions of requests.

        ``controller(epoch, state) -> int`` may resize the pool per
        epoch (autoscaling); ``state`` is a dict with the previous
        epoch's ``utilization``, ``backlog_jobs``, ``wait`` and
        ``pool``.  Without a controller the pool is fixed.
        """
        t_start = time.perf_counter()
        spec = sample.spec
        if summaries is None:
            summaries = summarize_mix(
                spec.mix,
                data_mode=spec.data_mode,
                bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec,
                extra_shares=(self.n_processors,),
                cache=self.cache,
            )
        n_classes = len(summaries)
        delta = self.epoch_seconds
        n_epochs = max(1, int(np.ceil(sample.horizon / delta)))

        epoch_idx = np.minimum(
            (sample.times / delta).astype(np.int64), n_epochs - 1
        )
        # Every per-epoch, per-class count from one (verdict, epoch,
        # class) table; verdict-major, so both halves are contiguous.
        flat = sample.hit * n_epochs
        flat += epoch_idx
        flat *= n_classes
        flat += sample.class_idx
        counts = np.bincount(
            flat, minlength=2 * n_epochs * n_classes
        ).reshape(2, n_epochs, n_classes)
        del flat
        miss_counts = counts[0].astype(float)
        hit_counts = counts[1]
        requests_per_epoch = counts.sum(axis=(0, 2)).astype(float)

        # Global-mix fallbacks for empty epochs.
        weights = spec.weights

        pool = np.empty(n_epochs, dtype=np.int64)
        utilization = np.zeros(n_epochs)
        backlog = np.zeros(n_epochs)
        wait = np.zeros(n_epochs)

        # Per-pool-size (makespan, busy) vectors over the classes.
        vectors: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def class_vectors(c: int) -> tuple[np.ndarray, np.ndarray]:
            if c not in vectors:
                vectors[c] = (
                    np.array([s.makespan(c) for s in summaries]),
                    np.array([s.busy(c) for s in summaries]),
                )
            return vectors[c]

        q = 0.0  # backlog, in whole-workflow jobs
        c = self.n_processors
        state = {
            "utilization": 0.0, "backlog_jobs": 0.0, "wait": 0.0,
            "pool": c,
        }
        for e in range(n_epochs):
            if controller is not None:
                c = processor_count(controller(e, state))
            pool[e] = c
            makespan_c, busy_c = class_vectors(c)
            arrivals = miss_counts[e]
            n_arrived = float(arrivals.sum())
            if n_arrived > 0:
                share = arrivals / n_arrived
            else:
                share = weights
            tau = float(share @ makespan_c)
            tau2 = float(share @ (makespan_c**2))
            b_mean = float(share @ busy_c)
            scv = max(0.0, tau2 / (tau * tau) - 1.0) if tau > 0 else 0.0
            d_mean = b_mean / tau if tau > 0 else 1.0
            slots = max(1.0, c / max(d_mean, 1e-12))
            lam = n_arrived / delta
            rho = lam * tau / slots
            job_rate = slots / tau if tau > 0 else np.inf
            # Mean backlog a uniformly-arriving job sees this epoch,
            # from the within-epoch fluid trajectory
            # q(t) = max(0, q + (λ − μ)t): overload grows it linearly,
            # underload drains it (possibly to empty mid-epoch).
            net = lam - job_rate
            if q <= 0.0 and net <= 0.0:
                mean_q = 0.0
            elif net >= 0.0 or q / -net >= delta:
                mean_q = q + 0.5 * net * delta
            else:
                # Drains dry at t* = q/(μ−λ); triangle averaged over Δ.
                mean_q = 0.5 * q * (q / -net) / delta
            # Allen-Cunneen / Sakasegawa steady-state wait (C²a = 1)
            # for the stable regime; past saturation the steady state
            # does not exist and the fluid backlog term owns the delay.
            if rho < 1.0 and tau > 0:
                u = min(rho, _RHO_CLAMP)
                w_ss = (
                    ((1.0 + scv) / 2.0)
                    * u ** (np.sqrt(2.0 * (slots + 1.0)) - 1.0)
                    / (slots * (1.0 - u))
                    * tau
                )
            else:
                w_ss = 0.0
            wait[e] = (mean_q / job_rate if np.isfinite(job_rate)
                       else 0.0) + w_ss
            backlog[e] = q
            capacity_jobs = job_rate * delta
            processed = min(q + n_arrived, capacity_jobs)
            utilization[e] = min(
                1.0, processed * b_mean / (c * delta)
            ) if delta > 0 else 0.0
            q = max(0.0, q + n_arrived - capacity_jobs)
            state = {
                "utilization": utilization[e],
                "backlog_jobs": q,
                "wait": wait[e],
                "pool": c,
            }

        # ---------------- sampled per-request outcomes ---------------- #
        # ``pool == sizes[size_of_epoch]``: each distinct pool size once.
        sizes, size_of_epoch = np.unique(pool, return_inverse=True)
        mosaic_bytes = np.array([s.mosaic_bytes for s in summaries])
        responses = np.empty(sample.n_requests)
        hit = sample.hit
        responses[hit] = (
            mosaic_bytes[sample.class_idx[hit]]
            / spec.bandwidth_bytes_per_sec
        )
        # Misses: epoch wait + solo makespan at their epoch's pool.
        miss = ~hit
        miss_epochs = epoch_idx[miss]
        make_by_size = np.stack([vectors[int(c)][0] for c in sizes])
        responses[miss] = (
            wait[miss_epochs]
            + make_by_size[
                size_of_epoch[miss_epochs], sample.class_idx[miss]
            ]
        )
        responses.setflags(write=False)
        # The same float expressions per (verdict, epoch, class): every
        # response equals its cell's value, so each percentile follows
        # from the values and ``counts`` alone.
        values = np.empty((2, n_epochs, n_classes))
        values[0] = wait[:, None] + make_by_size[size_of_epoch]
        values[1] = mosaic_bytes / spec.bandwidth_bytes_per_sec
        p95 = _count_percentile(
            values.transpose(1, 0, 2).reshape(n_epochs, -1),
            counts.transpose(1, 0, 2).reshape(n_epochs, -1),
            95.0,
        )
        trajectories = {
            "epoch_start": np.arange(n_epochs) * delta,
            "arrival_rate": requests_per_epoch / delta,
            "utilization": utilization,
            "backlog_jobs": backlog,
            "wait": wait,
            "pool": pool,
            "mean_response": _per_request(
                np.bincount(epoch_idx, weights=responses,
                            minlength=n_epochs),
                requests_per_epoch,
            ),
            "p95_response": p95,
        }
        economics = self._economics(
            sample, summaries, mosaic_bytes, responses,
            _pooled_percentile(values, counts, 95.0), pool, delta,
            miss_counts.sum(axis=0), hit_counts.sum(axis=0), utilization,
        )
        trajectories["cost_per_request"] = self._cost_trajectory(
            summaries, sizes, size_of_epoch, delta, miss_counts,
            hit_counts, requests_per_epoch,
        )
        elapsed = time.perf_counter() - t_start
        return FluidServiceResult(
            sample=sample,
            n_processors=self.n_processors,
            epoch_seconds=delta,
            trajectories=trajectories,
            economics=economics,
            elapsed_seconds=elapsed,
            _response_times=responses,
            _values=values,
            _counts=counts,
        )

    # -------------------------------------------------------------- #
    def _on_demand_total(
        self,
        summaries: tuple[ClassSummary, ...],
        miss_by_class: np.ndarray,
        share: int,
    ) -> CostBreakdown:
        """Imputed resources-used cost of all generated mosaics."""
        pricing = self.pricing
        total = CostBreakdown(0.0, 0.0, 0.0, 0.0)
        for s, count in zip(summaries, miss_by_class):
            if count == 0:
                continue
            one = CostBreakdown(
                cpu_cost=pricing.cpu_cost(s.compute_seconds),
                storage_cost=pricing.storage_cost(s.storage(share)),
                transfer_in_cost=pricing.transfer_in_cost(s.bytes_in),
                transfer_out_cost=pricing.transfer_out_cost(s.bytes_out),
            )
            total = total + one.scaled(float(count))
        return total

    def _economics(
        self,
        sample: TrafficSample,
        summaries: tuple[ClassSummary, ...],
        mosaic_bytes: np.ndarray,
        responses: np.ndarray,
        p95_response: float,
        pool: np.ndarray,
        delta: float,
        miss_by_class: np.ndarray,
        hit_by_class: np.ndarray,
        util: np.ndarray,
    ) -> ServiceEconomics:
        pricing = self.pricing
        pool_seconds = float(pool.sum()) * delta
        pool_cpu = pricing.cpu_cost(
            pool_seconds, n_instances=int(pool.max(initial=1))
        )
        on_demand = self._on_demand_total(
            summaries, miss_by_class, self.n_processors
        )
        serve, cache_rent = _hit_costs(
            pricing, mosaic_bytes, hit_by_class, sample
        )
        return ServiceEconomics(
            n_requests=sample.n_requests,
            n_misses=int(miss_by_class.sum()),
            pool_processor_seconds=pool_seconds,
            pool_cpu_cost=pool_cpu,
            on_demand_total=on_demand,
            serve_cost=serve,
            cache_storage_cost=cache_rent,
            mean_response_time=(
                float(responses.mean()) if responses.size else 0.0
            ),
            p95_response_time=p95_response,
            pool_utilization=float(util.mean()) if util.size else 0.0,
        )

    def _cost_trajectory(
        self,
        summaries: tuple[ClassSummary, ...],
        sizes: np.ndarray,
        size_of_epoch: np.ndarray,
        delta: float,
        miss_counts: np.ndarray,
        hit_counts: np.ndarray,
        requests_per_epoch: np.ndarray,
    ) -> np.ndarray:
        """Per-epoch operator cost per request served in that epoch."""
        pricing = self.pricing
        size_cost = np.array(
            [pricing.cpu_cost(float(c) * delta, n_instances=int(c))
             for c in sizes]
        )
        gen_unit = np.array(
            [
                pricing.transfer_in_cost(s.bytes_in)
                + pricing.transfer_out_cost(s.bytes_out)
                + pricing.storage_cost(s.storage(self.n_processors))
                for s in summaries
            ]
        )
        serve_unit = np.array(
            [pricing.transfer_out_cost(s.mosaic_bytes) for s in summaries]
        )
        epoch_cost = (
            size_cost[size_of_epoch]
            + miss_counts @ gen_unit
            + hit_counts @ serve_unit
        )
        return _per_request(epoch_cost, requests_per_epoch)


def _count_percentile(
    values: np.ndarray, counts: np.ndarray, q: float
) -> np.ndarray:
    """Row-wise ``np.percentile(np.repeat(values[r], counts[r]), q)``,
    bit for bit, from the counts alone; 0.0 for a row without counts.

    Performs numpy's default (``"linear"``) method step by step: the
    virtual index ``v = (n - 1) * (q / 100)``; the neighbour ranks
    ``floor(v)`` and ``floor(v) + 1``, both the last rank once
    ``v >= n - 1``, where numpy's ``-1`` marker makes ``gamma = v + 1``
    (else ``v - floor(v)``); and ``_lerp``: ``a + (b - a) * gamma``, or
    ``b - (b - a) * (1 - gamma)`` when ``gamma >= 0.5``.  The value at
    a rank is read off the cumulative counts of the sorted values, so
    no row is ever expanded.  ``values`` must hold no NaN.
    """
    fraction = float(q) / 100
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    out = np.zeros(len(values))
    order = np.argsort(values, axis=1)
    ranked = np.take_along_axis(values, order, axis=1)
    cum = np.take_along_axis(counts, order, axis=1).cumsum(axis=1)
    rows = np.flatnonzero(cum[:, -1])
    ranked, cum = ranked[rows], cum[rows]
    last = cum[:, -1] - 1
    v = last.astype(float) * fraction
    lo = np.floor(v)
    above = v >= last
    prev = np.where(above, last, lo.astype(np.int64))
    gamma = v - np.where(above, -1.0, lo)

    def at(rank: np.ndarray) -> np.ndarray:
        # The value at a rank sits in the first cell whose count reaches
        # past it.
        cell = (cum <= rank[:, None]).sum(axis=1)
        return ranked[np.arange(len(rank)), cell]

    a = at(prev)
    b = at(np.where(above, last, prev + 1))
    diff = b - a
    result = a + diff * gamma
    upper = gamma >= 0.5
    result[upper] = (b - diff * (1 - gamma))[upper]
    out[rows] = result
    return out


def _pooled_percentile(
    values: np.ndarray, counts: np.ndarray, q: float
) -> float:
    """:func:`_count_percentile` over all cells as one row."""
    return float(_count_percentile(
        values.reshape(1, -1), counts.reshape(1, -1), q
    )[0])


def _per_request(totals: np.ndarray, requests: np.ndarray) -> np.ndarray:
    """Per-epoch ``totals / requests``; 0 in epochs without requests."""
    return np.where(requests > 0, totals / np.maximum(requests, 1.0), 0.0)


def _hit_costs(
    pricing: PricingModel,
    mosaic_bytes: np.ndarray,
    hit_by_class: np.ndarray,
    sample: TrafficSample,
) -> tuple[float, float]:
    """``(serve cost, cache rent)`` of a sample: every hit's mosaic
    (``mosaic_bytes`` per class) sent out once, and storage rent on the
    result cache's residency."""
    serve = float(
        sum(
            pricing.transfer_out_cost(b) * n
            for b, n in zip(mosaic_bytes, hit_by_class)
        )
    )
    rent = float(
        pricing.storage_cost(float(sample.residency_byte_seconds.sum()))
    )
    return serve, rent


# ------------------------------------------------------------------ #
# engine resolution + differential validation harness
# ------------------------------------------------------------------ #
def resolve_service_engine(engine: str, n_requests: int) -> str:
    """Resolve ``auto`` to ``event`` or ``fluid`` by stream size."""
    if engine not in ("auto", "event", "fluid"):
        raise ValueError(
            f"unknown service engine {engine!r}; "
            "expected 'auto', 'event' or 'fluid'"
        )
    if engine != "auto":
        return engine
    return "event" if n_requests <= EVENT_FEASIBLE_REQUESTS else "fluid"


@dataclass(frozen=True)
class WindowValidation:
    """One subsampled traffic window, event vs fluid."""

    t0: float
    width: float
    n_misses: int
    event_mean: float
    fluid_mean: float
    event_seconds: float
    fluid_seconds: float

    @property
    def rel_error(self) -> float:
        if self.event_mean == 0:
            return 0.0
        return abs(self.fluid_mean - self.event_mean) / self.event_mean


@dataclass(frozen=True)
class FluidValidation:
    """Differential validation of the fluid engine on traffic windows."""

    windows: tuple[WindowValidation, ...]

    @property
    def max_error(self) -> float:
        return max((w.rel_error for w in self.windows), default=0.0)

    @property
    def mean_error(self) -> float:
        if not self.windows:
            return 0.0
        return sum(w.rel_error for w in self.windows) / len(self.windows)

    @property
    def event_seconds_per_request(self) -> float:
        n = sum(w.n_misses for w in self.windows)
        if n == 0:
            return 0.0
        return sum(w.event_seconds for w in self.windows) / n

    def projected_event_seconds(self, n_requests: int) -> float:
        """Event-engine wall time extrapolated to the full stream."""
        return self.event_seconds_per_request * n_requests


def replay_misses(sample: TrafficSample, n_processors: int) -> ServiceResult:
    """Run a sample's cache misses through the event simulator, with the
    spec's data mode and link: the exact answer the fluid engine
    approximates."""
    spec = sample.spec
    workflows = [c.workflow for c in spec.mix]
    misses = ~sample.hit
    requests = [
        ServiceRequest(f"req-{i:07d}", workflows[int(k)], float(t))
        for i, (t, k) in enumerate(
            zip(sample.times[misses], sample.class_idx[misses])
        )
    ]
    return ServiceSimulator(
        n_processors,
        spec.data_mode,
        bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec,
    ).run(requests)


def event_economics(
    sample: TrafficSample, result: ServiceResult
) -> ServiceEconomics:
    """The bill of a sample whose misses ``result`` replayed
    (:func:`replay_misses`), itemized and measured as the fluid engine's.

    The pool is held for the horizon, or until an undersized pool's
    backlog drains, and its utilization is taken over that period.  A
    hit takes its mosaic's outbound transfer, so response times cover
    every request; hits and cache rent are priced by the code the fluid
    engine uses.  Every class's workflow must have a ``mosaic.fits``.
    """
    spec = sample.spec
    mosaic_bytes = np.array(
        [c.workflow.file("mosaic.fits").size_bytes for c in spec.mix]
    )
    hit_class = sample.class_idx[sample.hit]
    hit_by_class = np.bincount(hit_class, minlength=len(spec.mix))
    serve, rent = _hit_costs(AWS_2008, mosaic_bytes, hit_by_class, sample)
    period = max(sample.horizon, result.horizon)
    eco = service_economics(result, AWS_2008, period)
    responses = np.concatenate([
        result.response_times(),
        mosaic_bytes[hit_class] / spec.bandwidth_bytes_per_sec,
    ]) if sample.n_requests else np.zeros(1)  # 0.0 without requests
    return replace(
        eco,
        n_requests=sample.n_requests,
        serve_cost=serve,
        cache_storage_cost=rent,
        mean_response_time=float(responses.mean()),
        p95_response_time=float(np.percentile(responses, 95.0)),
        pool_utilization=(
            result.pool_busy_curve.integral(0.0, period)
            / eco.pool_processor_seconds
        ),
    )


def validate_fluid(
    sample: TrafficSample,
    n_processors: int,
    *,
    n_windows: int = 3,
    window_seconds: float = 3600.0,
    epoch_seconds: float = 3600.0,
    summaries: tuple[ClassSummary, ...] | None = None,
    cache: SimCache | None = None,
) -> FluidValidation:
    """Replay subsampled windows through the event engine and compare.

    Windows are spread across the horizon; each window's cache-miss
    sub-stream runs cold-start through both the event simulator
    (:func:`replay_misses`) and the fluid engine, and the mean response
    times over the miss path (queueing + service — the part the fluid
    model approximates) are compared.
    """
    check_count("n_windows", n_windows)
    check_finite("window_seconds", window_seconds, positive=True)
    spec = sample.spec
    if summaries is None:
        summaries = summarize_mix(
            spec.mix,
            data_mode=spec.data_mode,
            bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec,
            extra_shares=(n_processors,),
            cache=cache,
        )
    horizon = sample.horizon
    starts = [
        (i + 0.5) * horizon / (n_windows + 1) for i in range(n_windows)
    ]
    windows = []
    for t0 in starts:
        window = sample.window(t0, window_seconds)
        if window.n_requests == 0:
            continue
        t_ev = time.perf_counter()
        event_result = replay_misses(window, n_processors)
        event_seconds = time.perf_counter() - t_ev
        t_fl = time.perf_counter()
        engine = FluidServiceEngine(
            n_processors, epoch_seconds=epoch_seconds, cache=cache
        )
        fluid_result = engine.run(window, summaries)
        fluid_seconds = time.perf_counter() - t_fl
        windows.append(
            WindowValidation(
                t0=t0,
                width=window_seconds,
                n_misses=window.n_requests,
                event_mean=event_result.mean_response_time(),
                fluid_mean=fluid_result.miss_mean_response_time(),
                event_seconds=event_seconds,
                fluid_seconds=fluid_seconds,
            )
        )
    return FluidValidation(windows=tuple(windows))
