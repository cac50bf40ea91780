"""Caching generated mosaics in the cloud (paper Question 3).

The paper concludes that a generated mosaic is worth archiving if the same
request is likely to repeat within ~2 years ("it would be cost effective
to save popular mosaics of the sky, areas such as those around Orion").
This module turns that remark into a working model:

* a **Zipf popularity** distribution over sky regions (a few regions like
  Orion draw most requests);
* a **mosaic cache** in cloud storage with a time-to-live retention
  policy: a cached mosaic is kept for ``retention_months`` past its last
  request and accrues $/GB-month the whole time;
* a cost simulation over a multi-month request stream: a cache hit serves
  the stored mosaic (paying only its outbound transfer), a miss recomputes
  the workflow (CPU + data management) and optionally inserts;
* :func:`sweep_retention` compares policies, exposing the trade-off the
  paper's break-even horizon implies — retention far beyond the
  store-vs-recompute horizon wastes storage on unpopular regions, zero
  retention recomputes the popular ones over and over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pricing import AWS_2008, PricingModel
from repro.service.arrivals import poisson_arrival_array
from repro.sim.resources import check_count, check_finite
from repro.util.units import MONTH

__all__ = [
    "ZipfPopularity",
    "RegionRequest",
    "MosaicCache",
    "CacheSimulationResult",
    "simulate_cache_policy",
    "sweep_retention",
]


def zipf_probabilities(n_regions: int, exponent: float) -> np.ndarray:
    """Rank *k* (0-based) of ``n_regions`` has probability proportional
    to ``1 / (k + 1) ** exponent``."""
    weights = 1.0 / np.arange(1, n_regions + 1, dtype=float) ** exponent
    return weights / weights.sum()


class ZipfPopularity:
    """Zipf-distributed sky-region popularity.

    Region ranks are drawn from :func:`zipf_probabilities`.
    """

    def __init__(
        self, n_regions: int, exponent: float = 1.0, seed: int = 0
    ) -> None:
        check_count("n_regions", n_regions)
        check_finite("zipf exponent", exponent)
        self.n_regions = n_regions
        self.exponent = exponent
        self._probabilities = zipf_probabilities(n_regions, exponent)
        self._rng = np.random.default_rng(seed)

    def probability(self, region: int) -> float:
        return float(self._probabilities[region])

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` region ranks."""
        if n < 0:
            raise ValueError(f"negative sample count {n}")
        return self._rng.choice(
            self.n_regions, size=n, p=self._probabilities
        )


@dataclass(frozen=True)
class RegionRequest:
    """One mosaic request: a region at a time (in seconds)."""

    time: float
    region: int


def popularity_stream(
    popularity: ZipfPopularity,
    requests_per_month: float,
    horizon_months: float,
    seed: int = 0,
) -> list[RegionRequest]:
    """Poisson request stream over regions (deterministic per seed)."""
    # Checked under the caller's names before they are converted to seconds.
    check_finite("requests_per_month", requests_per_month, positive=True)
    check_finite("horizon_months", horizon_months, positive=True)
    times = poisson_arrival_array(
        requests_per_month / MONTH, horizon_months * MONTH, seed
    ).tolist()
    regions = popularity.sample(len(times)).tolist()
    return [RegionRequest(time=t, region=r) for t, r in zip(times, regions)]


@dataclass
class MosaicCache:
    """TTL result cache over cloud storage.

    ``retention_seconds`` past the last request, a cached mosaic expires
    (and stops accruing storage fees).  ``retention_seconds == 0`` caches
    nothing.
    """

    mosaic_bytes: float
    retention_seconds: float
    pricing: PricingModel = AWS_2008
    _last_access: dict[int, float] = field(default_factory=dict)
    _storage_byte_seconds: float = 0.0
    hits: int = 0
    misses: int = 0

    def lookup(self, region: int, now: float) -> bool:
        """Serve or miss; updates residency accounting and the cache."""
        last = self._last_access.get(region)
        if last is not None:
            if now - last <= self.retention_seconds:
                # Hit: it has been resident since the last access.
                self._storage_byte_seconds += (now - last) * self.mosaic_bytes
                self._last_access[region] = now
                self.hits += 1
                return True
            # Expired between accesses: it was resident for the full TTL.
            self._storage_byte_seconds += (
                self.retention_seconds * self.mosaic_bytes
            )
            del self._last_access[region]
        self.misses += 1
        if self.retention_seconds > 0:
            self._last_access[region] = now
        return False

    def close(self, horizon: float) -> None:
        """Account residual residency for entries alive at the horizon."""
        for last in self._last_access.values():
            resident = min(self.retention_seconds, max(0.0, horizon - last))
            self._storage_byte_seconds += resident * self.mosaic_bytes
        self._last_access.clear()

    @property
    def storage_cost(self) -> float:
        return self.pricing.storage_cost(self._storage_byte_seconds)


@dataclass(frozen=True)
class CacheSimulationResult:
    """Cost of serving a request stream under one retention policy."""

    retention_months: float
    n_requests: int
    hits: int
    misses: int
    compute_cost: float
    serve_cost: float
    storage_cost: float

    @property
    def hit_rate(self) -> float:
        return self.hits / self.n_requests if self.n_requests else 0.0

    @property
    def total_cost(self) -> float:
        return self.compute_cost + self.serve_cost + self.storage_cost

    @property
    def cost_per_request(self) -> float:
        return self.total_cost / self.n_requests if self.n_requests else 0.0


def simulate_cache_policy(
    requests: list[RegionRequest],
    horizon_months: float,
    retention_months: float,
    generation_cost: float,
    mosaic_bytes: float,
    pricing: PricingModel = AWS_2008,
) -> CacheSimulationResult:
    """Total cost of one retention policy over a request stream.

    ``generation_cost`` is the full cost of computing a mosaic from the
    base data (CPU + data management, e.g. the paper's $2.21 for a 2°
    mosaic); a cache hit pays only the mosaic's outbound transfer.
    """
    # A NaN or non-positive horizon would silently drop the residency
    # still to bill at the horizon; a NaN size would give a NaN total.
    check_finite("horizon_months", horizon_months, positive=True)
    check_finite("retention_months", retention_months)
    check_finite("generation_cost", generation_cost)
    check_finite("mosaic_bytes", mosaic_bytes)
    cache = MosaicCache(
        mosaic_bytes=mosaic_bytes,
        retention_seconds=retention_months * MONTH,
        pricing=pricing,
    )
    serve_unit = pricing.transfer_out_cost(mosaic_bytes)
    compute_cost = 0.0
    serve_cost = 0.0
    for req in sorted(requests, key=lambda r: r.time):
        if cache.lookup(req.region, req.time):
            serve_cost += serve_unit
        else:
            compute_cost += generation_cost
    cache.close(horizon_months * MONTH)
    return CacheSimulationResult(
        retention_months=retention_months,
        n_requests=len(requests),
        hits=cache.hits,
        misses=cache.misses,
        compute_cost=compute_cost,
        serve_cost=serve_cost,
        storage_cost=cache.storage_cost,
    )


def sweep_retention(
    requests: list[RegionRequest],
    horizon_months: float,
    retention_grid: list[float],
    generation_cost: float,
    mosaic_bytes: float,
    pricing: PricingModel = AWS_2008,
) -> list[CacheSimulationResult]:
    """Evaluate a grid of retention policies on the same stream."""
    return [
        simulate_cache_policy(
            requests,
            horizon_months,
            retention,
            generation_cost,
            mosaic_bytes,
            pricing,
        )
        for retention in retention_grid
    ]
