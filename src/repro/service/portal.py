"""The Montage portal: the paper's Figure 2, end to end.

"The user submits a request to the application, in the case of Montage
via a portal.  Based on the request, the application generates a workflow
that has to be executed using either local or cloud computing resources."
This façade composes the whole stack the way that figure draws it:

1. a user request names a **sky region** and a mosaic size;
2. the portal checks its **mosaic cache** (the Question-3 recommendation:
   popular products are stored rather than recomputed);
3. misses become **workflows** (the calibrated Montage generator) and run
   on the portal's shared **provisioned pool** (Question 2's deployment);
4. every fulfillment is **priced**: generation at on-demand rates, cache
   hits at the mosaic's outbound transfer, plus the cache's storage rent;
   optionally the survey inputs are pre-staged in the cloud (Question 2b)
   so misses shed their input-transfer fee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costs import compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008, PricingModel
from repro.montage.generator import montage_workflow
from repro.montage.sky import SkyRegion, region as lookup_region
from repro.service.arrivals import ServiceRequest
from repro.service.cache import MosaicCache
from repro.service.simulator import ServiceSimulator
from repro.sim.executor import DEFAULT_BANDWIDTH
from repro.sim.resources import check_finite
from repro.util.units import MONTH

__all__ = ["MosaicRequest", "Fulfillment", "PortalReport", "MontagePortal"]


@dataclass(frozen=True)
class MosaicRequest:
    """A user request as the portal receives it."""

    region: SkyRegion
    degree: float
    arrival_time: float

    def __post_init__(self) -> None:
        check_finite("mosaic degree", self.degree, positive=True)
        check_finite("arrival_time", self.arrival_time)

    @property
    def product_key(self) -> tuple[str, float]:
        return (self.region.name, self.degree)


@dataclass(frozen=True)
class Fulfillment:
    """How one request was served."""

    request: MosaicRequest
    cache_hit: bool
    response_time: float
    cost: float


@dataclass
class PortalReport:
    """One operating period of the portal."""

    fulfillments: list[Fulfillment]
    cache_storage_cost: float
    pool_processors: int
    pool_utilization: float

    @property
    def n_requests(self) -> int:
        return len(self.fulfillments)

    @property
    def hit_rate(self) -> float:
        if not self.fulfillments:
            return 0.0
        return sum(f.cache_hit for f in self.fulfillments) / len(
            self.fulfillments
        )

    @property
    def total_cost(self) -> float:
        """Request costs plus the cache's storage rent."""
        return (
            sum(f.cost for f in self.fulfillments) + self.cache_storage_cost
        )

    @property
    def cost_per_request(self) -> float:
        if not self.fulfillments:
            return 0.0
        return self.total_cost / len(self.fulfillments)

    def mean_response_time(self) -> float:
        if not self.fulfillments:
            return 0.0
        return sum(f.response_time for f in self.fulfillments) / len(
            self.fulfillments
        )


class MontagePortal:
    """The mosaic service, composed.

    Parameters
    ----------
    n_processors:
        The shared provisioned pool (Question-2 style; generation is
        priced at on-demand rates).
    cache_retention_months:
        TTL of generated mosaics in the portal's cloud cache; 0 disables
        caching (every request recomputes).
    prestage_inputs:
        If True, survey inputs are resident in the cloud (Question 2b):
        generation sheds its input-transfer fee.  The archive's own
        storage rent is the operator's separate, request-independent bill
        (see :func:`repro.core.economics.archive_economics`) and is not
        attributed per request here.
    """

    def __init__(
        self,
        n_processors: int,
        data_mode: str = "cleanup",
        pricing: PricingModel = AWS_2008,
        cache_retention_months: float = 0.0,
        prestage_inputs: bool = False,
        bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
    ) -> None:
        check_finite("cache_retention_months", cache_retention_months)
        self.n_processors = n_processors
        self.data_mode = data_mode
        self.pricing = pricing
        self.cache_retention_months = cache_retention_months
        self.prestage_inputs = prestage_inputs
        self.bandwidth = bandwidth_bytes_per_sec
        self._workflow_cache: dict[float, object] = {}

    # ------------------------------------------------------------------ #
    def request(
        self, region_name: str, degree: float, arrival_time: float = 0.0
    ) -> MosaicRequest:
        """Convenience constructor resolving a catalog region by name."""
        return MosaicRequest(
            region=lookup_region(region_name),
            degree=degree,
            arrival_time=arrival_time,
        )

    def _workflow_for(self, degree: float):
        if degree not in self._workflow_cache:
            self._workflow_cache[degree] = montage_workflow(degree)
        return self._workflow_cache[degree]

    # ------------------------------------------------------------------ #
    def serve(self, requests: list[MosaicRequest]) -> PortalReport:
        """Serve a period of requests and account for every dollar."""
        ordered = sorted(requests, key=lambda r: r.arrival_time)
        horizon = ordered[-1].arrival_time if ordered else 0.0

        # Pass 1 — resolve the cache (one cache per product size; shared
        # regions hit across sizes are distinct products).
        caches: dict[float, MosaicCache] = {}
        hits: list[MosaicRequest] = []
        misses: list[MosaicRequest] = []
        for req in ordered:
            wf = self._workflow_for(req.degree)
            cache = caches.get(req.degree)
            if cache is None:
                cache = MosaicCache(
                    mosaic_bytes=wf.file("mosaic.fits").size_bytes,
                    retention_seconds=self.cache_retention_months * MONTH,
                    pricing=self.pricing,
                )
                caches[req.degree] = cache
            # Key by product; MosaicCache keys by region argument.
            if cache.lookup(req.product_key, req.arrival_time):
                hits.append(req)
            else:
                misses.append(req)

        # Pass 2 — run the misses on the shared pool.
        generated: dict[str, Fulfillment] = {}
        pool_utilization = 0.0
        if misses:
            service_requests = [
                ServiceRequest(
                    request_id=f"portal-{i:05d}",
                    workflow=self._workflow_for(req.degree),
                    arrival_time=req.arrival_time,
                )
                for i, req in enumerate(misses)
            ]
            sim = ServiceSimulator(
                self.n_processors,
                self.data_mode,
                bandwidth_bytes_per_sec=self.bandwidth,
            )
            result = sim.run(service_requests)
            pool_utilization = result.pool_utilization()
            plan = ExecutionPlan.on_demand(self.n_processors, self.data_mode)
            by_id = {o.request.request_id: o for o in result.outcomes}
            for i, req in enumerate(misses):
                outcome = by_id[f"portal-{i:05d}"]
                cost = compute_cost(outcome.result, self.pricing, plan)
                dollars = cost.total
                if self.prestage_inputs:
                    dollars -= cost.transfer_in_cost
                generated[f"portal-{i:05d}"] = Fulfillment(
                    request=req,
                    cache_hit=False,
                    response_time=outcome.response_time,
                    cost=dollars,
                )

        # Pass 3 — price the hits (serve the stored mosaic to the user).
        fulfillments: list[Fulfillment] = list(generated.values())
        for req in hits:
            mosaic_bytes = self._workflow_for(req.degree).file(
                "mosaic.fits"
            ).size_bytes
            fulfillments.append(
                Fulfillment(
                    request=req,
                    cache_hit=True,
                    response_time=mosaic_bytes / self.bandwidth,
                    cost=self.pricing.transfer_out_cost(mosaic_bytes),
                )
            )

        storage_rent = 0.0
        for cache in caches.values():
            cache.close(max(horizon, 0.0))
            storage_rent += cache.storage_cost
        fulfillments.sort(key=lambda f: f.request.arrival_time)
        return PortalReport(
            fulfillments=fulfillments,
            cache_storage_cost=storage_rent,
            pool_processors=self.n_processors,
            pool_utilization=pool_utilization,
        )
