"""The mosaic service layer (paper Figure 2, operationalized).

The paper's Question 2 premise is a *service*: "the application provisions
a certain amount of resources over a period of time to sustain the
expected computational load", shares that pool across user requests, and
charges each request for what it uses.  The paper prices one request at a
time; this subpackage simulates the whole service:

* :mod:`repro.service.arrivals` — request streams (deterministic and
  Poisson arrival processes, mixed mosaic sizes);
* :mod:`repro.service.simulator` — many workflow executions multiplexed
  over one shared processor pool in a single event engine, with
  per-request response times and cost attribution;
* :mod:`repro.service.economics` — :class:`ServiceEconomics`, the one
  bill both engines return: provisioned pool cost versus summed
  per-request on-demand charges, hit serving and cache rent, cost per
  mosaic, utilization;
* :mod:`repro.service.capacity` — pool sizing against a response-time
  objective, on either engine, with one candidate type;
* :mod:`repro.service.cache` — the paper's Question-3 recommendation
  ("save popular mosaics of the sky, areas such as those around Orion")
  as a working result cache with popularity-driven request streams and a
  retention-policy cost model;
* :mod:`repro.service.summaries` — per-workflow-class resource profiles
  (makespan/busy/storage vs pool share) precomputed by the fast kernel
  and memoized in the sweep cache;
* :mod:`repro.service.scale` — the fluid-approximation engine: 10⁵–10⁷
  requests/month simulated in seconds from class summaries, an
  epoch-stepped M/G/c + fluid-backlog queueing model, and a vectorized
  Zipf/TTL result-cache model, differentially validated against the
  event simulator on subsampled traffic windows.
"""

from repro.service.arrivals import (
    ServiceRequest,
    poisson_arrivals,
    uniform_arrivals,
    request_stream,
)
from repro.service.simulator import (
    RequestOutcome,
    ServiceResult,
    ServiceSimulator,
)
from repro.service.economics import ServiceEconomics, service_economics
from repro.service.capacity import (
    CandidateOutcome,
    CapacityPlan,
    plan_capacity,
    plan_capacity_at_scale,
)
from repro.service.summaries import (
    ClassSummary,
    summarize_class,
    summarize_mix,
)
from repro.service.scale import (
    FluidServiceEngine,
    FluidServiceResult,
    FluidValidation,
    MixComponent,
    TrafficSample,
    TrafficSpec,
    WindowValidation,
    event_economics,
    montage_traffic,
    replay_misses,
    resolve_service_engine,
    sample_traffic,
    validate_fluid,
)
from repro.service.portal import (
    Fulfillment,
    MontagePortal,
    MosaicRequest,
    PortalReport,
)
from repro.service.cache import (
    CacheSimulationResult,
    MosaicCache,
    RegionRequest,
    ZipfPopularity,
    popularity_stream,
    simulate_cache_policy,
    sweep_retention,
)

__all__ = [
    "ServiceRequest",
    "poisson_arrivals",
    "uniform_arrivals",
    "request_stream",
    "RequestOutcome",
    "ServiceResult",
    "ServiceSimulator",
    "ServiceEconomics",
    "service_economics",
    "CandidateOutcome",
    "CapacityPlan",
    "plan_capacity",
    "plan_capacity_at_scale",
    "ClassSummary",
    "summarize_class",
    "summarize_mix",
    "FluidServiceEngine",
    "FluidServiceResult",
    "FluidValidation",
    "MixComponent",
    "TrafficSample",
    "TrafficSpec",
    "WindowValidation",
    "event_economics",
    "montage_traffic",
    "replay_misses",
    "resolve_service_engine",
    "sample_traffic",
    "validate_fluid",
    "CacheSimulationResult",
    "MosaicCache",
    "RegionRequest",
    "ZipfPopularity",
    "popularity_stream",
    "simulate_cache_policy",
    "sweep_retention",
    "Fulfillment",
    "MontagePortal",
    "MosaicRequest",
    "PortalReport",
]
