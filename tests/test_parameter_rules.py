"""One validation boundary: each parameter rule is written once.

The rules for processor counts, other counts (pools, regions, plate
attempts, requests, retry budgets), failure probability, storage
capacity, link bandwidth and finite non-negative (or positive) floats
each live in one helper (``repro.sim.resources`` and
``repro.sim.failures``), and every entry point that accepts such a
parameter calls it.  Three checks keep it that way:

* statically, each rule message has exactly one ``raise`` site under
  ``src/repro`` (the scan parses every module with :mod:`ast`), so the
  boundary cannot grow copies again;
* every entry point rejects the inputs that used to slip through with
  its rule's one ``ValueError``;
* the event engine and the fast kernel agree on arbitrary, possibly
  invalid, parameters: equal results, or the same exception type and
  message.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from repro.core.estimate import makespan_bounds
from repro.core.plans import ExecutionPlan
from repro.grid.plan import GridPlan
from repro.montage.campaign import plan_whole_sky_campaign
from repro.montage.generator import montage_workflow
from repro.montage.sky import region
from repro.core.tradeoff import geometric_processors
from repro.provisioning import (
    advise_plan,
    best_weighted,
    candidate_plans,
    cheapest_within_deadline,
    fastest_within_budget,
    simulate_bursting,
)
from repro.service.arrivals import (
    ServiceRequest,
    poisson_arrival_array,
    request_stream,
    uniform_arrivals,
)
from repro.service.cache import ZipfPopularity
from repro.service.capacity import plan_capacity, plan_capacity_at_scale
from repro.service.portal import MontagePortal, MosaicRequest
from repro.service.scale import (
    FluidServiceEngine,
    montage_traffic,
    sample_traffic,
)
from repro.sim import simulate
from repro.sim.executor import ExecutionEnvironment
from repro.sim.failures import FailureModel
from repro.sim.kernel import KernelConfig, run_monte_carlo
from repro.sim.resources import (
    NetworkLink,
    ProcessorPool,
    Storage,
    size_units,
)
from repro.sweep.job import FailureSpec
from repro.workflow.analysis import communication_to_computation_ratio
from tests.strategies import simulation_parameters, workflows

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The text of each rule's message (the part every raise site shares).
RULE_MESSAGES = (
    "need at least one processor",
    "n_processors must be an integer",
    "failure probability must be in",
    "capacity must be",
    "bandwidth must be positive",
    "must be finite and >= 0",
    "must be finite and > 0",
    # counts, retry budgets included: ``check_count(..., minimum=)``
    "must be an integer >= ",
)


def raise_sites(sources: dict[str, str]) -> dict[str, list[str]]:
    """Rule message -> ``file:line`` of each ``raise`` whose string
    literals (f-string parts included) contain it."""
    sites: dict[str, list[str]] = {message: [] for message in RULE_MESSAGES}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, name)):
            if not isinstance(node, ast.Raise):
                continue
            texts = [
                sub.value for sub in ast.walk(node)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            ]
            for message in RULE_MESSAGES:
                if any(message in text for text in texts):
                    sites[message].append(f"{name}:{node.lineno}")
    return sites


def package_sources() -> dict[str, str]:
    return {
        str(path.relative_to(PACKAGE.parent)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_scan_counts_every_copy():
    source = (
        "def f(n, x):\n"
        "    if n < 1:\n"
        "        raise ValueError(f'need at least one processor, got {n}')\n"
        "    if not x > 0:\n"
        "        raise ValueError(f'x must be finite and > 0, got {x}')\n"
        "    raise ValueError('need at least one processor')\n"
    )
    sites = raise_sites({"m.py": source})
    assert sorted(sites["need at least one processor"]) == ["m.py:3", "m.py:6"]
    assert sites["must be finite and > 0"] == ["m.py:5"]
    assert sites["capacity must be"] == []


def test_each_rule_message_has_one_raise_site():
    sites = raise_sites(package_sources())
    wrong = {m: s for m, s in sites.items() if len(s) != 1}
    assert not wrong, f"rule messages without exactly one raise site: {wrong}"


# --------------------------------------------------------------------- #
# every entry point applies the rule
# --------------------------------------------------------------------- #
NAN = math.nan
ONE_DEGREE = montage_workflow(1.0)
ENV = ExecutionEnvironment(n_processors=4, record_trace=False)
REQUESTS = [ServiceRequest("r0", ONE_DEGREE, 0.0)]
M17 = region("M17")


def small_sample():
    return sample_traffic(montage_traffic(1_000.0, n_regions=10))


def candidates():
    return candidate_plans(ONE_DEGREE, processors=[4])


REJECTED = {
    "plan-P2.5": (lambda: ExecutionPlan.provisioned(2.5),
                  "n_processors must be an integer, got 2.5"),
    "plan-Pnan": (lambda: ExecutionPlan.provisioned(NAN),
                  "n_processors must be an integer, got nan"),
    "fluid-P2.5": (lambda: FluidServiceEngine(2.5),
                   "n_processors must be an integer, got 2.5"),
    "fluid-epoch-nan": (lambda: FluidServiceEngine(4, epoch_seconds=NAN),
                        "epoch_seconds must be finite and > 0, got nan"),
    "bounds-bw-1": (lambda: makespan_bounds(ONE_DEGREE, 4, -1),
                    "bandwidth must be positive, got -1"),
    "bounds-Pnan": (lambda: makespan_bounds(ONE_DEGREE, NAN),
                    "n_processors must be an integer, got nan"),
    "ccr-nan": (lambda: communication_to_computation_ratio(ONE_DEGREE, NAN),
                "bandwidth must be positive, got nan"),
    "storage-nan": (lambda: Storage(capacity_bytes=NAN),
                    "capacity must be positive or None, got nan"),
    "storage-inf": (lambda: Storage(capacity_bytes=math.inf),
                    "capacity must be positive or None, got inf"),
    # Sizes enter the storage ledger through one conversion: a NaN
    # reservation was once refused silently (a bogus "capacity too small"
    # deadlock), a NaN object made bytes_used NaN and inf was stored.
    "storage-reserve-nan": (lambda: Storage(10.0).reserve(size_units(NAN)),
                            "size_bytes must be finite and >= 0, got nan"),
    "storage-add-nan": (lambda: Storage().add("a", NAN, 0.0),
                        "size_bytes must be finite and >= 0, got nan"),
    "storage-add-inf": (lambda: Storage(10.0).add("b", math.inf, 0.0),
                        "size_bytes must be finite and >= 0, got inf"),
    "storage-add-neg": (lambda: Storage().add("c", -1.0, 0.0),
                        "size_bytes must be finite and >= 0, got -1.0"),
    "link-nan": (lambda: NetworkLink(NAN),
                 "bandwidth must be positive, got nan"),
    "pool-2.5": (lambda: ProcessorPool(2.5),
                 "n_processors must be an integer, got 2.5"),
    "model-retries-nan": (lambda: FailureModel(0.3, max_retries=NAN),
                          "max_retries must be an integer >= 0, got nan"),
    "spec-retries-nan": (lambda: FailureSpec(0.3, max_retries=NAN),
                         "max_retries must be an integer >= 0, got nan"),
    "spec-p1": (lambda: FailureSpec(1.0),
                "failure probability must be in [0, 1); got 1.0"),
    "grid-retries-2.5": (
        lambda: GridPlan(plates=(ONE_DEGREE,), processors=(2,),
                         max_retries=2.5),
        "max_retries must be an integer >= 0, got 2.5",
    ),
    "montecarlo-retries-nan": (
        lambda: run_monte_carlo(ONE_DEGREE, KernelConfig(ENV), [0.3], [0],
                                max_retries=NAN),
        "max_retries must be an integer >= 0, got nan",
    ),
    # Counts: a float or bool once ran as a fractional or single pool.
    "whole-sky-pools-2.5": (lambda: plan_whole_sky_campaign(n_pools=2.5),
                            "n_pools must be an integer >= 1, got 2.5"),
    "whole-sky-pools-True": (lambda: plan_whole_sky_campaign(n_pools=True),
                             "n_pools must be an integer >= 1, got True"),
    "zipf-regions-True": (lambda: ZipfPopularity(True),
                          "n_regions must be an integer >= 1, got True"),
    "zipf-regions-0": (lambda: ZipfPopularity(0),
                       "n_regions must be an integer >= 1, got 0"),
    "traffic-regions-True": (
        lambda: montage_traffic(1_000.0, n_regions=True),
        "n_regions must be an integer >= 1, got True",
    ),
    # Arrivals: NaN once reached numpy's int conversion, inf overflowed,
    # and a NaN or inf interval gave NaN arrival times.
    "poisson-rate-nan": (lambda: poisson_arrival_array(NAN, 10.0, 0),
                         "rate_per_second must be finite and > 0, got nan"),
    "poisson-rate-inf": (lambda: poisson_arrival_array(math.inf, 10.0, 0),
                         "rate_per_second must be finite and > 0, got inf"),
    "poisson-horizon-inf": (
        lambda: poisson_arrival_array(1.0, math.inf, 0),
        "horizon_seconds must be finite and > 0, got inf",
    ),
    "uniform-interval-nan": (lambda: uniform_arrivals(3, NAN),
                             "interval_seconds must be finite and >= 0, got nan"),
    "uniform-interval-inf": (
        lambda: uniform_arrivals(3, math.inf),
        "interval_seconds must be finite and >= 0, got inf",
    ),
    "request-arrival-nan": (
        lambda: ServiceRequest("r0", ONE_DEGREE, NAN),
        "request 'r0' arrival_time must be finite and >= 0, got nan",
    ),
    # A bool request count once gave one arrival, a float failed in range.
    "uniform-count-True": (lambda: uniform_arrivals(True, 60.0),
                           "n_requests must be an integer >= 0, got True"),
    "uniform-count-2.5": (lambda: uniform_arrivals(2.5, 60.0),
                          "n_requests must be an integer >= 0, got 2.5"),
    "uniform-count-neg": (lambda: uniform_arrivals(-1, 60.0),
                          "n_requests must be an integer >= 0, got -1"),
    # A non-finite weight once failed inside numpy's sampler.
    "stream-weight-inf": (
        lambda: request_stream([0.0, 1.0], [ONE_DEGREE, ONE_DEGREE],
                               weights=[math.inf, 1.0]),
        "weight must be finite and >= 0, got inf",
    ),
    "stream-weight-nan": (
        lambda: request_stream([0.0, 1.0], [ONE_DEGREE, ONE_DEGREE],
                               weights=[NAN, 1.0]),
        "weight must be finite and >= 0, got nan",
    ),
    # A NaN retention silently disabled the portal's cache; a NaN arrival
    # failed later in serve() under an internal request id.
    "portal-retention-nan": (
        lambda: MontagePortal(4, cache_retention_months=NAN),
        "cache_retention_months must be finite and >= 0, got nan",
    ),
    # A float pool, an unknown mode or a zero bandwidth once failed only
    # inside serve(), after the cache pass had run.
    "portal-processors-2.5": (lambda: MontagePortal(2.5),
                              "n_processors must be an integer, got 2.5"),
    "portal-mode-bogus": (lambda: MontagePortal(4, data_mode="bogus"),
                          "'bogus' is not a valid DataMode"),
    "portal-bandwidth-0": (
        lambda: MontagePortal(4, bandwidth_bytes_per_sec=0.0),
        "bandwidth must be positive, got 0.0",
    ),
    "portal-arrival-nan": (
        lambda: MosaicRequest(M17, 1.0, NAN),
        "arrival_time must be finite and >= 0, got nan",
    ),
    "portal-degree-nan": (
        lambda: MosaicRequest(M17, NAN, 0.0),
        "mosaic degree must be finite and > 0, got nan",
    ),
    # Objectives, deadlines and budgets: NaN was silently "infeasible"
    # after a full search, and an inf objective chose one processor.
    "capacity-objective-nan": (
        lambda: plan_capacity(REQUESTS, NAN, max_processors=64),
        "objective_p95_seconds must be finite and > 0, got nan",
    ),
    "capacity-objective-inf": (
        lambda: plan_capacity(REQUESTS, math.inf),
        "objective_p95_seconds must be finite and > 0, got inf",
    ),
    # A NaN, zero or fractional search cap once ended the search early.
    "capacity-max-nan": (
        lambda: plan_capacity(REQUESTS, 3600.0, max_processors=NAN),
        "max_processors must be an integer >= 1, got nan",
    ),
    "capacity-max-2.5": (
        lambda: plan_capacity(REQUESTS, 3600.0, max_processors=2.5),
        "max_processors must be an integer >= 1, got 2.5",
    ),
    "scale-capacity-max-0": (
        lambda: plan_capacity_at_scale(small_sample(), 3600.0,
                                       max_processors=0),
        "max_processors must be an integer >= 1, got 0",
    ),
    "scale-capacity-objective-nan": (
        lambda: plan_capacity_at_scale(small_sample(), NAN),
        "objective_p95_seconds must be finite and > 0, got nan",
    ),
    "advise-deadline-nan": (
        lambda: advise_plan(ONE_DEGREE, deadline_seconds=NAN),
        "deadline_seconds must be finite and > 0, got nan",
    ),
    "advise-budget-nan": (
        lambda: advise_plan(ONE_DEGREE, budget_dollars=NAN),
        "budget_dollars must be finite and > 0, got nan",
    ),
    "bursting-objective-nan": (
        lambda: simulate_bursting(REQUESTS, 4, objective_seconds=NAN),
        "objective_seconds must be finite and > 0, got nan",
    ),
    # The optimizer's own "> 0" checks let NaN through as "infeasible".
    "optimizer-deadline-nan": (
        lambda: cheapest_within_deadline(candidates(), NAN),
        "deadline_seconds must be finite and > 0, got nan",
    ),
    "optimizer-budget-nan": (
        lambda: fastest_within_budget(candidates(), NAN),
        "budget_dollars must be finite and > 0, got nan",
    ),
    "optimizer-weight-nan": (
        lambda: best_weighted(candidates(), cost_weight=NAN),
        "cost_weight must be finite and >= 0, got nan",
    ),
    # A fractional, bool or NaN cap once gave a short or empty ladder.
    "geometric-max-2.5": (lambda: geometric_processors(2.5),
                          "max_processors must be an integer >= 1, got 2.5"),
    "geometric-max-True": (lambda: geometric_processors(True),
                           "max_processors must be an integer >= 1, got True"),
    "geometric-max-nan": (lambda: geometric_processors(NAN),
                          "max_processors must be an integer >= 1, got nan"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_entry_point_raises_the_rule(case):
    call, message = REJECTED[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# --------------------------------------------------------------------- #
# the engines agree on bad input
# --------------------------------------------------------------------- #
VALID = {
    "n_processors": 8,
    "data_mode": "regular",
    "bandwidth_bytes_per_sec": 1.25e6,
    "storage_capacity_bytes": None,
    "task_overhead_seconds": 0.0,
    "compute_ready_seconds": 0.0,
    "failures": None,
}


def outcome(wf, params: dict, kernel: str):
    """The run's result, or the type and message of what it raised."""
    kwargs = dict(params)
    failures = kwargs.pop("failures")
    try:
        if failures is not None:
            probability, seed, max_retries = failures
            kwargs["failures"] = FailureModel(
                probability, seed=seed, max_retries=max_retries
            )
        return simulate(wf, record_trace=False, kernel=kernel, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared across engines
        return type(exc), str(exc)


@pytest.mark.property
@settings(max_examples=60, deadline=None)
@given(wf=workflows(max_tasks=8), params=simulation_parameters())
@example(wf=ONE_DEGREE, params={**VALID, "n_processors": 2.5})
@example(wf=ONE_DEGREE, params={**VALID, "n_processors": NAN})
@example(wf=ONE_DEGREE, params={**VALID, "bandwidth_bytes_per_sec": NAN})
@example(wf=ONE_DEGREE, params={**VALID, "bandwidth_bytes_per_sec": -1.0})
@example(wf=ONE_DEGREE, params={**VALID, "storage_capacity_bytes": NAN})
@example(wf=ONE_DEGREE, params={**VALID, "storage_capacity_bytes": math.inf})
@example(wf=ONE_DEGREE, params={**VALID, "failures": (0.3, 0, NAN)})
@example(wf=ONE_DEGREE, params={**VALID, "failures": (0.3, 0, 2)})
def test_event_and_fast_agree_on_any_parameters(wf, params):
    assert outcome(wf, params, "event") == outcome(wf, params, "fast")
