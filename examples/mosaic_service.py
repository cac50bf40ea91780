"""Operating the Montage service on the cloud, end to end.

Extends the paper's Question 2 from "what does one request cost" to
"how do I run the service": simulate a day of Poisson mosaic traffic on a
shared pool, size the pool against a response-time objective, and decide
which generated mosaics to keep cached (the paper's Question-3
recommendation about popular regions like Orion).

Run:  python examples/mosaic_service.py
"""

from repro.montage import montage_1_degree, montage_2_degree
from repro.service import (
    ServiceSimulator,
    ZipfPopularity,
    plan_capacity,
    poisson_arrivals,
    popularity_stream,
    request_stream,
    service_economics,
    sweep_retention,
)
from repro.util import HOUR, MB, format_duration, format_money


def main() -> None:
    # ------------------------------------------------------- traffic model
    day = 24.0 * HOUR
    arrivals = poisson_arrivals(
        rate_per_second=20.0 / day, horizon_seconds=day, seed=42
    )
    requests = request_stream(
        arrivals,
        [montage_1_degree(), montage_2_degree()],
        seed=42,
        weights=[3.0, 1.0],  # small mosaics dominate
    )
    print(f"One simulated day: {len(requests)} requests "
          f"(3:1 mix of 1- and 2-degree mosaics)\n")

    # --------------------------------------------------------- pool sizing
    objective = 1.5 * HOUR
    plan = plan_capacity(requests, objective_p95_seconds=objective,
                         period_seconds=day)
    print(f"Smallest pool with p95 response <= "
          f"{format_duration(objective)}: {plan.n_processors} processors")
    for cand in plan.candidates:
        marker = "->" if (plan.chosen and
                          cand.n_processors == plan.n_processors) else "  "
        print(
            f"  {marker} P={cand.n_processors:<4} "
            f"p95={format_duration(cand.p95_response_time):>9}  "
            f"util={cand.economics.pool_utilization:>4.0%}  "
            f"$/req={format_money(cand.economics.cost_per_request)}"
        )

    # ------------------------------------------------- the chosen pool day
    result = ServiceSimulator(plan.n_processors, "cleanup").run(requests)
    # Requests arriving late in the day drain shortly after it; the pool
    # is held until the backlog clears.
    eco = service_economics(result, period_seconds=max(day, result.horizon))
    print(
        f"\nOperating the {plan.n_processors}-processor pool for the day: "
        f"pool bill {format_money(eco.total_cost)}, of which "
        f"{format_money(eco.idle_waste)} pays for idle processors; "
        f"resources-used accounting would charge "
        f"{format_money(eco.on_demand_total.total)}."
    )

    # ------------------------------------------------------ result caching
    print("\nShould generated mosaics be cached? (2-degree, 24 months of "
          "Zipf traffic)")
    popularity = ZipfPopularity(200, exponent=1.2, seed=7)
    stream = popularity_stream(popularity, 150.0, 24.0, seed=7)
    results = sweep_retention(
        stream, 24.0, [0.0, 3.0, 12.0, 24.0],
        generation_cost=2.21, mosaic_bytes=557.9 * MB,
    )
    for r in results:
        print(
            f"  retain {r.retention_months:>4g} mo: hit rate "
            f"{r.hit_rate:>4.0%}, total {format_money(r.total_cost)} "
            f"({format_money(r.cost_per_request)}/request)"
        )
    best = min(results, key=lambda r: r.total_cost)
    print(
        f"Best policy: keep mosaics {best.retention_months:g} months -> "
        f"{format_money(results[0].total_cost - best.total_cost)} saved vs "
        "always recomputing."
    )


if __name__ == "__main__":
    main()
