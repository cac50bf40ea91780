"""Ablation and sensitivity studies, as callable API.

Each study relaxes one idealization of the paper (or exercises one of its
future-work items / references) and returns structured rows plus a
rendered table; ``tests/experiments/test_ablations.py`` asserts each
study's finding on the 1° workload, and
``python -m repro report --extensions`` prints them all.

Studies
-------
- :func:`billing_granularity_study` — per-second vs instance-hour billing;
- :func:`vm_overhead_study` — startup/teardown billing vs pool width;
- :func:`fee_sensitivity_study` — mode ranking across fee structures
  (the paper's "Remote I/O could win" remark);
- :func:`link_contention_study` — GridSim dedicated vs FIFO link;
- :func:`failure_study` — retry cost of per-task failures (single seed);
- :func:`montecarlo_failure_study` — failure-cost *distributions*: mean
  and p95 makespan plus cost inflation with confidence intervals over
  ≥100 seeds per probability, via the fast kernel's
  :func:`repro.sim.kernel.run_monte_carlo`;
- :func:`scheduler_study` — ready-queue ordering robustness;
- :func:`storage_capacity_study` — finite storage admission control;
- :func:`clustering_study` — horizontal clustering vs job overhead;
- :func:`campaign_policy_study` — Monte Carlo cost/completion-time
  distributions of the campaign resubmission policies
  (:mod:`repro.campaign`), every provenance log reconciled by
  :func:`repro.audit.campaign.audit_campaign`;
- :func:`service_scale_study` — fluid-engine error and speedup vs the
  event simulator across traffic levels (:mod:`repro.service.scale`),
  each level differentially validated on subsampled windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audit import audit_campaign
from repro.campaign import (
    CampaignConfig,
    ProvenanceLog,
    run_campaign,
)
from repro.core.costs import compute_cost
from repro.core.plans import ExecutionPlan, VMOverhead
from repro.core.pricing import AWS_2008, STORAGE_HEAVY, PricingModel
from repro.experiments.question2a import MODES, run_question2a
from repro.experiments.report import format_table
from repro.grid.result import GridRow
from repro.sim.executor import ExecutionEnvironment
from repro.sim.kernel import KernelConfig, run_monte_carlo, summary_batch
from repro.sim.scheduler import ALL_ORDERINGS
from repro.montage import campaign_plates
from repro.sweep import FailureSpec, SimJob, run_jobs
from repro.sweep.cache import SimCache
from repro.util.units import (
    GB,
    format_bytes,
    format_duration,
    format_money,
)
from repro.workflow.clustering import cluster_workflow
from repro.workflow.dag import Workflow

__all__ = [
    "billing_granularity_study",
    "vm_overhead_study",
    "fee_sensitivity_study",
    "link_contention_study",
    "failure_study",
    "montecarlo_failure_study",
    "scheduler_study",
    "storage_capacity_study",
    "clustering_study",
    "campaign_policy_study",
    "service_scale_study",
    "all_studies",
]


@dataclass(frozen=True)
class StudyResult:
    """One study's structured rows and presentation."""

    name: str
    title: str
    headers: tuple[str, ...]
    rows: list[tuple]
    #: machine-readable rows, study-specific
    raw: list
    #: wall-clock measurements, kept out of :meth:`as_table` so the
    #: table is reproducible (the runner prints them on stderr)
    timings: str = ""

    def as_table(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


def billing_granularity_study(
    workflow: Workflow,
    processors: tuple[int, ...] = (1, 8, 32, 128),
    pricing: PricingModel = AWS_2008,
) -> StudyResult:
    """Continuous vs instance-hour CPU billing across pool widths."""
    hourly = pricing.with_quantum(cpu_quantum_seconds=3600.0)
    results = run_jobs([SimJob(workflow, p) for p in processors])
    raw = []
    for p, result in zip(processors, results):
        plan = ExecutionPlan.provisioned(p)
        raw.append(
            (
                p,
                result.makespan,
                compute_cost(result, pricing, plan).total,
                compute_cost(result, hourly, plan).total,
            )
        )
    return StudyResult(
        name="billing-granularity",
        title=f"Billing-granularity ablation — {workflow.name}, provisioned",
        headers=("procs", "time", "per-second $", "per-hour $", "inflation"),
        rows=[
            (p, format_duration(t), format_money(c), format_money(q),
             f"{q / c:.2f}x")
            for p, t, c, q in raw
        ],
        raw=raw,
    )


def vm_overhead_study(
    workflow: Workflow,
    processors: tuple[int, ...] = (1, 8, 32, 128),
    overhead: VMOverhead = VMOverhead(startup_seconds=120.0,
                                      teardown_seconds=30.0),
    pricing: PricingModel = AWS_2008,
) -> StudyResult:
    """VM startup/teardown billing as a function of pool width."""
    results = run_jobs([SimJob(workflow, p) for p in processors])
    raw = []
    for p, result in zip(processors, results):
        base = compute_cost(result, pricing, ExecutionPlan.provisioned(p))
        taxed = compute_cost(
            result, pricing, ExecutionPlan.provisioned(p, vm_overhead=overhead)
        )
        raw.append((p, base.total, taxed.total))
    return StudyResult(
        name="vm-overhead",
        title=(
            f"VM startup/teardown ablation — {workflow.name} "
            f"({overhead.total_seconds:g} s per instance)"
        ),
        headers=("procs", "no overhead $", "with overhead $", "delta $"),
        rows=[
            (p, format_money(b), format_money(t), format_money(t - b))
            for p, b, t in raw
        ],
        raw=raw,
    )


def fee_sensitivity_study(
    workflow: Workflow,
    pricings: tuple[PricingModel, ...] = (AWS_2008, STORAGE_HEAVY),
) -> StudyResult:
    """Data-management mode ranking under different fee structures."""
    base = run_question2a(workflow)
    raw = []
    for pricing in pricings:
        totals = {}
        for mode in MODES:
            m = base.metrics(mode)
            cpu_seconds = m.cpu_cost / AWS_2008.cpu_per_second
            totals[mode] = (
                pricing.cpu_cost(cpu_seconds)
                + pricing.storage_cost(m.storage_gb_hours * GB * 3600.0)
                + pricing.transfer_in_cost(m.bytes_in)
                + pricing.transfer_out_cost(m.bytes_out)
            )
        raw.append((pricing.name, totals))
    return StudyResult(
        name="fee-sensitivity",
        title=f"Fee-structure sensitivity — {workflow.name}, on-demand total",
        headers=("pricing", "remote-io $", "regular $", "cleanup $", "winner"),
        rows=[
            (
                name,
                format_money(totals["remote-io"]),
                format_money(totals["regular"]),
                format_money(totals["cleanup"]),
                min(totals, key=totals.get),
            )
            for name, totals in raw
        ],
        raw=raw,
    )


def link_contention_study(
    workflow: Workflow, processors: tuple[int, ...] = (1, 8, 128)
) -> StudyResult:
    """Dedicated (GridSim-faithful) vs FIFO-contended link."""
    results = run_jobs(
        [
            SimJob(workflow, p, link_contention=contended)
            for p in processors
            for contended in (False, True)
        ]
    )
    raw = [
        (p, results[2 * i].makespan, results[2 * i + 1].makespan)
        for i, p in enumerate(processors)
    ]
    return StudyResult(
        name="link-contention",
        title=f"Link-contention ablation — {workflow.name}, regular mode",
        headers=("procs", "dedicated", "contended", "slowdown"),
        rows=[
            (p, format_duration(f), format_duration(q), f"{q / f:.3f}x")
            for p, f, q in raw
        ],
        raw=raw,
    )


def failure_study(
    workflow: Workflow,
    probabilities: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10),
    n_processors: int = 16,
    pricing: PricingModel = AWS_2008,
    seed: int = 2008,
) -> StudyResult:
    """Cost and makespan impact of per-task failures with retry."""
    results = run_jobs(
        [
            SimJob(
                workflow,
                n_processors,
                failures=(
                    FailureSpec(prob, seed=seed, max_retries=25)
                    if prob > 0
                    else None
                ),
            )
            for prob in probabilities
        ]
    )
    raw = []
    for prob, result in zip(probabilities, results):
        cost = compute_cost(
            result, pricing, ExecutionPlan.on_demand(n_processors)
        )
        raw.append(
            (prob, result.n_task_failures, result.makespan, cost.total)
        )
    return StudyResult(
        name="failures",
        title=(
            f"Failure-injection ablation — {workflow.name} on "
            f"{n_processors} processors"
        ),
        headers=("failure prob", "retries", "time", "on-demand total $"),
        rows=[
            (f"{p:.0%}", n, format_duration(t), format_money(c))
            for p, n, t, c in raw
        ],
        raw=raw,
    )


def montecarlo_failure_study(
    workflow: Workflow,
    probabilities: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10),
    n_seeds: int = 100,
    n_processors: int = 16,
    max_retries: int = 25,
    pricing: PricingModel = AWS_2008,
) -> StudyResult:
    """Failure-cost *distributions* over a (probability, seed) grid.

    Upgrades :func:`failure_study` from a single-seed point estimate to
    mean/p95 makespan and mean on-demand cost inflation with 95%
    normal-approximation confidence intervals across ``n_seeds`` seeds
    per probability, executed *columnar* by the fast kernel's
    :func:`repro.sim.kernel.run_monte_carlo` (one DAG lowering, shared
    derived vectors, vectorized failure draws, every cell written into
    one :func:`~repro.sim.kernel.summary_batch` record batch instead of
    per-cell result objects — the statistics are reductions over its
    columns).  Runs that exhaust the retry budget are counted as aborts
    and excluded from the statistics.
    """
    config = KernelConfig(
        environment=ExecutionEnvironment(
            n_processors=n_processors, record_trace=False
        )
    )
    seeds = range(n_seeds)
    batch = summary_batch(len(probabilities) * n_seeds)
    run_monte_carlo(
        workflow, config, probabilities, seeds,
        max_retries=max_retries, out=batch,
    )
    plan = ExecutionPlan.on_demand(n_processors)
    raw = []
    baseline_cost: float | None = None
    for i, prob in enumerate(probabilities):
        block = batch[i * n_seeds : (i + 1) * n_seeds]
        ok = ~block["aborted"]
        n_aborted = int(n_seeds - ok.sum())
        if not ok.any():
            raw.append(
                (prob, n_aborted, float("nan"), float("nan"),
                 float("nan"), float("nan"), float("nan"), float("nan"))
            )
            continue
        spans = block["makespan"][ok]
        costs = np.array(
            [
                compute_cost(
                    GridRow(workflow.name, n_processors, prob, int(s), rec),
                    pricing, plan,
                ).total
                for s, rec in zip(np.flatnonzero(ok), block[ok])
            ]
        )
        retries = float(block["n_task_failures"][ok].mean())
        n = len(spans)
        span_ci = (
            1.96 * float(np.std(spans, ddof=1)) / float(np.sqrt(n))
            if n > 1
            else 0.0
        )
        cost_mean = float(np.mean(costs))
        if baseline_cost is None:
            baseline_cost = cost_mean
        raw.append(
            (
                prob,
                n_aborted,
                retries,
                float(np.mean(spans)),
                span_ci,
                float(np.percentile(spans, 95)),
                cost_mean,
                cost_mean / baseline_cost,
            )
        )
    return StudyResult(
        name="montecarlo",
        title=(
            f"Monte Carlo failure ablation — {workflow.name} on "
            f"{n_processors} processors, {n_seeds} seeds/probability"
        ),
        headers=(
            "failure prob", "aborts", "mean retries",
            "mean time ± 95% CI", "p95 time",
            "mean on-demand $", "inflation",
        ),
        rows=[
            (
                f"{p:.0%}",
                aborts,
                f"{retries:.1f}" if retries == retries else "-",
                (
                    f"{format_duration(mean)} ± {ci:.1f} s"
                    if mean == mean
                    else "-"
                ),
                format_duration(p95) if p95 == p95 else "-",
                format_money(cost) if cost == cost else "-",
                f"{infl:.3f}x" if infl == infl else "-",
            )
            for p, aborts, retries, mean, ci, p95, cost, infl in raw
        ],
        raw=raw,
    )


def scheduler_study(
    workflow: Workflow, n_processors: int = 16
) -> StudyResult:
    """Ready-queue ordering sensitivity."""
    results = run_jobs(
        [
            SimJob(workflow, n_processors, "cleanup", ordering=ordering.name)
            for ordering in ALL_ORDERINGS
        ]
    )
    raw = [
        (ordering.name, result.makespan, result.storage_gb_hours)
        for ordering, result in zip(ALL_ORDERINGS, results)
    ]
    return StudyResult(
        name="scheduler",
        title=(
            f"Scheduler-ordering ablation — {workflow.name} on "
            f"{n_processors} processors"
        ),
        headers=("ordering", "time", "storage GB-h"),
        rows=[
            (name, format_duration(m), f"{s:.4f}") for name, m, s in raw
        ],
        raw=raw,
    )


def storage_capacity_study(
    workflow: Workflow,
    fractions: tuple[float | None, ...] = (None, 1.0, 0.75, 0.6, 0.5),
    processors: tuple[int, ...] = (8, 64),
) -> StudyResult:
    """Finite storage capacity (fractions of the workflow footprint)."""
    footprint = workflow.total_file_bytes()
    grid = [
        (p, frac, None if frac is None else frac * footprint)
        for p in processors
        for frac in fractions
    ]
    results = run_jobs(
        [
            SimJob(workflow, p, "cleanup", storage_capacity_bytes=cap)
            for p, _, cap in grid
        ]
    )
    raw = [
        (p, frac, cap, result.makespan, result.peak_storage_bytes)
        for (p, frac, cap), result in zip(grid, results)
    ]
    return StudyResult(
        name="storage-capacity",
        title=(
            f"Storage-capacity ablation — {workflow.name}, cleanup mode "
            f"(footprint {format_bytes(footprint)})"
        ),
        headers=("procs", "capacity", "fraction", "time", "peak used"),
        rows=[
            (
                p,
                "unlimited" if cap is None else format_bytes(cap),
                "-" if frac is None else f"{frac:.0%}",
                format_duration(makespan),
                format_bytes(peak),
            )
            for p, frac, cap, makespan, peak in raw
        ],
        raw=raw,
    )


def clustering_study(
    workflow: Workflow,
    factors: tuple[int, ...] = (1, 2, 5, 8),
    overheads: tuple[float, ...] = (0.0, 10.0, 30.0),
    n_processors: int = 8,
) -> StudyResult:
    """Horizontal clustering vs per-job scheduling overhead."""
    variants = {
        f: (workflow if f == 1 else cluster_workflow(workflow, f))
        for f in factors
    }
    results = run_jobs(
        [
            SimJob(variants[f], n_processors, task_overhead_seconds=oh)
            for f in factors
            for oh in overheads
        ]
    )
    spans = iter(results)
    raw = [
        (f, len(variants[f]), *(next(spans).makespan for _ in overheads))
        for f in factors
    ]
    return StudyResult(
        name="clustering",
        title=(
            f"Task-clustering ablation — {workflow.name} on "
            f"{n_processors} processors (makespan)"
        ),
        headers=(
            "factor", "jobs",
            *(f"{oh:g} s/job" for oh in overheads),
        ),
        rows=[
            (f, n, *(format_duration(m) for m in spans))
            for f, n, *spans in raw
        ],
        raw=raw,
    )


def campaign_policy_study(
    n_plates: int = 3,
    degree: float = 1.0,
    policies: tuple[str, ...] = ("immediate", "sweep", "budget"),
    n_seeds: int = 5,
    probability: float = 0.10,
    max_task_retries: int = 2,
    max_plate_attempts: int = 3,
    budget_headroom: float = 1.25,
    n_processors: int = 16,
    n_pools: int = 2,
    pricing: PricingModel = AWS_2008,
) -> StudyResult:
    """Cost and completion-time distributions per resubmission policy.

    Runs ``n_seeds`` independent campaigns (distinct base seeds) of the
    same jittered plate set under each policy via
    :func:`repro.campaign.run_campaign`, and reports mean total billed
    cost and completion time with 95% normal-approximation confidence
    intervals, plus the abandonment rate.  The ``budget`` policy's cap
    is set to ``budget_headroom`` times the campaign's failure-free
    bill (its ``p = 0`` run), i.e. 25% re-work headroom by default.

    Every campaign's provenance log is reconciled by
    :func:`repro.audit.campaign.audit_campaign`; the violation count
    (expected 0) is part of the raw rows, so the study doubles as an
    end-to-end audit of the orchestrator.

    The headline finding mirrors the scheduling shape of the policies:
    attempt outcomes — and therefore bills — are identical for
    ``immediate`` and ``sweep`` (same attempts, same seeds), but
    ``sweep``'s pass barriers stretch completion time, and ``budget``
    trades completion for a bounded bill by abandoning plates once the
    cap is hit.
    """
    plates = campaign_plates(n_plates, degree=degree)
    cache = SimCache()  # in-memory; the study's grids are small

    def config(policy: str, seed: int) -> CampaignConfig:
        return CampaignConfig(
            n_processors=n_processors,
            n_pools=n_pools,
            probability=probability,
            base_seed=seed,
            max_task_retries=max_task_retries,
            max_plate_attempts=max_plate_attempts,
            cost_budget=budget if policy == "budget" else None,
            pricing=pricing,
        )

    # Failure-free reference bill: one pass, p = 0, rides the kernel's
    # dedup path.  Sets the budget policy's cap.
    budget = None
    reference = run_campaign(
        plates,
        "sweep",
        CampaignConfig(
            n_processors=n_processors,
            n_pools=n_pools,
            probability=0.0,
            max_plate_attempts=1,
            pricing=pricing,
        ),
        cache=cache,
        log=ProvenanceLog(),
    )
    budget = budget_headroom * reference.total_billed

    raw = []
    for policy in policies:
        costs, times, abandoned, violations = [], [], [], 0
        for seed in range(n_seeds):
            log = ProvenanceLog()
            result = run_campaign(
                plates, policy, config(policy, seed), cache=cache, log=log
            )
            costs.append(result.total_billed)
            times.append(result.completion_seconds)
            abandoned.append(result.n_abandoned)
            violations += len(audit_campaign(log).violations)
        cost_ci = (
            1.96 * float(np.std(costs, ddof=1)) / float(np.sqrt(n_seeds))
            if n_seeds > 1
            else 0.0
        )
        time_ci = (
            1.96 * float(np.std(times, ddof=1)) / float(np.sqrt(n_seeds))
            if n_seeds > 1
            else 0.0
        )
        raw.append(
            (
                policy,
                float(np.mean(costs)),
                cost_ci,
                float(np.mean(times)),
                time_ci,
                float(np.mean(abandoned)),
                violations,
            )
        )
    return StudyResult(
        name="campaign-policies",
        title=(
            f"Campaign resubmission-policy study — {n_plates} plates x "
            f"{n_seeds} seeds, p={probability:.0%}, "
            f"budget cap ${budget:.2f}"
        ),
        headers=(
            "policy", "mean billed ± 95% CI", "mean completion ± 95% CI",
            "mean abandoned", "audit violations",
        ),
        rows=[
            (
                policy,
                f"{format_money(cost)} ± {ci:.3f}",
                f"{format_duration(t)} ± {tci:.0f} s",
                f"{ab:.1f}/{n_plates}",
                viol,
            )
            for policy, cost, ci, t, tci, ab, viol in raw
        ],
        raw=raw,
    )


def service_scale_study(
    traffic_levels: tuple[float, ...] = (1e5, 1e6, 1e7),
    n_processors: int = 512,
    n_regions: int = 50_000,
    n_windows: int = 3,
    seed: int = 7,
) -> StudyResult:
    """Fluid-engine error and speedup vs the event simulator, by scale.

    For each sustained traffic level (requests/month) the full stream is
    sampled and run through the fluid engine
    (:class:`repro.service.scale.FluidServiceEngine`), then
    differentially validated by replaying ``n_windows`` subsampled
    one-hour windows through the event-based
    :class:`~repro.service.simulator.ServiceSimulator`
    (:func:`repro.service.scale.validate_fluid`).  Reported per level:
    the cache hit rate, mean relative error of the fluid miss-path
    response time against the event engine, the fluid wall time, the
    event engine's *projected* wall time for the full stream (measured
    seconds/request × stream size — running it outright at 10⁷ requests
    would take days), and the resulting speedup.
    """
    from repro.service.scale import (
        FluidServiceEngine,
        montage_traffic,
        sample_traffic,
        validate_fluid,
    )

    raw = []
    for level in traffic_levels:
        spec = montage_traffic(
            level, horizon_months=1.0, n_regions=n_regions, seed=seed
        )
        sample = sample_traffic(spec)
        result = FluidServiceEngine(n_processors).run(sample)
        validation = validate_fluid(
            sample, n_processors, n_windows=n_windows
        )
        projected = validation.projected_event_seconds(sample.n_requests)
        speedup = (
            projected / result.elapsed_seconds
            if result.elapsed_seconds > 0
            else float("inf")
        )
        raw.append(
            (
                level,
                sample.n_requests,
                sample.hit_rate,
                validation.mean_error,
                validation.max_error,
                result.elapsed_seconds,
                projected,
                speedup,
            )
        )
    return StudyResult(
        name="service-scale",
        title=(
            f"Service-at-scale ablation — fluid vs event engine, "
            f"{n_processors} processors, {n_windows} validation "
            f"windows/level"
        ),
        headers=(
            "req/month", "requests", "hit rate", "mean err", "max err",
        ),
        rows=[
            (
                f"{level:.0e}",
                f"{n:,}",
                f"{hit:.1%}",
                f"{mean_err:.1%}",
                f"{max_err:.1%}",
            )
            for level, n, hit, mean_err, max_err, *_ in raw
        ],
        raw=raw,
        timings=format_table(
            ("req/month", "fluid wall", "event wall (proj.)", "speedup"),
            [
                (
                    f"{level:.0e}",
                    f"{fluid_s:.2f} s",
                    format_duration(event_s),
                    f"{speedup:,.0f}x",
                )
                for level, *_, fluid_s, event_s, speedup in raw
            ],
            title="Service-at-scale timings (wall clock, varies per run)",
        ),
    )


def all_studies(workflow: Workflow) -> list[StudyResult]:
    """Run every ablation on one workflow (the runner's --extensions)."""
    return [
        billing_granularity_study(workflow),
        vm_overhead_study(workflow),
        fee_sensitivity_study(workflow),
        link_contention_study(workflow),
        failure_study(workflow),
        montecarlo_failure_study(workflow),
        scheduler_study(workflow),
        storage_capacity_study(workflow),
        clustering_study(workflow),
        campaign_policy_study(),
        service_scale_study(traffic_levels=(1e5, 1e6)),
    ]
