"""Command-line interface.

Everything the library does, from a shell::

    python -m repro info --degree 1
    python -m repro simulate --degree 2 --processors 16 --mode cleanup
    python -m repro sweep --degree 1 --processors 1,8,64
    python -m repro modes --degree 1
    python -m repro ccr --degree 1 --values 0.05,0.5,2
    python -m repro grid --plates 16 --processors 4,8 --probabilities 0,0.05
    python -m repro campaign --plates 50 --policy sweep --audit
    python -m repro service --requests-per-month 1e6 --processors 512
    python -m repro gantt --degree 1 --processors 8
    python -m repro dax --degree 1 --output montage1.xml
    python -m repro report [--fast] [--extensions] [--audit]

Workflows come from the calibrated Montage generator (``--degree``) or
from a DAX XML file (``--dax``).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.costs import compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008
from repro.experiments.ccr import run_ccr_sweep
from repro.experiments.question1 import run_question1
from repro.experiments.question2a import run_question2a
from repro.experiments.report import format_table
from repro.montage.generator import montage_workflow
from repro.sim.executor import simulate
from repro.sim.trace import gantt_chart, write_trace_files
from repro.util.units import (
    MBPS,
    format_bytes,
    format_duration,
    format_money,
)
from repro.workflow.analysis import workflow_stats
from repro.workflow.dag import Workflow
from repro.workflow.dax import read_dax_file, write_dax_file

__all__ = ["main", "build_parser"]


def _load_workflow(args: argparse.Namespace) -> Workflow:
    if getattr(args, "dax", None):
        return read_dax_file(args.dax)
    return montage_workflow(args.degree)


def _add_workflow_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--degree", type=float, default=1.0,
        help="Montage mosaic size in square degrees (default 1.0)",
    )
    parser.add_argument(
        "--dax", type=str, default=None,
        help="load the workflow from a DAX XML file instead",
    )


def _cmd_info(args: argparse.Namespace) -> int:
    wf = _load_workflow(args)
    st = workflow_stats(wf)
    rows = [
        ("name", st.name),
        ("tasks", st.n_tasks),
        ("files", st.n_files),
        ("levels", st.depth),
        ("total runtime", format_duration(st.total_runtime)),
        ("critical path", format_duration(st.critical_path)),
        ("max parallelism", st.max_parallelism),
        ("data footprint", format_bytes(st.footprint_bytes)),
        ("input data", format_bytes(st.input_bytes)),
        ("output data", format_bytes(st.output_bytes)),
        ("CCR @ 10 Mbps", f"{st.ccr:.4f}"),
    ]
    for name, count in sorted(wf.count_by_transformation().items()):
        rows.append((f"  {name}", count))
    print(format_table(("property", "value"), rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    wf = _load_workflow(args)
    result = simulate(
        wf,
        n_processors=args.processors,
        data_mode=args.mode,
        bandwidth_bytes_per_sec=args.bandwidth_mbps * MBPS,
        storage_capacity_bytes=(
            args.storage_capacity_gb * 1e9
            if args.storage_capacity_gb is not None
            else None
        ),
        compute_ready_seconds=args.boot_seconds,
        link_contention=args.contended,
        record_trace=args.trace_dir is not None,
        audit=args.audit,
        kernel=args.kernel,
    )
    plan = (
        ExecutionPlan.on_demand(args.processors, args.mode)
        if args.on_demand
        else ExecutionPlan.provisioned(args.processors, args.mode)
    )
    cost = compute_cost(result, AWS_2008, plan)
    print(
        format_table(
            ("metric", "value"),
            [
                ("workflow", result.workflow_name),
                ("processors", result.n_processors),
                ("data mode", result.data_mode),
                ("billing", plan.provisioning.value),
                ("makespan", format_duration(result.makespan)),
                ("data in", format_bytes(result.bytes_in)),
                ("data out", format_bytes(result.bytes_out)),
                ("storage", f"{result.storage_gb_hours:.4f} GB-h"),
                ("utilization", f"{result.utilization:.0%}"),
                ("CPU cost", format_money(cost.cpu_cost)),
                ("storage cost", format_money(cost.storage_cost)),
                ("transfer cost", format_money(cost.transfer_cost)),
                ("TOTAL", format_money(cost.total)),
            ],
        )
    )
    if args.trace_dir is not None:
        paths = write_trace_files(result, args.trace_dir)
        print(f"\ntrace written: {', '.join(str(p) for p in paths)}")
    return 0


def _print_cache_stats() -> None:
    from repro.sweep.cache import default_cache

    stats = default_cache().stats()
    print(
        "\ncache: "
        f"{stats['hits']} hits, {stats['misses']} misses "
        f"({stats['hit_rate']:.0%} hit rate), "
        f"{stats['memory_entries']} in memory, "
        f"{stats['disk_entries']} on disk"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    wf = _load_workflow(args)
    processors = (
        [int(p) for p in args.processors.split(",")]
        if args.processors
        else None
    )
    print(run_question1(wf, processors=processors).as_table())
    if args.verbose:
        _print_cache_stats()
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.grid import GridPlan, run_grid

    plates = tuple(
        montage_workflow(
            args.degree,
            jitter=args.jitter,
            seed=i,
            name=f"plate{i:04d}",
        )
        for i in range(args.plates)
    )
    plan = GridPlan(
        plates=plates,
        processors=tuple(int(p) for p in args.processors.split(",")),
        probabilities=tuple(
            float(p) for p in args.probabilities.split(",")
        ),
        seeds=tuple(range(args.seeds)),
        data_mode=args.mode,
        bandwidth_bytes_per_sec=args.bandwidth_mbps * MBPS,
    )
    progress = print if args.verbose else None
    t0 = time.perf_counter()
    result = run_grid(
        plan,
        shards=args.shards,
        workers=args.workers,
        progress=progress,
    )
    elapsed = time.perf_counter() - t0
    ok = ~result.column("aborted")
    makespans = result.column("makespan")[ok]
    rows = [
        ("plates", len(plan.plates)),
        ("cells", result.n_cells),
        ("aborted", result.n_aborted),
        ("wall time", format_duration(elapsed)),
        ("cells/s", f"{result.n_cells / elapsed:,.0f}"),
    ]
    if len(makespans):
        rows += [
            ("makespan p50", format_duration(float(np.median(makespans)))),
            ("makespan p95",
             format_duration(float(np.percentile(makespans, 95)))),
            ("data in (total)",
             format_bytes(float(result.column("bytes_in")[ok].sum()))),
        ]
    print(format_table(("metric", "value"), rows))
    if args.verbose:
        _print_cache_stats()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.audit import audit_campaign
    from repro.campaign import CampaignConfig, ProvenanceLog, run_campaign
    from repro.montage import campaign_plates
    from repro.sweep.cache import SimCache, default_cache

    plates = campaign_plates(
        args.plates, degree=args.degree, jitter=args.jitter
    )
    config = CampaignConfig(
        n_processors=args.processors,
        n_pools=args.pools,
        probability=args.probability,
        base_seed=args.seed,
        max_task_retries=args.max_task_retries,
        max_plate_attempts=args.max_plate_attempts,
        cost_budget=args.cost_budget,
        data_mode=args.mode,
        bandwidth_bytes_per_sec=args.bandwidth_mbps * MBPS,
    )
    cache = SimCache(args.cache) if args.cache else default_cache()
    log = ProvenanceLog(args.log)
    result = run_campaign(
        plates,
        args.policy,
        config,
        cache=cache,
        log=log,
        workers=args.workers,
        shards=args.shards,
        progress=print if args.verbose else None,
    )
    rows = [
        ("policy", result.policy.name),
        ("plates", len(result.outcomes)),
        ("completed", result.n_completed),
        ("abandoned", result.n_abandoned),
        ("attempts", result.total_attempts),
        ("passes", result.n_passes),
        ("total billed", format_money(result.total_billed)),
        ("completion time", format_duration(result.completion_seconds)),
        ("provenance lines", len(log)),
        ("replayed (resume)", log.replayed),
    ]
    if log.path is not None:
        rows.append(("provenance log", str(log.path)))
    print(format_table(("metric", "value"), rows))
    if args.verbose:
        _print_cache_stats()
    if args.audit:
        report = audit_campaign(log)
        print(f"\n{report.summary()}")
        if not report.ok:
            for violation in report.violations[:20]:
                print(f"  - {violation}")
            return 1
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    from repro.service.scale import (
        FluidServiceEngine,
        montage_traffic,
        resolve_service_engine,
        sample_traffic,
        validate_fluid,
    )

    degrees = tuple(float(d) for d in args.degrees.split(","))
    weights = (
        tuple(float(w) for w in args.weights.split(","))
        if args.weights
        else None
    )
    spec = montage_traffic(
        args.requests_per_month,
        horizon_months=args.months,
        degrees=degrees,
        weights=weights,
        n_regions=args.regions,
        zipf_exponent=args.zipf,
        retention_months=args.retention_months,
        seed=args.seed,
        bandwidth_bytes_per_sec=args.bandwidth_mbps * MBPS,
    )
    sample = sample_traffic(spec)
    engine_name = resolve_service_engine(args.engine, sample.n_requests)
    rows = [
        ("engine", engine_name),
        ("requests", f"{sample.n_requests:,}"),
        ("cache hit rate", f"{sample.hit_rate:.1%}"),
        ("pool", args.processors),
    ]
    if engine_name == "event":
        from repro.service.arrivals import ServiceRequest
        from repro.service.economics import service_economics
        from repro.service.simulator import ServiceSimulator

        workflows = [c.workflow for c in spec.mix]
        misses = ~sample.hit
        requests = [
            ServiceRequest(
                request_id=f"req-{i:07d}",
                workflow=workflows[int(k)],
                arrival_time=float(t),
            )
            for i, (t, k) in enumerate(
                zip(sample.times[misses], sample.class_idx[misses])
            )
        ]
        result = ServiceSimulator(
            args.processors,
            spec.data_mode,
            bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec,
        ).run(requests)
        # An undersized pool drains past the nominal horizon; the pool
        # is then held until the backlog clears.
        eco = service_economics(
            result,
            AWS_2008,
            period_seconds=max(spec.horizon_seconds, result.horizon),
        )
        rows += [
            ("misses simulated", f"{result.n_requests:,}"),
            ("mean response (miss)",
             format_duration(result.mean_response_time())),
            ("p95 response (miss)",
             format_duration(result.percentile_response_time(95.0))),
            ("pool utilization", f"{eco.pool_utilization:.1%}"),
            ("pool bill", format_money(eco.pool_cpu_cost)),
        ]
    else:
        engine = FluidServiceEngine(args.processors)
        result = engine.run(sample)
        eco = result.economics
        rows += [
            ("mean response", format_duration(eco.mean_response_time)),
            ("mean response (miss)",
             format_duration(result.miss_mean_response_time())),
            ("p95 response (miss)",
             format_duration(result.miss_percentile_response_time(95.0))),
            ("pool utilization", f"{eco.pool_utilization:.1%}"),
            ("peak backlog (jobs)", f"{result.peak_backlog():,.0f}"),
            ("pool bill", format_money(eco.pool_cpu_cost)),
            ("cache storage rent", format_money(eco.cache_storage_cost)),
            ("total cost", format_money(eco.total_cost)),
            ("cost per request", format_money(eco.cost_per_request)),
            ("simulated req/s", f"{result.requests_per_second_simulated:,.0f}"),
        ]
    print(format_table(("metric", "value"), rows))
    if args.validate:
        validation = validate_fluid(
            sample, args.processors, n_windows=args.validate_windows
        )
        projected = validation.projected_event_seconds(sample.n_requests)
        print(
            f"\nvalidation ({len(validation.windows)} windows): "
            f"mean error {validation.mean_error:.1%}, "
            f"max error {validation.max_error:.1%}, "
            f"projected event-engine time "
            f"{format_duration(projected)}"
        )
    return 0


def _cmd_modes(args: argparse.Namespace) -> int:
    wf = _load_workflow(args)
    print(run_question2a(wf).as_table())
    return 0


def _cmd_ccr(args: argparse.Namespace) -> int:
    wf = _load_workflow(args)
    values = (
        tuple(float(v) for v in args.values.split(","))
        if args.values
        else None
    )
    kwargs = {"n_processors": args.processors}
    if values:
        kwargs["ccr_values"] = values
    print(run_ccr_sweep(wf, **kwargs).as_table())
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    wf = _load_workflow(args)
    result = simulate(wf, args.processors, args.mode)
    print(gantt_chart(result, width=args.width))
    return 0


def _cmd_dax(args: argparse.Namespace) -> int:
    wf = _load_workflow(args)
    path = write_dax_file(wf, args.output)
    print(f"wrote {len(wf)} tasks to {path}")
    return 0


def _cmd_dataflow(args: argparse.Namespace) -> int:
    from repro.util.units import MB
    from repro.workflow.dataflow import (
        level_data_volumes,
        predict_transfers,
        reuse_factor,
        transfer_multiplicity,
    )

    wf = _load_workflow(args)
    print(f"Data-flow analysis — {wf.name}")
    print(f"reuse factor (remote-I/O amplification): {reuse_factor(wf):.2f}\n")
    print(
        format_table(
            ("mode", "bytes in", "bytes out", "transfers in", "transfers out"),
            [
                (
                    mode,
                    format_bytes(p.bytes_in),
                    format_bytes(p.bytes_out),
                    p.n_transfers_in,
                    p.n_transfers_out,
                )
                for mode in ("regular", "cleanup", "remote-io")
                for p in (predict_transfers(wf, mode),)
            ],
            title="Exact transfer totals (static prediction)",
        )
    )
    print()
    print(
        format_table(
            ("consumers", "files"),
            sorted(transfer_multiplicity(wf).items()),
            title="File fan-out (how often remote I/O re-transfers)",
        )
    )
    print()
    print(
        format_table(
            ("level", "data produced (MB)"),
            [
                (lv, f"{v / MB:.1f}")
                for lv, v in sorted(level_data_volumes(wf).items())
            ],
            title="Data volume per workflow level (0 = initial inputs)",
        )
    )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.experiments.plots import ascii_bars, ascii_chart
    from repro.experiments.question2a import MODES

    wf = _load_workflow(args)
    if args.figure == "q1":
        q1 = run_question1(wf)
        processors = [r.n_processors for r in q1.rows]
        print(
            ascii_chart(
                processors,
                {
                    "total $": [r.total_cost for r in q1.rows],
                    "CPU $": [r.cpu_cost for r in q1.rows],
                    "transfer $": [r.transfer_cost for r in q1.rows],
                    "storage $": [r.storage_cost for r in q1.rows],
                },
                log_y=True,
                title=f"Execution costs vs processors — {wf.name} "
                "(log scale, as in the paper)",
            )
        )
        print()
        print(
            ascii_chart(
                processors,
                {"makespan (h)": [r.makespan / 3600.0 for r in q1.rows]},
                title="Execution time vs processors",
            )
        )
    else:  # modes
        q2a = run_question2a(wf)
        print(
            ascii_bars(
                [
                    (m, q2a.metrics(m).storage_gb_hours)
                    for m in MODES
                ],
                title=f"Storage used — {wf.name}",
                unit=" GB-h",
            )
        )
        print()
        print(
            ascii_bars(
                [
                    (f"{m} in", q2a.metrics(m).bytes_in / 1e6)
                    for m in MODES
                ]
                + [
                    (f"{m} out", q2a.metrics(m).bytes_out / 1e6)
                    for m in MODES
                ],
                title="Data transferred",
                unit=" MB",
            )
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    # Imported lazily: the runner pulls in every experiment.
    from repro.experiments.runner import run_all

    run_all(
        fast=args.fast,
        extensions=args.extensions,
        stream=sys.stdout,
        audit=args.audit,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cloud cost/performance analysis for science workflows "
            "(reproduction of Deelman et al., SC 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="workflow structure and aggregates")
    _add_workflow_options(p)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("simulate", help="simulate and price one execution")
    _add_workflow_options(p)
    p.add_argument("--processors", type=int, default=8)
    p.add_argument(
        "--mode", choices=["remote-io", "regular", "cleanup"],
        default="regular",
    )
    p.add_argument("--bandwidth-mbps", type=float, default=10.0)
    p.add_argument(
        "--storage-capacity-gb", type=float, default=None,
        help="finite cloud-storage capacity (default: unlimited)",
    )
    p.add_argument(
        "--boot-seconds", type=float, default=0.0,
        help="VM boot delay before processors become usable",
    )
    p.add_argument(
        "--contended", action="store_true",
        help="FIFO-serialize the link instead of GridSim-style dedicated",
    )
    p.add_argument(
        "--on-demand", action="store_true",
        help="bill resources used instead of the provisioned pool",
    )
    p.add_argument(
        "--trace-dir", type=str, default=None,
        help="write tasks/transfers/storage CSVs to this directory",
    )
    p.add_argument(
        "--audit", action="store_true",
        help="reconcile the result against its event trace (repro.audit)",
    )
    p.add_argument(
        "--kernel", choices=["auto", "event", "fast"], default=None,
        help="simulation backend (default: REPRO_SIM_KERNEL, else auto — "
             "the fast array kernel, which covers every configuration "
             "including failure injection)",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="Figure 4/5/6: cost & time vs pool size")
    _add_workflow_options(p)
    p.add_argument(
        "--processors", type=str, default=None,
        help="comma-separated pool sizes (default: 1,2,...,128)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print sweep-cache statistics after the table",
    )
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "grid",
        help="campaign-scale grid: plates x processors x failure Monte Carlo",
    )
    p.add_argument(
        "--plates", type=int, default=8,
        help="number of jittered sky plates to generate (default 8)",
    )
    p.add_argument(
        "--degree", type=float, default=1.0,
        help="mosaic size of each plate in square degrees (default 1.0)",
    )
    p.add_argument(
        "--jitter", type=float, default=0.05,
        help="per-plate task-runtime jitter fraction (default 0.05)",
    )
    p.add_argument(
        "--processors", type=str, default="4,8,16",
        help="comma-separated provisioning ladder (default 4,8,16)",
    )
    p.add_argument(
        "--probabilities", type=str, default="0,0.02,0.05",
        help="comma-separated task-failure probabilities",
    )
    p.add_argument(
        "--seeds", type=int, default=5,
        help="Monte Carlo seeds per probability (default 5)",
    )
    p.add_argument(
        "--mode", choices=["remote-io", "regular", "cleanup"],
        default="regular",
    )
    p.add_argument("--bandwidth-mbps", type=float, default=10.0)
    p.add_argument(
        "--shards", type=int, default=None,
        help="checkpoint/parallelism granularity (default 8)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: REPRO_SWEEP_WORKERS/auto)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print per-shard progress and cache statistics",
    )
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser(
        "campaign",
        help=(
            "failure-aware campaign: resubmission policies, provenance "
            "log, campaign audit"
        ),
    )
    p.add_argument(
        "--plates", type=int, default=50,
        help="number of sky plates to run (default 50)",
    )
    p.add_argument(
        "--degree", type=float, default=1.0,
        help="mosaic size of each plate in square degrees (default 1.0)",
    )
    p.add_argument(
        "--jitter", type=float, default=0.05,
        help="per-plate task-runtime jitter fraction (default 0.05)",
    )
    p.add_argument(
        "--policy", choices=["immediate", "sweep", "budget"],
        default="sweep",
        help="resubmission policy for failed plates (default sweep)",
    )
    p.add_argument(
        "--probability", type=float, default=0.05,
        help="per-task failure probability (default 0.05)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="campaign base seed; attempt seeds derive from it",
    )
    p.add_argument("--processors", type=int, default=8)
    p.add_argument(
        "--pools", type=int, default=4,
        help="parallel plate slots in the completion-time model",
    )
    p.add_argument(
        "--max-task-retries", type=int, default=1,
        help="within-attempt task retry budget; exhausting it fails "
             "the attempt (default 1)",
    )
    p.add_argument(
        "--max-plate-attempts", type=int, default=3,
        help="campaign-level attempts per plate before abandoning "
             "(default 3)",
    )
    p.add_argument(
        "--cost-budget", type=float, default=None,
        help="dollar cap on resubmissions (budget policy only)",
    )
    p.add_argument(
        "--mode", choices=["remote-io", "regular", "cleanup"],
        default="regular",
    )
    p.add_argument("--bandwidth-mbps", type=float, default=10.0)
    p.add_argument(
        "--log", type=str, default=None,
        help="provenance log path (JSONL); rerun with the same log "
             "and cache to resume a killed campaign",
    )
    p.add_argument(
        "--cache", type=str, default=None,
        help="on-disk checkpoint cache directory (default: "
             "REPRO_SWEEP_CACHE / in-memory)",
    )
    p.add_argument(
        "--shards", type=int, default=None,
        help="checkpoint granularity (default: one shard per plate)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: REPRO_SWEEP_WORKERS/auto)",
    )
    p.add_argument(
        "--audit", action="store_true",
        help="reconcile the provenance log with the campaign audit "
             "oracle; non-zero exit on violations",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print per-pass progress and cache statistics",
    )
    p.set_defaults(handler=_cmd_campaign)

    p = sub.add_parser(
        "service",
        help=(
            "mosaic-as-a-service at scale: fluid or event engine over "
            "sustained request traffic"
        ),
    )
    p.add_argument(
        "--requests-per-month", type=float, default=1e6,
        help="sustained request rate (default 1e6)",
    )
    p.add_argument(
        "--months", type=float, default=1.0,
        help="service horizon in months (default 1)",
    )
    p.add_argument(
        "--degrees", type=str, default="1.0",
        help="comma-separated mosaic sizes in the request mix",
    )
    p.add_argument(
        "--weights", type=str, default=None,
        help="comma-separated mix weights (default: uniform)",
    )
    p.add_argument(
        "--processors", type=int, default=512,
        help="provisioned shared pool (default 512)",
    )
    p.add_argument(
        "--regions", type=int, default=50_000,
        help="distinct sky regions requests draw from (default 50000)",
    )
    p.add_argument(
        "--zipf", type=float, default=1.0,
        help="Zipf popularity exponent over regions (default 1.0)",
    )
    p.add_argument(
        "--retention-months", type=float, default=1.0,
        help="result-cache TTL in months; 0 disables the cache",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bandwidth-mbps", type=float, default=10.0)
    p.add_argument(
        "--engine", choices=["auto", "event", "fluid"], default="auto",
        help="auto: event up to 2000 requests, fluid beyond",
    )
    p.add_argument(
        "--validate", action="store_true",
        help="replay subsampled windows through the event engine and "
             "report the fluid model's error",
    )
    p.add_argument(
        "--validate-windows", type=int, default=3,
        help="number of validation windows (default 3)",
    )
    p.set_defaults(handler=_cmd_service)

    p = sub.add_parser(
        "modes", help="Figure 7/8/9: compare data-management modes"
    )
    _add_workflow_options(p)
    p.set_defaults(handler=_cmd_modes)

    p = sub.add_parser("ccr", help="Figure 11: cost vs CCR")
    _add_workflow_options(p)
    p.add_argument("--values", type=str, default=None,
                   help="comma-separated CCR values")
    p.add_argument("--processors", type=int, default=8)
    p.set_defaults(handler=_cmd_ccr)

    p = sub.add_parser("gantt", help="text Gantt chart of one execution")
    _add_workflow_options(p)
    p.add_argument("--processors", type=int, default=8)
    p.add_argument(
        "--mode", choices=["remote-io", "regular", "cleanup"],
        default="regular",
    )
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(handler=_cmd_gantt)

    p = sub.add_parser("dax", help="write the workflow as DAX XML")
    _add_workflow_options(p)
    p.add_argument("--output", type=str, required=True)
    p.set_defaults(handler=_cmd_dax)

    p = sub.add_parser(
        "dataflow", help="static data-flow analysis (transfers, fan-out)"
    )
    _add_workflow_options(p)
    p.set_defaults(handler=_cmd_dataflow)

    p = sub.add_parser("plot", help="ASCII rendering of a paper figure")
    _add_workflow_options(p)
    p.add_argument(
        "--figure", choices=["q1", "modes"], default="q1",
        help="q1: Figures 4-6 curves; modes: Figures 7-9 bars",
    )
    p.set_defaults(handler=_cmd_plot)

    p = sub.add_parser("report", help="full paper-comparison report")
    p.add_argument("--fast", action="store_true", help="smoke-test subset")
    p.add_argument(
        "--extensions", action="store_true",
        help="append the ablation studies",
    )
    p.add_argument(
        "--audit", action="store_true",
        help="run every simulation under the trace-audit oracle",
    )
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
