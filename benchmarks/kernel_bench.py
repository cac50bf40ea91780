"""Fast-kernel benchmark: per-run speedup and campaign-scale payoff.

Three measurements, written to ``BENCH_kernel.json`` next to this
script:

1. **Per-run speedup** — the event engine vs. the fast kernel on the
   paper's Montage-4° workflow (3,027 tasks), cleanup mode, 128
   processors, traces off: the configuration ``BENCH_sweep.json``
   tracks as the simulator's wall-clock floor.  Results are asserted
   bit-identical before timing.  Acceptance target: >= 5x.
2. **Whole-sky batch** — a slice of the Question 3 campaign: N
   *distinct* 4° plates (runtime jitter keyed by plate index defeats
   both the workflow build cache and the sweep memoizer) simulated
   back-to-back under each kernel.  This is the campaign-scale picture:
   lowering is amortized across plates via the kernel's per-workflow
   cache, matching how ``SweepExecutor`` replays one mosaic family.
3. **Batched sweeps** — the same sweep executed three ways: one
   ``run_fast_kernel_batch`` call (the DAG is lowered once and every
   configuration replays against shared derived vectors), independent
   per-run fast-kernel calls, and the event engine.  Two shapes are
   timed: Question 1's full 128-point processor ladder on one plate
   (``batch.q1_sweep``) and per-plate provisioning ladders across N
   distinct whole-sky plates (``batch.whole_sky_sweep``).  All three
   ways must agree bit-for-bit (``results_identical``); the committed
   ``speedup_vs_per_run_fast`` for the Q1 ladder is gated at >= 1.5x
   by ``perf_guard.py``.
4. **Monte Carlo grid** — a (probability, seed) failure grid on the 1°
   plate executed by ``run_monte_carlo`` (one lowering, shared derived
   vectors, vectorized failure draws, summary-only) vs. one event-engine
   run per cell with a fresh ``FailureModel``.  Every cell must match
   the event engine exactly (``results_identical``); the committed
   ``speedup_vs_event`` is gated at >= 3x by ``perf_guard.py``.
5. **Full report** — cold ``run_all(fast=True)`` wall clock with the
   kernel in its default ``auto`` mode vs. pinned to the event engine.

Invoked as ``kernel_bench.py grid``, it instead runs the **campaign
grid** benchmark and writes ``BENCH_campaign.json``: a >=100k-cell
(plate x processors x probability x seed) campaign executed by
``repro.grid.run_grid`` in columnar ``summary_only`` mode, compared
against the per-cell fast-kernel loop (one ``run_fast_kernel`` call and
one fresh ``FailureModel`` per cell — what a campaign costs without the
grid engine), with a subsampled differential audit against the event
engine and a two-size RSS measurement asserting memory grows
sublinearly in cell count.

Usage::

    PYTHONPATH=src python benchmarks/kernel_bench.py [all|grid]
    [--plates N] [--repeats N] [--skip-report] [--campaign-seeds N]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUTPUT = BENCH_DIR / "BENCH_kernel.json"
CAMPAIGN_OUTPUT = BENCH_DIR / "BENCH_campaign.json"

#: The campaign's failure-probability axis.  Per-task failure rates on
#: the paper-era grids sat well under 1%, so the sweep concentrates
#: there (with one zero row and a 2% tail) — which is also the regime
#: where the columnar engine's exact failure-free dedup pays off.
CAMPAIGN_PROBABILITIES = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02)
CAMPAIGN_PROCESSORS = (4, 8, 16, 32)


def _best(fn, repeats: int) -> tuple[float, list[float]]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), times


def per_run_speedup(repeats: int) -> dict:
    from repro.montage.generator import montage_workflow
    from repro.sim import simulate

    wf = montage_workflow(4.0)
    kwargs = dict(data_mode="cleanup", record_trace=False)

    event_result = simulate(wf, 128, kernel="event", **kwargs)
    fast_result = simulate(wf, 128, kernel="fast", **kwargs)
    identical = event_result == fast_result
    if not identical:
        raise SystemExit("fast kernel result differs from event engine")

    event_s, event_all = _best(
        lambda: simulate(wf, 128, kernel="event", **kwargs), repeats
    )
    fast_s, fast_all = _best(
        lambda: simulate(wf, 128, kernel="fast", **kwargs), repeats
    )
    return {
        "workflow": "montage-4deg (3027 tasks)",
        "config": "cleanup, 128 processors, record_trace=False",
        "repeats": repeats,
        "event_best_seconds": event_s,
        "event_mean_seconds": statistics.mean(event_all),
        "fast_best_seconds": fast_s,
        "fast_mean_seconds": statistics.mean(fast_all),
        "speedup_best": event_s / fast_s,
        "results_identical": identical,
    }


def whole_sky_batch(n_plates: int) -> dict:
    """Time N distinct 4-degree plates under each kernel, serially."""
    from repro.montage.generator import montage_workflow
    from repro.sim import simulate

    plates = [
        montage_workflow(
            4.0, jitter=0.05, seed=i, name=f"sky-plate-{i:04d}"
        )
        for i in range(n_plates)
    ]
    kwargs = dict(data_mode="cleanup", record_trace=False)

    # The resident plate corpus is millions of objects; without freezing
    # it, generational GC rescans it mid-loop and the measurement is of
    # the collector, not the simulator.
    import gc

    gc.collect()
    gc.freeze()
    try:
        timings = {}
        for kernel in ("event", "fast"):
            start = time.perf_counter()
            makespans = [
                simulate(wf, 128, kernel=kernel, **kwargs).makespan
                for wf in plates
            ]
            timings[kernel] = time.perf_counter() - start
    finally:
        gc.unfreeze()
    sky_total = 3900
    return {
        "n_plates": n_plates,
        "config": "cleanup, 128 processors, record_trace=False",
        "distinct_makespans": len(set(makespans)),
        "event_seconds": timings["event"],
        "fast_seconds": timings["fast"],
        "speedup": timings["event"] / timings["fast"],
        "projected_whole_sky_event_seconds": (
            timings["event"] / n_plates * sky_total
        ),
        "projected_whole_sky_fast_seconds": (
            timings["fast"] / n_plates * sky_total
        ),
    }


def batch_q1_sweep(repeats: int) -> dict:
    """Question 1's processor ladder (P = 1..128), three ways.

    The batched path lowers the 4-degree DAG once and replays all 128
    configurations through ``run_fast_kernel_batch``; the per-run path
    makes 128 independent ``simulate(kernel="fast")`` calls (each hits
    the lowering cache but rebuilds its derived state); the event path
    is ground truth.  All three result lists must be bit-identical.
    """
    from repro.montage.generator import montage_workflow
    from repro.sim import ExecutionEnvironment, KernelConfig, simulate
    from repro.sim.kernel import run_fast_kernel_batch

    wf = montage_workflow(4.0)
    ladder = list(range(1, 129))
    kwargs = dict(data_mode="cleanup", record_trace=False)
    configs = [
        KernelConfig(
            environment=ExecutionEnvironment(
                n_processors=p, record_trace=False
            ),
            data_mode="cleanup",
        )
        for p in ladder
    ]

    def run_batched():
        return run_fast_kernel_batch(wf, configs)

    def run_per_run():
        return [simulate(wf, p, kernel="fast", **kwargs) for p in ladder]

    batched = run_batched()
    per_run = run_per_run()
    start = time.perf_counter()
    event = [simulate(wf, p, kernel="event", **kwargs) for p in ladder]
    event_s = time.perf_counter() - start
    identical = batched == per_run == event
    if not identical:
        raise SystemExit("batched kernel diverged from per-run/event runs")

    batch_s, batch_all = _best(run_batched, repeats)
    fast_s, fast_all = _best(run_per_run, repeats)
    return {
        "workflow": "montage-4deg (3027 tasks)",
        "config": "cleanup, processors 1..128, record_trace=False",
        "n_configs": len(ladder),
        "repeats": repeats,
        "batched_best_seconds": batch_s,
        "batched_mean_seconds": statistics.mean(batch_all),
        "per_run_fast_best_seconds": fast_s,
        "per_run_fast_mean_seconds": statistics.mean(fast_all),
        "event_seconds": event_s,
        "speedup_vs_per_run_fast": fast_s / batch_s,
        "speedup_vs_event": event_s / batch_s,
        "results_identical": identical,
    }


def batch_whole_sky_sweep(n_plates: int) -> dict:
    """Per-plate provisioning ladders over N distinct plates, batched.

    Each plate is swept over a small processor ladder — the shape
    ``SweepExecutor`` dispatches when a sweep mixes plates: one batch
    per workflow fingerprint.  Timed once per way (the plate corpus is
    too large to rebuild per repeat); identity is still asserted.
    """
    from repro.montage.generator import montage_workflow
    from repro.sim import ExecutionEnvironment, KernelConfig, simulate
    from repro.sim.kernel import run_fast_kernel_batch

    ladder = (8, 32, 128)
    plates = [
        montage_workflow(
            4.0, jitter=0.05, seed=i, name=f"sky-plate-{i:04d}"
        )
        for i in range(n_plates)
    ]
    kwargs = dict(data_mode="cleanup", record_trace=False)
    configs = [
        KernelConfig(
            environment=ExecutionEnvironment(
                n_processors=p, record_trace=False
            ),
            data_mode="cleanup",
        )
        for p in ladder
    ]

    import gc

    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        batched = [run_fast_kernel_batch(wf, configs) for wf in plates]
        batch_s = time.perf_counter() - start

        start = time.perf_counter()
        per_run = [
            [simulate(wf, p, kernel="fast", **kwargs) for p in ladder]
            for wf in plates
        ]
        fast_s = time.perf_counter() - start

        start = time.perf_counter()
        event = [
            [simulate(wf, p, kernel="event", **kwargs) for p in ladder]
            for wf in plates
        ]
        event_s = time.perf_counter() - start
    finally:
        gc.unfreeze()
    identical = batched == per_run == event
    if not identical:
        raise SystemExit("whole-sky batched results diverged")
    return {
        "n_plates": n_plates,
        "ladder": list(ladder),
        "config": "cleanup, record_trace=False",
        "batched_seconds": batch_s,
        "per_run_fast_seconds": fast_s,
        "event_seconds": event_s,
        "speedup_vs_per_run_fast": fast_s / batch_s,
        "speedup_vs_event": event_s / batch_s,
        "results_identical": identical,
    }


def montecarlo_grid(repeats: int) -> dict:
    """A >=100-cell (probability, seed) grid, Monte Carlo vs per-run event.

    ``run_monte_carlo`` lowers the 1-degree DAG once, shares its derived
    vectors across all cells, pre-draws each seed's uniform stream with
    one vectorized generator call, and skips trace/curve materialization
    (summary-only).  The reference is one event-engine ``simulate`` per
    cell with a fresh ``FailureModel`` — exactly what a robustness sweep
    cost before this entry point existed.  Cell-by-cell equality is
    asserted before timing.
    """
    from repro.montage.generator import montage_workflow
    from repro.sim import ExecutionEnvironment, KernelConfig, simulate
    from repro.sim.failures import FailureModel
    from repro.sim.kernel import run_monte_carlo

    wf = montage_workflow(1.0)
    probabilities = (0.0, 0.02, 0.05, 0.10)
    seeds = list(range(30))
    max_retries = 25
    config = KernelConfig(
        environment=ExecutionEnvironment(
            n_processors=16, record_trace=False
        )
    )

    def run_mc():
        return run_monte_carlo(
            wf, config, probabilities, seeds, max_retries=max_retries
        )

    def run_event():
        out = []
        for prob in probabilities:
            for seed in seeds:
                out.append(
                    simulate(
                        wf, 16, record_trace=False,
                        failures=FailureModel(
                            prob, seed=seed, max_retries=max_retries
                        ),
                        kernel="event",
                    )
                )
        return out

    cells = run_mc()
    start = time.perf_counter()
    event = run_event()
    event_s = time.perf_counter() - start
    identical = not any(c.aborted for c in cells) and [
        c.result for c in cells
    ] == event
    if not identical:
        raise SystemExit("Monte Carlo cells diverged from event engine")

    mc_s, mc_all = _best(run_mc, repeats)
    n_cells = len(probabilities) * len(seeds)
    return {
        "workflow": "montage-1deg",
        "config": "regular, 16 processors, summary-only",
        "probabilities": list(probabilities),
        "n_seeds": len(seeds),
        "n_cells": n_cells,
        "max_retries": max_retries,
        "repeats": repeats,
        "montecarlo_best_seconds": mc_s,
        "montecarlo_mean_seconds": statistics.mean(mc_all),
        "event_seconds": event_s,
        "speedup_vs_event": event_s / mc_s,
        "cells_per_second": n_cells / mc_s,
        "results_identical": identical,
    }


def _campaign_plan(n_plates: int, n_seeds: int):
    from repro.grid import GridPlan
    from repro.montage.generator import montage_workflow

    plates = tuple(
        montage_workflow(
            1.0, jitter=0.05, seed=i, name=f"campaign-{i:04d}"
        )
        for i in range(n_plates)
    )
    return GridPlan(
        plates=plates,
        processors=CAMPAIGN_PROCESSORS,
        probabilities=CAMPAIGN_PROBABILITIES,
        seeds=tuple(range(n_seeds)),
    )


_RSS_CHILD = """\
import json, resource, sys
from repro.grid import run_grid
from repro.sweep.cache import SimCache
sys.path.insert(0, {src!r})
sys.path.insert(0, {bench!r})
from kernel_bench import _campaign_plan
plan = _campaign_plan({n_plates}, {n_seeds})
result = run_grid(plan, shards=8, cache=SimCache())
print(json.dumps({{
    "n_cells": plan.n_cells,
    "maxrss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    * 1024,
    "n_aborted": result.n_aborted,
}}))
"""


def _campaign_rss(n_plates: int, n_seeds: int) -> dict:
    """Peak RSS of a fresh process running the campaign at one size."""
    import subprocess
    import sys

    script = _RSS_CHILD.format(
        src=str(REPO_ROOT / "src"),
        bench=str(BENCH_DIR),
        n_plates=n_plates,
        n_seeds=n_seeds,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SWEEP_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def campaign_grid(n_plates: int, n_seeds: int) -> dict:
    """The >=100k-cell campaign: columnar run_grid vs per-cell fast loop.

    The columnar measurement is the real engine end to end —
    ``run_grid`` with the default shard count, content-hash partition,
    merge and all — against a memory-only cache so no checkpoint is
    reused.  The baseline is the loop a campaign would run without
    ``repro.grid``: one ``run_fast_kernel`` call plus one fresh
    ``FailureModel`` per cell.  It is timed on a representative
    subsample (every ladder/probability block of one plate over a seed
    prefix) and extrapolated by rate; cells are independent, so the
    per-cell rate is size-stable.  The differential audit re-runs
    sampled cells from *every shard* on the event engine and compares
    all summary metrics bit for bit.
    """
    import gc

    from repro.grid import plan_shards, run_grid
    from repro.grid.result import _METRICS
    from repro.sim import ExecutionEnvironment, simulate
    from repro.sim.failures import FailureModel
    from repro.sim.kernel import run_fast_kernel
    from repro.sweep.cache import SimCache

    plan = _campaign_plan(n_plates, n_seeds)
    n_cells = plan.n_cells

    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        result = run_grid(plan, shards=8, cache=SimCache())
        grid_s = time.perf_counter() - start

        # Per-cell fast-kernel baseline, subsampled and rate-extrapolated.
        base_seeds = plan.seeds[: min(40, len(plan.seeds))]
        wf = plan.plates[0]
        sub = 0
        start = time.perf_counter()
        for n_proc in plan.processors:
            env = ExecutionEnvironment(
                n_processors=n_proc,
                bandwidth_bytes_per_sec=plan.bandwidth_bytes_per_sec,
            )
            for prob in plan.probabilities:
                for seed in base_seeds:
                    failures = (
                        FailureModel(
                            prob, seed=seed,
                            max_retries=plan.max_retries,
                        )
                        if prob > 0.0 else None
                    )
                    run_fast_kernel(
                        wf, env, plan.data_mode, failures=failures
                    )
                    sub += 1
        base_sub_s = time.perf_counter() - start
    finally:
        gc.unfreeze()

    grid_rate = n_cells / grid_s
    base_rate = sub / base_sub_s
    speedup = grid_rate / base_rate

    # Differential audit: sampled cells from every shard vs the event
    # engine, across the probability axis (0, mid, max).
    shards = plan_shards(plan, 8)
    audited = 0
    identical = True
    qs = (0, len(plan.probabilities) // 2, len(plan.probabilities) - 1)
    for shard in shards:
        pi = shard[0]
        for j, qi in enumerate(qs):
            ni = j % len(plan.processors)
            si = j % len(plan.seeds)
            row = result.row(pi, ni, qi, si)
            prob = plan.probabilities[qi]
            ref = simulate(
                plan.plates[pi],
                plan.processors[ni],
                plan.data_mode,
                record_trace=False,
                failures=(
                    FailureModel(
                        prob, seed=plan.seeds[si],
                        max_retries=plan.max_retries,
                    )
                    if prob > 0.0 else None
                ),
                kernel="event",
            )
            audited += 1
            for name in _METRICS:
                if getattr(row, name) != getattr(ref, name):
                    identical = False
    if not identical:
        raise SystemExit("campaign grid diverged from event engine")

    # Peak RSS at two campaign sizes (fresh subprocess each): memory
    # must grow sublinearly in cell count.
    small = _campaign_rss(n_plates, max(1, n_seeds // 4))
    large = _campaign_rss(n_plates, n_seeds)
    cell_ratio = large["n_cells"] / small["n_cells"]
    rss_ratio = large["maxrss_bytes"] / small["maxrss_bytes"]
    marginal = (
        (large["maxrss_bytes"] - small["maxrss_bytes"])
        / (large["n_cells"] - small["n_cells"])
    )
    if rss_ratio >= cell_ratio / 2:
        raise SystemExit(
            f"campaign RSS is not sublinear: {cell_ratio:.1f}x the cells "
            f"cost {rss_ratio:.2f}x the memory"
        )

    return {
        "workflow": "montage-1deg plates (203 tasks each)",
        "n_plates": n_plates,
        "processors": list(plan.processors),
        "probabilities": list(plan.probabilities),
        "n_seeds": n_seeds,
        "n_cells": n_cells,
        "max_retries": plan.max_retries,
        "shards": len(shards),
        "grid_seconds": grid_s,
        "cells_per_second": grid_rate,
        "per_cell_fast_subsample_cells": sub,
        "per_cell_fast_subsample_seconds": base_sub_s,
        "per_cell_fast_cells_per_second": base_rate,
        "per_cell_fast_projected_seconds": n_cells / base_rate,
        "speedup_vs_per_cell_fast": speedup,
        "n_aborted": int(result.n_aborted),
        "audited_cells": audited,
        "results_identical": identical,
        "rss": {
            "small_cells": small["n_cells"],
            "small_maxrss_bytes": small["maxrss_bytes"],
            "large_cells": large["n_cells"],
            "large_maxrss_bytes": large["maxrss_bytes"],
            "cell_ratio": cell_ratio,
            "rss_ratio": rss_ratio,
            "marginal_bytes_per_cell": marginal,
            "sublinear": rss_ratio < cell_ratio / 2,
        },
    }


def run_campaign(n_plates: int, n_seeds: int) -> int:
    """Run the campaign benchmark and write ``BENCH_campaign.json``."""
    report: dict = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    n_cells = (
        n_plates * len(CAMPAIGN_PROCESSORS)
        * len(CAMPAIGN_PROBABILITIES) * n_seeds
    )
    print(
        f"== campaign grid: {n_plates} plates x "
        f"{len(CAMPAIGN_PROCESSORS)}p x "
        f"{len(CAMPAIGN_PROBABILITIES)}q x {n_seeds} seeds "
        f"= {n_cells:,} cells =="
    )
    grid = campaign_grid(n_plates, n_seeds)
    report["campaign"] = grid
    print(
        f"  columnar {grid['grid_seconds']:.2f} s"
        f"  ({grid['cells_per_second']:,.0f} cells/s)"
        f"  per-cell fast {grid['per_cell_fast_projected_seconds']:.1f} s"
        f" projected ({grid['per_cell_fast_cells_per_second']:,.0f}"
        " cells/s)"
    )
    print(
        f"  speedup {grid['speedup_vs_per_cell_fast']:.2f}x"
        f"  audited {grid['audited_cells']} cells"
        f"  identical={grid['results_identical']}"
    )
    rss = grid["rss"]
    print(
        f"  rss {rss['small_maxrss_bytes'] / 1e6:.0f} MB"
        f" @ {rss['small_cells']:,} cells ->"
        f" {rss['large_maxrss_bytes'] / 1e6:.0f} MB"
        f" @ {rss['large_cells']:,} cells"
        f"  ({rss['marginal_bytes_per_cell']:.0f} B/cell,"
        f" sublinear={rss['sublinear']})"
    )
    CAMPAIGN_OUTPUT.write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {CAMPAIGN_OUTPUT}")
    return 0


def full_report(kernel: str) -> float:
    """Cold run_all(fast=True) wall clock with the kernel pinned."""
    from repro.experiments.runner import run_all
    from repro.sweep import clear_build_caches, reset_default_cache

    previous = os.environ.get("REPRO_SIM_KERNEL")
    os.environ["REPRO_SIM_KERNEL"] = kernel
    try:
        reset_default_cache()
        clear_build_caches()
        start = time.perf_counter()
        run_all(fast=True, stream=io.StringIO())
        return time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop("REPRO_SIM_KERNEL", None)
        else:
            os.environ["REPRO_SIM_KERNEL"] = previous
        reset_default_cache()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "section", nargs="?", choices=("all", "grid"),
        default="all",
        help="'all' runs the kernel benchmarks (BENCH_kernel.json); "
             "'grid' runs the campaign grid (BENCH_campaign.json)",
    )
    parser.add_argument(
        "--plates", type=int, default=12,
        help="distinct 4-degree plates in the whole-sky slice (default 12)",
    )
    parser.add_argument(
        "--campaign-plates", type=int, default=14,
        help="distinct 1-degree plates in the campaign grid (default 14)",
    )
    parser.add_argument(
        "--campaign-seeds", type=int, default=300,
        help="seeds per campaign cell block (default 300; the default "
             "grid is 14 x 4 x 6 x 300 = 100,800 cells)",
    )
    parser.add_argument(
        "--repeats", type=int, default=7,
        help="timing repetitions for the per-run comparison (default 7)",
    )
    parser.add_argument(
        "--skip-report", action="store_true",
        help="skip the full-report wall-clock measurement",
    )
    args = parser.parse_args(argv)

    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    os.environ.pop("REPRO_SIM_KERNEL", None)
    os.environ.pop("REPRO_SWEEP_CACHE", None)

    if args.section == "grid":
        return run_campaign(args.campaign_plates, args.campaign_seeds)

    report: dict = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }

    print("== per-run: Montage-4deg, cleanup, 128p, traces off ==")
    report["per_run"] = per_run_speedup(args.repeats)
    print(
        f"  event {report['per_run']['event_best_seconds'] * 1e3:.1f} ms"
        f"  fast {report['per_run']['fast_best_seconds'] * 1e3:.2f} ms"
        f"  speedup {report['per_run']['speedup_best']:.2f}x"
        f"  (identical={report['per_run']['results_identical']})"
    )

    print(f"== whole-sky slice: {args.plates} distinct plates ==")
    report["whole_sky"] = whole_sky_batch(args.plates)
    print(
        f"  event {report['whole_sky']['event_seconds']:.2f} s"
        f"  fast {report['whole_sky']['fast_seconds']:.2f} s"
        f"  speedup {report['whole_sky']['speedup']:.2f}x"
        f"  (projected 3,900 plates: "
        f"{report['whole_sky']['projected_whole_sky_event_seconds']:.0f} s"
        f" -> "
        f"{report['whole_sky']['projected_whole_sky_fast_seconds']:.0f} s)"
    )

    print("== batched kernel: Q1 processor ladder (1..128) ==")
    q1 = batch_q1_sweep(args.repeats)
    report["batch"] = {"q1_sweep": q1}
    print(
        f"  batched {q1['batched_best_seconds']:.2f} s"
        f"  per-run fast {q1['per_run_fast_best_seconds']:.2f} s"
        f"  event {q1['event_seconds']:.2f} s"
        f"  speedup {q1['speedup_vs_per_run_fast']:.2f}x vs per-run fast"
        f"  (identical={q1['results_identical']})"
    )

    print(
        f"== batched kernel: whole-sky ladders "
        f"({args.plates} plates x {{8,32,128}}p) =="
    )
    sky = batch_whole_sky_sweep(args.plates)
    report["batch"]["whole_sky_sweep"] = sky
    print(
        f"  batched {sky['batched_seconds']:.2f} s"
        f"  per-run fast {sky['per_run_fast_seconds']:.2f} s"
        f"  event {sky['event_seconds']:.2f} s"
        f"  speedup {sky['speedup_vs_per_run_fast']:.2f}x vs per-run fast"
        f"  (identical={sky['results_identical']})"
    )

    print("== Monte Carlo grid: 1deg, 4 probabilities x 30 seeds ==")
    mc = montecarlo_grid(args.repeats)
    report["montecarlo"] = mc
    print(
        f"  montecarlo {mc['montecarlo_best_seconds'] * 1e3:.1f} ms"
        f"  per-run event {mc['event_seconds']:.2f} s"
        f"  speedup {mc['speedup_vs_event']:.1f}x"
        f"  ({mc['cells_per_second']:.0f} cells/s,"
        f" identical={mc['results_identical']})"
    )

    if not args.skip_report:
        print("== full report (cold, fast=True) ==")
        auto_s = full_report("auto")
        event_s = full_report("event")
        report["full_report"] = {
            "auto_kernel_seconds": auto_s,
            "event_kernel_seconds": event_s,
            "speedup": event_s / auto_s,
        }
        print(
            f"  auto {auto_s:.2f} s  event {event_s:.2f} s"
            f"  speedup {event_s / auto_s:.2f}x"
        )

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
