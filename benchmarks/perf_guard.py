"""Performance guard: simulator microbenchmarks + sweep-layer timings.

Runs the ``group="perf"`` pytest-benchmark suite (engine event
throughput, 4° end-to-end simulations) and then times the full report
harness three ways:

1. serial, cold cache — the baseline cost of every unique sweep point;
2. serial, warm cache — the memoization payoff (everything is a hit);
3. fan-out with ``REPRO_SWEEP_WORKERS`` workers, cold cache.

Results land in ``BENCH_sweep.json`` next to this script: engine
events/second, per-scenario ``run_all(fast=True)`` wall seconds,
speedups, and the sweep cache hit statistics.  Machine facts
(cpu count, python version) are recorded so numbers from a 1-core
container are not mistaken for a parallel-scaling claim.

The script is also a regression *gate*: the fresh ``perf_suite`` means
are compared against the committed ``BENCH_sweep.json`` before it is
overwritten, and any benchmark slower than the baseline by more than the
tolerance (default 25%, override via ``REPRO_PERF_TOLERANCE``, e.g.
``0.4`` for 40%) makes the script exit non-zero.  The batched-kernel
numbers in ``BENCH_kernel.json`` are gated too: ``batch.q1_sweep`` must
report ``results_identical`` and a ``speedup_vs_per_run_fast`` of at
least 1.5x, and ``montecarlo`` must report ``results_identical`` and a
``speedup_vs_event`` of at least 3x (both floors relaxed by the same
tolerance).  A *missing* required section fails with a clear message
naming the section and how to regenerate it (never a bare
``KeyError``).  The campaign numbers in ``BENCH_campaign.json`` are gated
as well: at least 100k cells, ``results_identical``, a
``speedup_vs_per_cell_fast`` of at least 5x, a cells/second floor, and
sublinear RSS growth with a per-cell marginal-memory ceiling.  The
service numbers in ``BENCH_service.json`` are gated too: at the 10⁶
requests/month point the fluid engine must beat the event engine's
projected wall time by at least 100x with a requests/second floor
(both tolerance-relaxed), its mean response-time error against the
event engine on the replayed windows must stay within 5% (absolute),
and at least 3 validation windows must be present.
``--report-only``
prints the comparison but always exits 0 (what CI uses on pull
requests, where shared-runner noise would make a hard gate flaky).

Usage::

    PYTHONPATH=src python benchmarks/perf_guard.py [--workers N]
    [--full]  # time run_all(fast=False) instead (slower, more points)
    [--report-only]  # compare against baseline but never fail
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUTPUT = BENCH_DIR / "BENCH_sweep.json"
KERNEL_BENCH = BENCH_DIR / "BENCH_kernel.json"
CAMPAIGN_BENCH = BENCH_DIR / "BENCH_campaign.json"
SERVICE_BENCH = BENCH_DIR / "BENCH_service.json"

#: Environment override for the allowed fractional slowdown (0.25 = 25%).
TOLERANCE_ENV = "REPRO_PERF_TOLERANCE"
DEFAULT_TOLERANCE = 0.25

#: The batched fast kernel must beat per-run fast-kernel calls on the
#: Question 1 ladder by this factor (the issue's acceptance floor).
BATCH_SPEEDUP_FLOOR = 1.5

#: run_monte_carlo must beat per-cell event-engine execution of the
#: same (probability, seed) grid by this factor (the issue's
#: acceptance floor for the Monte Carlo entry point).
MONTECARLO_SPEEDUP_FLOOR = 3.0

#: The columnar campaign grid must beat the per-cell fast-kernel loop
#: by this factor on the >=100k-cell campaign (the issue's acceptance
#: floor for repro.grid).
CAMPAIGN_SPEEDUP_FLOOR = 5.0

#: Absolute throughput floor for the campaign grid (cells/second),
#: relaxed by the tolerance like the speedup floors.
CAMPAIGN_CELLS_PER_SECOND_FLOOR = 2500.0

#: The campaign benchmark must cover at least this many cells for its
#: numbers to mean anything (absolute — not tolerance-relaxed).
CAMPAIGN_MIN_CELLS = 100_000

#: Ceiling on the marginal resident-memory cost of one extra campaign
#: cell (a SUMMARY_DTYPE row is ~112 bytes; allow allocator slack),
#: relaxed by the tolerance.
CAMPAIGN_RSS_BYTES_PER_CELL_CEILING = 2048.0

#: The fluid service engine must beat the event engine's projected
#: wall time at 10⁶ requests/month by this factor (the issue's
#: acceptance floor), relaxed by the tolerance.
SERVICE_SPEEDUP_FLOOR = 100.0

#: Ceiling on the fluid engine's mean relative error of the miss-path
#: response time against the event engine over the replayed validation
#: windows.  Absolute — accuracy is not a machine-speed question.
SERVICE_ERROR_CEILING = 0.05

#: Absolute throughput floor for the fluid engine (sampled requests per
#: wall-clock second, including traffic sampling), tolerance-relaxed.
SERVICE_REQUESTS_PER_SECOND_FLOOR = 200_000.0

#: The validation must cover at least this many non-empty windows for
#: its error statistics to mean anything (absolute).
SERVICE_MIN_WINDOWS = 3

#: The benchmark must run at the gated traffic level (absolute).
SERVICE_MIN_REQUESTS = 900_000


def _require_section(
    data: dict, dotted: str, artifact: str, hint: str
) -> tuple[dict | None, str | None]:
    """Resolve a dotted section path in a bench artifact.

    Returns ``(section, None)`` when present, ``(None, failure_line)``
    when any component is missing — the gate then fails with that clear
    line instead of a bare ``KeyError`` from deep inside a check.
    """
    node: object = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None, (
                f"  {artifact}: required section {dotted!r} is missing "
                f"({hint})"
            )
        node = node[part]
    if not isinstance(node, dict):
        return None, (
            f"  {artifact}: section {dotted!r} is not an object ({hint})"
        )
    return node, None


def resolve_tolerance() -> float:
    env = os.environ.get(TOLERANCE_ENV)
    if env is None:
        return DEFAULT_TOLERANCE
    try:
        tolerance = float(env)
    except ValueError:
        raise SystemExit(
            f"{TOLERANCE_ENV} must be a number, got {env!r}"
        ) from None
    if tolerance < 0:
        raise SystemExit(f"{TOLERANCE_ENV} must be >= 0, got {tolerance}")
    return tolerance


def compare_to_baseline(
    baseline: dict | None, fresh: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Compare fresh ``perf_suite`` stats against the committed baseline.

    Returns ``(lines, regressions)``: human-readable comparison lines for
    every benchmark present in both runs, and the subset describing
    benchmarks slower than ``baseline * (1 + tolerance)``.  Benchmarks
    missing from either side are reported but never fail the gate, so
    adding or retiring a benchmark does not require lock-step baseline
    updates.
    """
    lines: list[str] = []
    regressions: list[str] = []
    base_suite = (baseline or {}).get("perf_suite", {})
    for name, entry in fresh.items():
        base = base_suite.get(name)
        if base is None or not base.get("mean_seconds"):
            lines.append(f"  {name}: no baseline (new benchmark)")
            continue
        ratio = entry["mean_seconds"] / base["mean_seconds"]
        line = (
            f"  {name}: {entry['mean_seconds']:.4f} s vs baseline "
            f"{base['mean_seconds']:.4f} s ({ratio:.2f}x)"
        )
        if ratio > 1.0 + tolerance:
            line += f"  REGRESSION (>{tolerance:.0%} slower)"
            regressions.append(line)
        lines.append(line)
    for name in base_suite:
        if name not in fresh:
            lines.append(f"  {name}: present in baseline only (retired?)")
    return lines, regressions


def check_kernel_batch(tolerance: float) -> list[str]:
    """Gate the batched-kernel numbers committed in BENCH_kernel.json.

    Returns failure lines (empty list = pass).  The 1.5x floor is
    relaxed by the tolerance so shared-runner noise in the committed
    numbers does not flap the gate; ``results_identical`` is absolute.
    """
    if not KERNEL_BENCH.exists():
        return [
            f"  {KERNEL_BENCH.name}: missing (run benchmarks/kernel_bench.py)"
        ]
    try:
        data = json.loads(KERNEL_BENCH.read_text())
    except (OSError, ValueError):
        return [f"  {KERNEL_BENCH.name}: unreadable"]
    q1, err = _require_section(
        data, "batch.q1_sweep", KERNEL_BENCH.name,
        "re-run benchmarks/kernel_bench.py",
    )
    if err:
        return [err]
    failures = []
    if not q1.get("results_identical"):
        failures.append(
            "  batch.q1_sweep.results_identical is not true — the batched "
            "kernel no longer reproduces per-run results"
        )
    floor = BATCH_SPEEDUP_FLOOR / (1.0 + tolerance)
    speedup = q1.get("speedup_vs_per_run_fast") or 0.0
    if speedup < floor:
        failures.append(
            f"  batch.q1_sweep.speedup_vs_per_run_fast {speedup:.2f}x below "
            f"the {BATCH_SPEEDUP_FLOOR}x floor "
            f"(tolerance-adjusted: {floor:.2f}x)"
        )
    mc, err = _require_section(
        data, "montecarlo", KERNEL_BENCH.name,
        "re-run benchmarks/kernel_bench.py",
    )
    if err:
        failures.append(err)
        return failures
    if not mc.get("results_identical"):
        failures.append(
            "  montecarlo.results_identical is not true — run_monte_carlo "
            "no longer reproduces per-cell event-engine results"
        )
    mc_floor = MONTECARLO_SPEEDUP_FLOOR / (1.0 + tolerance)
    mc_speedup = mc.get("speedup_vs_event") or 0.0
    if mc_speedup < mc_floor:
        failures.append(
            f"  montecarlo.speedup_vs_event {mc_speedup:.2f}x below "
            f"the {MONTECARLO_SPEEDUP_FLOOR}x floor "
            f"(tolerance-adjusted: {mc_floor:.2f}x)"
        )
    return failures


def check_campaign(tolerance: float) -> list[str]:
    """Gate the campaign-grid numbers committed in BENCH_campaign.json.

    Returns failure lines (empty list = pass).  Speedup, throughput and
    the per-cell RSS ceiling are relaxed by the tolerance;
    ``results_identical``, the cell-count floor and RSS sublinearity
    are absolute.
    """
    if not CAMPAIGN_BENCH.exists():
        return [
            f"  {CAMPAIGN_BENCH.name}: missing "
            "(run benchmarks/kernel_bench.py grid)"
        ]
    try:
        data = json.loads(CAMPAIGN_BENCH.read_text())
    except (OSError, ValueError):
        return [f"  {CAMPAIGN_BENCH.name}: unreadable"]
    campaign = data.get("campaign")
    if campaign is None:
        return [
            f"  {CAMPAIGN_BENCH.name}: no campaign section "
            "(re-run benchmarks/kernel_bench.py grid)"
        ]
    failures = []
    n_cells = campaign.get("n_cells") or 0
    if n_cells < CAMPAIGN_MIN_CELLS:
        failures.append(
            f"  campaign.n_cells {n_cells:,} below the "
            f"{CAMPAIGN_MIN_CELLS:,}-cell floor"
        )
    if not campaign.get("results_identical"):
        failures.append(
            "  campaign.results_identical is not true — the columnar "
            "grid no longer reproduces event-engine results"
        )
    floor = CAMPAIGN_SPEEDUP_FLOOR / (1.0 + tolerance)
    speedup = campaign.get("speedup_vs_per_cell_fast") or 0.0
    if speedup < floor:
        failures.append(
            f"  campaign.speedup_vs_per_cell_fast {speedup:.2f}x below "
            f"the {CAMPAIGN_SPEEDUP_FLOOR}x floor "
            f"(tolerance-adjusted: {floor:.2f}x)"
        )
    rate_floor = CAMPAIGN_CELLS_PER_SECOND_FLOOR / (1.0 + tolerance)
    rate = campaign.get("cells_per_second") or 0.0
    if rate < rate_floor:
        failures.append(
            f"  campaign.cells_per_second {rate:,.0f} below the "
            f"{CAMPAIGN_CELLS_PER_SECOND_FLOOR:,.0f} floor "
            f"(tolerance-adjusted: {rate_floor:,.0f})"
        )
    rss = campaign.get("rss") or {}
    if not rss.get("sublinear"):
        failures.append(
            "  campaign.rss.sublinear is not true — peak RSS no longer "
            "grows sublinearly in cell count"
        )
    ceiling = CAMPAIGN_RSS_BYTES_PER_CELL_CEILING * (1.0 + tolerance)
    marginal = rss.get("marginal_bytes_per_cell")
    if marginal is None or marginal > ceiling:
        failures.append(
            f"  campaign.rss.marginal_bytes_per_cell "
            f"{marginal if marginal is not None else 'missing'} over the "
            f"{CAMPAIGN_RSS_BYTES_PER_CELL_CEILING:.0f} B ceiling "
            f"(tolerance-adjusted: {ceiling:.0f} B)"
        )
    return failures


def check_service(tolerance: float) -> list[str]:
    """Gate the service-engine numbers committed in BENCH_service.json.

    Returns failure lines (empty list = pass).  Speedup and throughput
    floors are relaxed by the tolerance; the error ceiling, window
    count and request-count floors are absolute.
    """
    if not SERVICE_BENCH.exists():
        return [
            f"  {SERVICE_BENCH.name}: missing "
            "(run benchmarks/service_bench.py)"
        ]
    try:
        data = json.loads(SERVICE_BENCH.read_text())
    except (OSError, ValueError):
        return [f"  {SERVICE_BENCH.name}: unreadable"]
    service = data.get("service")
    if service is None:
        return [
            f"  {SERVICE_BENCH.name}: no service section "
            "(re-run benchmarks/service_bench.py)"
        ]
    failures = []
    n_requests = service.get("n_requests") or 0
    if n_requests < SERVICE_MIN_REQUESTS:
        failures.append(
            f"  service.n_requests {n_requests:,} below the "
            f"{SERVICE_MIN_REQUESTS:,} floor (benchmark must run at "
            "the 10^6 requests/month point)"
        )
    n_windows = service.get("n_windows") or 0
    if n_windows < SERVICE_MIN_WINDOWS:
        failures.append(
            f"  service.n_windows {n_windows} below the "
            f"{SERVICE_MIN_WINDOWS}-window floor"
        )
    error = service.get("mean_response_error")
    if error is None or error > SERVICE_ERROR_CEILING:
        failures.append(
            f"  service.mean_response_error "
            f"{error if error is not None else 'missing'} over the "
            f"{SERVICE_ERROR_CEILING:.0%} ceiling — the fluid model no "
            "longer tracks the event engine"
        )
    floor = SERVICE_SPEEDUP_FLOOR / (1.0 + tolerance)
    speedup = service.get("speedup_vs_event_projected") or 0.0
    if speedup < floor:
        failures.append(
            f"  service.speedup_vs_event_projected {speedup:.0f}x below "
            f"the {SERVICE_SPEEDUP_FLOOR:.0f}x floor "
            f"(tolerance-adjusted: {floor:.0f}x)"
        )
    rate_floor = SERVICE_REQUESTS_PER_SECOND_FLOOR / (1.0 + tolerance)
    rate = service.get("requests_per_second") or 0.0
    if rate < rate_floor:
        failures.append(
            f"  service.requests_per_second {rate:,.0f} below the "
            f"{SERVICE_REQUESTS_PER_SECOND_FLOOR:,.0f} floor "
            f"(tolerance-adjusted: {rate_floor:,.0f})"
        )
    return failures


def run_perf_benchmark_suite() -> dict:
    """Run the group="perf" pytest-benchmark suite; return its stats."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "perf.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(BENCH_DIR / "test_bench_simulator_perf.py"),
                "--benchmark-only",
                "--benchmark-min-rounds=3",
                f"--benchmark-json={json_path}",
                "-q",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit("perf benchmark suite failed")
        data = json.loads(json_path.read_text())

    out = {}
    for bench in data["benchmarks"]:
        name = bench["name"]
        mean = bench["stats"]["mean"]
        entry = {"mean_seconds": mean, "rounds": bench["stats"]["rounds"]}
        if name == "test_bench_perf_engine_event_throughput":
            entry["events_per_second"] = 50_000 / mean
        out[name] = entry
    return out


def _timed_run_all(fast: bool) -> tuple[float, str, dict]:
    """One cold run_all() in this process; returns (secs, text, cache stats)."""
    from repro.experiments.runner import run_all
    from repro.sweep import clear_build_caches, default_cache, reset_default_cache

    reset_default_cache()
    clear_build_caches()
    sink = io.StringIO()
    start = time.perf_counter()
    text = run_all(fast=fast, stream=sink)
    elapsed = time.perf_counter() - start
    cache = default_cache()
    stats = {
        "entries": len(cache),
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": cache.hit_rate,
    }
    return elapsed, text, stats


def _timed_warm_rerun(fast: bool) -> tuple[float, str]:
    """A second run_all() against the already-populated default cache."""
    from repro.experiments.runner import run_all

    sink = io.StringIO()
    start = time.perf_counter()
    text = run_all(fast=fast, stream=sink)
    return time.perf_counter() - start, text


def _subprocess_run_all(fast: bool, workers: int) -> float:
    """Cold run_all() in a fresh interpreter with REPRO_SWEEP_WORKERS set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_SWEEP_WORKERS"] = str(workers)
    env.pop("REPRO_SWEEP_CACHE", None)
    code = (
        "import io, time\n"
        "from repro.experiments.runner import run_all\n"
        "t = time.perf_counter()\n"
        f"run_all(fast={fast!r}, stream=io.StringIO())\n"
        "print(time.perf_counter() - t)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run_all with {workers} workers failed")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker count for the fan-out scenario (default 4)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="time run_all(fast=False) instead of the fast subset",
    )
    parser.add_argument(
        "--skip-pytest", action="store_true",
        help="skip the pytest-benchmark suite (sweep timings only)",
    )
    parser.add_argument(
        "--report-only", action="store_true",
        help="report baseline regressions without failing the run",
    )
    args = parser.parse_args(argv)
    fast = not args.full

    sys.path.insert(0, str(REPO_ROOT / "src"))
    os.environ.pop("REPRO_SWEEP_WORKERS", None)
    os.environ.pop("REPRO_SWEEP_CACHE", None)

    report: dict = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_all_fast": fast,
    }

    baseline = None
    if OUTPUT.exists():
        try:
            baseline = json.loads(OUTPUT.read_text())
        except (OSError, ValueError):
            print(f"warning: unreadable baseline {OUTPUT}, gate skipped")

    regressions: list[str] = []
    if not args.skip_pytest:
        print("== pytest-benchmark group='perf' ==")
        report["perf_suite"] = run_perf_benchmark_suite()
        for name, entry in report["perf_suite"].items():
            extra = (
                f", {entry['events_per_second']:,.0f} events/s"
                if "events_per_second" in entry
                else ""
            )
            print(f"  {name}: {entry['mean_seconds']:.4f} s{extra}")

        tolerance = resolve_tolerance()
        print(f"== baseline comparison (tolerance {tolerance:.0%}) ==")
        lines, regressions = compare_to_baseline(
            baseline, report["perf_suite"], tolerance
        )
        for line in lines:
            print(line)

    print("== batched-kernel gate (BENCH_kernel.json) ==")
    kernel_failures = check_kernel_batch(resolve_tolerance())
    if kernel_failures:
        for line in kernel_failures:
            print(line)
        regressions.extend(kernel_failures)
    else:
        print(
            f"  batch.q1_sweep ok "
            f"(speedup >= {BATCH_SPEEDUP_FLOOR}x, results identical); "
            f"montecarlo ok "
            f"(speedup >= {MONTECARLO_SPEEDUP_FLOOR}x, results identical)"
        )

    print("== campaign-grid gate (BENCH_campaign.json) ==")
    campaign_failures = check_campaign(resolve_tolerance())
    if campaign_failures:
        for line in campaign_failures:
            print(line)
        regressions.extend(campaign_failures)
    else:
        print(
            f"  campaign ok (>= {CAMPAIGN_MIN_CELLS:,} cells, "
            f"speedup >= {CAMPAIGN_SPEEDUP_FLOOR}x, "
            "results identical, RSS sublinear)"
        )

    print("== service-engine gate (BENCH_service.json) ==")
    service_failures = check_service(resolve_tolerance())
    if service_failures:
        for line in service_failures:
            print(line)
        regressions.extend(service_failures)
    else:
        print(
            f"  service ok (speedup >= {SERVICE_SPEEDUP_FLOOR:.0f}x, "
            f"mean error <= {SERVICE_ERROR_CEILING:.0%}, "
            f">= {SERVICE_MIN_WINDOWS} windows)"
        )

    print("== run_all timings ==")
    serial_s, serial_text, cold_stats = _timed_run_all(fast)
    print(f"  serial cold:  {serial_s:.3f} s "
          f"({cold_stats['misses']} simulations, "
          f"{cold_stats['hits']} cache hits)")
    warm_s, warm_text = _timed_warm_rerun(fast)
    print(f"  serial warm:  {warm_s:.3f} s (all cache hits)")
    if warm_text != serial_text:
        raise SystemExit("warm rerun produced different report text")
    parallel_s = _subprocess_run_all(fast, args.workers)
    print(f"  {args.workers} workers:    {parallel_s:.3f} s "
          f"(cold, cpu_count={os.cpu_count()})")

    report["run_all"] = {
        "serial_cold_seconds": serial_s,
        "serial_warm_seconds": warm_s,
        "parallel_cold_seconds": parallel_s,
        "parallel_workers": args.workers,
        "warm_speedup_vs_cold": serial_s / warm_s if warm_s else None,
        "parallel_speedup_vs_serial": (
            serial_s / parallel_s if parallel_s else None
        ),
        "warm_report_identical": warm_text == serial_text,
    }
    report["sweep_cache"] = cold_stats

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    if regressions:
        print("== perf regressions ==")
        for line in regressions:
            print(line)
        if args.report_only:
            print("(report-only mode: not failing)")
        else:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
