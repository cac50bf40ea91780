"""End-to-end benchmark of the Montage cost reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``paper_report``, ``campaign_grid``, ``whole_sky`` and
``service_month`` (``BENCHMARK.json`` says why each exists).  The run
repeats timed passes of the workload for about ``S`` seconds (at least
two), checks the outputs outside the timed passes, prints a readable
summary, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(program import plus per-pass set-up, median), ``wall_s`` (median pass),
``peak_rss_mb`` and ``items_per_s``.  The times are in seconds at nominal
host speed: the shared host's speed drifts up to twofold with its other
tenants' load, so each pass samples it (``perfbench/speed.py``) and is
divided by how much slower than nominal the host ran meanwhile; the
readable summary also prints the raw median pass (``raw_wall_s``) and
that slowness.  With ``--trace 1`` untraced and
traced passes alternate; the traced ones wrap every layer's public entry
points (``perfbench/layers.py``) and the metrics are the per-layer ones,
medians over traced passes, plus ``trace.overhead_s`` (traced minus
untraced median pass).  Spans and per-pass figures are written to
``.perfbench/`` in the repository root.

A pass fails if it raises or its output digest differs from the one
recorded for the seed in ``digests.json`` (or, for an unrecorded seed,
from the first pass); every pass fails if the workload's output checks
do.  ``paper_report`` runs every pass in a fresh interpreter
(``perfbench/report_child.py``); the others run in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space and trace output, inside the checkout.
WORKDIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: A child that runs this long has hung.
CHILD_TIMEOUT_S = 150
#: Every run times at least this many passes, even past ``--seconds``.
MIN_PASSES = 2

clock = time.perf_counter


def program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def prepare_environment() -> None:
    """Pin the program's knobs and make ``perfbench``/``repro`` importable.

    Every ``REPRO_*`` variable is dropped so the caller's shell cannot
    change what is measured; the sweep executor runs serially because
    worker fan-out was slower and noisier than serial on 2 CPUs.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_SWEEP_WORKERS"] = "1"
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def recorded_digest(workload: str, seed: int, part: str | None = None):
    """The digest recorded for this seed, or None if none was."""
    table = json.loads(DIGESTS.read_text())[workload]
    if part is None:
        return table.get(str(seed))
    entry = table[part]
    return entry.get(str(seed)) if isinstance(entry, dict) else entry


def machine_facts(seed: int, counts: dict) -> dict:
    import importlib.util

    import numpy

    from repro.sweep.executor import resolve_workers

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "sweep_workers": resolve_workers(),
        "grid_workers": resolve_workers(1),
        "seed": seed,
        **counts,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _another_pass(durations: list[float], deadline: float) -> bool:
    """Start a pass only if a typical one still ends before the deadline."""
    if len(durations) < MIN_PASSES:
        return True
    return clock() + _median(durations) <= deadline


# ------------------------------------------------------------------ #
# measuring: both return {"passes", "checks", "facts", "setup_s", "rss_mb"}
# where each pass has "traced", "ok" and, unless it raised, "wall_s"
# (at nominal host speed), "raw_wall_s", "slowness", "items", "item_ms",
# "layers" and "spans".
# ------------------------------------------------------------------ #
def measure_in_process(wl, seconds: float, trace: bool) -> dict:
    from perfbench.layers import layer_metrics, traced
    from perfbench.speed import SpeedProbe
    from perfbench.tracing import Recorder

    with SpeedProbe() as probe:
        start = clock()
        wl.load()
        import_s = (clock() - start - probe.probe_s) / probe.factor()
    deadline = clock() + seconds
    passes: list[dict] = []
    durations: list[float] = []
    first = None
    while _another_pass(durations, deadline):
        began = clock()
        tracing = trace and len(passes) % 2 == 1
        rec = Recorder() if tracing else None
        try:
            if tracing:
                with traced(rec, ("perfbench",)):
                    t0 = clock()
                    state = wl.setup()
                    setup_s = clock() - t0
                    out = wl.run(state, probe=True)
                raw_s, factor = out.wall_s, 1.0
            else:
                with SpeedProbe() as probe:
                    t0 = clock()
                    state = wl.setup()
                    setup_s = clock() - t0
                    in_setup = probe.probe_s
                    out = wl.run(state)
                raw_s = out.wall_s - (probe.probe_s - in_setup)
                factor = probe.factor()
                setup_s = (setup_s - in_setup) / factor
                out.wall_s = raw_s / factor
        except Exception:
            passes.append({"traced": tracing, "ok": False,
                           "error": traceback.format_exc()})
            break
        del state
        if first is None and not tracing:
            first = out
        passes.append({
            "traced": tracing,
            "setup_s": setup_s,
            "wall_s": out.wall_s,
            "raw_wall_s": raw_s,
            "slowness": factor,
            "items": out.items,
            "item_ms": out.item_ms,
            "digest": out.digest,
            "layers": layer_metrics(rec) if tracing else None,
            "spans": rec.as_rows() if tracing else None,
        })
        if out is not first:
            out.keep = None
        durations.append(clock() - began)
    rss = peak_rss_mb()
    if first is None:
        return {"passes": passes, "checks": ["no pass completed"],
                "facts": {}}

    checks = wl.check(first)
    recorded = recorded_digest(wl.name, wl.seed)
    for p in passes:
        if "error" not in p:
            p["ok"] = p["digest"] == (recorded or first.digest)
    setups = [p["setup_s"] for p in passes if "error" not in p]
    return {
        "passes": passes,
        "checks": checks.failures,
        "facts": {**checks.facts, "digest_recorded": recorded is not None},
        "setup_s": import_s + _median(setups),
        "rss_mb": rss,
    }


def measure_report(seed: int, seconds: float, trace: bool) -> dict:
    """paper_report: one fresh interpreter per pass."""
    script = Path(__file__).resolve().parent / "report_child.py"
    deadline = clock() + seconds
    passes: list[dict] = []
    durations: list[float] = []
    while _another_pass(durations, deadline):
        began = clock()
        tracing = trace and len(passes) % 2 == 1
        cmd = [sys.executable, str(script), "--seed", str(seed)]
        if not passes:
            cmd.append("--oracle")
        if tracing:
            cmd.append("--trace")
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            passes.append({"traced": tracing, "ok": False,
                           "error": "timeout"})
            break
        if proc.returncode != 0:
            passes.append({"traced": tracing, "ok": False,
                           "error": proc.stderr})
            break
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        passes.append({**child, "traced": tracing, "items": 1,
                       "item_ms": []})
        durations.append(clock() - began)

    good = [p for p in passes if "error" not in p]
    if not good:
        return {"passes": passes, "checks": ["no pass completed"],
                "facts": {}}
    expected = {
        part: recorded_digest("paper_report", seed, part)
        for part in ("report", "studies", "failure")
    }
    recorded = expected["failure"] is not None
    if not recorded:
        expected["failure"] = good[0]["parts"]["failure"]
    for p in good:
        p["ok"] = not p["failures"] and p["parts"] == expected
    return {
        "passes": passes,
        # the first child also ran the event-engine cross-check
        "checks": good[0]["failures"],
        "facts": {
            "paper_values_ok": min(p["paper_values_ok"] for p in good),
            "digest_recorded": recorded,
        },
        "setup_s": _median([p["setup_s"] for p in good]),
        "rss_mb": _median([p["rss_mb"] for p in good]),
    }


def summarize(run: dict, trace: bool) -> tuple[int, int, dict, dict]:
    """(attempted, failed, metrics, printed-only facts) of one run."""
    from perfbench.layers import METRICS

    passes = run["passes"]
    failed = (len(passes) if run["checks"]
              else sum(not p["ok"] for p in passes))
    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    if trace:
        layers = [p["layers"] for p in good if p["traced"]]
        metrics = {
            name: _median([row[name] for row in layers]) for name in METRICS
        }
        # Traced passes are not probed, so both sides are raw times.
        metrics["trace.overhead_s"] = (
            _median([p["raw_wall_s"] for p in good if p["traced"]])
            - _median([p["raw_wall_s"] for p in plain])
        )
        return len(passes), failed, metrics, {}
    metrics = {
        "setup_s": run["setup_s"],
        "wall_s": _median(walls),
        "peak_rss_mb": run["rss_mb"],
        "items_per_s": sum(p["items"] for p in plain) / sum(walls),
    }
    facts = {
        "items_per_pass": plain[0]["items"],
        "raw_wall_s": _median([p["raw_wall_s"] for p in plain]),
        "host_slowness": _median([p["slowness"] for p in plain]),
        "passes": len(plain),
        **run["facts"],
    }
    item_ms = [ms for p in plain for ms in p["item_ms"]]
    if item_ms:
        facts["plate_p50_ms"] = _percentile(item_ms, 0.5)
        facts["plate_p90_ms"] = _percentile(item_ms, 0.9)
        facts["plate_samples"] = len(item_ms)
    return len(passes), failed, metrics, facts


# ------------------------------------------------------------------ #
_END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                     "items_per_s": "1/s"}

_FACT_UNITS = {"paper_values_ok": "/36", "fluid_error": "ratio",
               "plate_p50_ms": "ms", "plate_p90_ms": "ms",
               "raw_wall_s": "s", "host_slowness": "x nominal"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not program_present():
        print(f"no program under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    prepare_environment()
    from perfbench import workloads
    from perfbench.layers import METRICS

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    wl = workloads.make(args.workload, args.seed, WORKDIR / "tmp")
    if args.workload == "paper_report":
        run = measure_report(args.seed, args.seconds, trace)
    else:
        run = measure_in_process(wl, args.seconds, trace)
    for p in run["passes"]:
        if "error" in p:
            sys.stderr.write(p["error"])
    for failure in run["checks"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    done = [p for p in run["passes"] if "error" not in p]
    if not any(not p["traced"] for p in done) or (
        trace and not any(p["traced"] for p in done)
    ):
        print("no pass completed; no result", file=sys.stderr)
        return 1
    attempted, failed, metrics, facts = summarize(run, trace)

    machine = machine_facts(args.seed, wl.counts())
    WORKDIR.mkdir(exist_ok=True)
    record = (WORKDIR /
              f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record.write_text(json.dumps(
        {"workload": args.workload, "machine": machine, "run": run,
         "attempted": attempted, "failed": failed, "metrics": metrics},
        default=str,
    ))

    units = METRICS if trace else _END_TO_END_UNITS
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    if not trace:
        print(f"  {wl.item + 's_per_s':<28} "
              f"{metrics['items_per_s']:>14.6g} 1/s")
        print(f"  {'error_rate':<28} {failed / attempted:>14.6g} "
              f"({failed}/{attempted} passes)")
        for name, value in facts.items():
            print(f"  {name:<28} {value:>14.6g} "
                  f"{_FACT_UNITS.get(name, '')}")
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
