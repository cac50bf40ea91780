"""One ``paper_report`` pass in a fresh interpreter.

The report's module memos warm up across in-process repeats, so
``run.py`` starts this script once per pass::

    python3 perfbench/report_child.py --seed N --spawned-at T \
        [--trace] [--oracle]

``T`` is the parent's ``time.monotonic()`` just before the spawn; set-up
time runs from there to the start of the pass, so it covers interpreter
start, program import and cache resets.  Without ``--trace`` both times
are given at nominal host speed (``perfbench/speed.py``) and the raw pass
time is printed too.  ``--oracle`` also recomputes the failure study on
the event engine.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.speed import SpeedProbe

    # A traced pass is not probed: its spans must not hold probe time.
    probe = SpeedProbe()
    with contextlib.nullcontext() if args.trace else probe:
        from perfbench.run import peak_rss_mb, prepare_environment

        prepare_environment()
        from perfbench.workloads import PaperReport

        wl = PaperReport(args.seed)
        wl.load()
        if args.trace:
            from perfbench.layers import layer_metrics, traced
            from perfbench.tracing import Recorder

            rec = Recorder()
            with traced(rec, ("perfbench",)):
                wl.setup()
                setup_s = time.monotonic() - args.spawned_at
                out = wl.run()
        else:
            wl.setup()
            setup_s = time.monotonic() - args.spawned_at
            in_setup = probe.probe_s
            out = wl.run()
    raw_s, factor = out.wall_s, probe.factor()
    if not args.trace:
        raw_s -= probe.probe_s - in_setup
        setup_s = (setup_s - in_setup) / factor
        out.wall_s = raw_s / factor
    rss = peak_rss_mb()
    checks = wl.check(out, oracle=args.oracle)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": out.wall_s,
        "raw_wall_s": raw_s,
        "slowness": factor,
        "rss_mb": rss,
        "parts": out.keep["parts"],
        "failures": checks.failures,
        "paper_values_ok": checks.facts["paper_values_ok"],
        "layers": layer_metrics(rec) if args.trace else None,
        "spans": rec.as_rows() if args.trace else None,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
