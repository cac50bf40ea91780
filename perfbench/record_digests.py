"""Record the output digests the benchmark checks each pass against.

Run from the repository root, only when the program's results are meant
to change::

    python3 perfbench/record_digests.py [--seeds 0-63] [--workloads a,b]

Every workload runs once per seed with its output checks (event-engine
cross-checks, TTL replay, fluid error); a seed whose checks fail is not
recorded.  Seeds without a recorded digest still get those checks, and
their passes must agree with each other.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-63")
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.run import DIGESTS, WORKDIR, prepare_environment

    prepare_environment()
    from perfbench import workloads

    names = (args.workloads.split(",") if args.workloads
             else workloads.WORKLOADS)
    table = json.loads(DIGESTS.read_text())
    for name in names:
        for seed in _seeds(args.seeds):
            wl = workloads.make(name, seed, WORKDIR / "tmp")
            wl.load()
            out = wl.run(wl.setup())
            checks = wl.check(out)
            if checks.failures:
                print(f"{name} seed {seed}: NOT recorded: {checks.failures}")
                continue
            if name == "paper_report":
                parts = out.keep["parts"]
                entry = table.setdefault(name, {"failure": {}})
                entry["report"] = parts["report"]
                entry["studies"] = parts["studies"]
                entry["failure"][str(seed)] = parts["failure"]
            else:
                table.setdefault(name, {})[str(seed)] = out.digest
            print(f"{name} seed {seed}: {out.digest[:16]}", flush=True)
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
