"""Campaign memory: peak RSS grows sublinearly in the number of cells.

Each size runs in a fresh interpreter, so one run's peak resident set
cannot hide inside the other's.  The plan is the 100,800-cell campaign
(14 jittered 1-degree plates x P{4,8,16,32} x 6 failure probabilities x
300 seeds) and the same plan at a quarter of the seeds.  The grid runs
with one worker, so every shard's buffers live in the measured process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

SRC = Path(__file__).resolve().parents[2] / "src"

#: Ceiling on the resident memory one extra campaign cell may cost.
MAX_MARGINAL_BYTES_PER_CELL = 2048.0

_CHILD = """\
import json, resource, sys
from repro.grid import GridPlan, run_grid
from repro.montage.generator import montage_workflow
from repro.sweep.cache import SimCache

plan = GridPlan(
    plates=tuple(
        montage_workflow(1.0, jitter=0.05, seed=i, name=f"campaign-{i:04d}")
        for i in range(14)
    ),
    processors=(4, 8, 16, 32),
    probabilities=(0.0, 0.001, 0.002, 0.005, 0.01, 0.02),
    seeds=tuple(range(int(sys.argv[1]))),
)
result = run_grid(plan, shards=8, workers=1, cache=SimCache())
print(json.dumps({
    "n_cells": plan.n_cells,
    "n_aborted": result.n_aborted,
    "maxrss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
}))
"""


def _campaign(n_seeds: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(n_seeds)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_campaign_rss_is_sublinear_in_cells():
    small = _campaign(75)
    large = _campaign(300)
    assert (small["n_cells"], large["n_cells"]) == (25_200, 100_800)
    assert small["n_aborted"] == large["n_aborted"] == 0
    cell_ratio = large["n_cells"] / small["n_cells"]
    rss_ratio = large["maxrss_bytes"] / small["maxrss_bytes"]
    marginal = (large["maxrss_bytes"] - small["maxrss_bytes"]) / (
        large["n_cells"] - small["n_cells"]
    )
    assert rss_ratio < cell_ratio / 2, (
        f"{cell_ratio:.1f}x the cells cost {rss_ratio:.2f}x the memory"
    )
    assert marginal <= MAX_MARGINAL_BYTES_PER_CELL, (
        f"{marginal:.0f} B per extra cell"
    )
