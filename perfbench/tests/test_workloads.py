import json
import shutil
import subprocess
import sys

import pytest

from perfbench.run import ROOT, recorded_digest
from perfbench.workloads import (
    CampaignGrid,
    PaperReport,
    ServiceMonth,
    WholeSky,
)


def _tiny(name, seed, tmp_path):
    return {
        "campaign_grid": lambda: CampaignGrid(
            seed, tmp_path, n_plates=2, n_seeds=3, shards=2
        ),
        "whole_sky": lambda: WholeSky(seed, n_plates=3, degree=1.0),
        "service_month": lambda: ServiceMonth(
            seed, requests_per_month=2e4, n_regions=500, processors=32
        ),
    }[name]()


@pytest.mark.parametrize("name", ["campaign_grid", "whole_sky",
                                  "service_month"])
def test_tiny_pass_is_checked_and_repeatable(name, tmp_path):
    first = _tiny(name, 5, tmp_path)
    first.load()
    out = first.run(first.setup())
    assert out.items > 0 and out.wall_s > 0
    assert first.check(out).failures == []
    again = _tiny(name, 5, tmp_path)
    assert again.run(again.setup()).digest == out.digest
    other = _tiny(name, 6, tmp_path)
    assert other.run(other.setup()).digest != out.digest


def test_traced_pass_gives_the_untraced_digest(tmp_path):
    from perfbench.layers import layer_metrics, traced
    from perfbench.tracing import Recorder

    wl = _tiny("whole_sky", 2, tmp_path)
    plain = wl.run(wl.setup())
    rec = Recorder()
    with traced(rec, ("perfbench",)):
        probed = wl.run(wl.setup(), probe=True)
    assert probed.digest == plain.digest
    metrics = layer_metrics(rec)
    assert metrics["montage.builds"] == 3
    assert metrics["sim.simulate_calls"] == 3
    assert metrics["core.cost_calls"] == 3
    assert metrics["sim.kernel.cold_call_s"] > 0
    assert metrics["sim.kernel.warm_call_s"] > 0


def test_paper_report_pass_matches_recorded_digests():
    wl = PaperReport(0)
    wl.load()
    wl.setup()
    out = wl.run()
    checks = wl.check(out)
    assert checks.failures == []
    assert checks.facts["paper_values_ok"] == 36
    for part, digest in out.keep["parts"].items():
        assert digest == recorded_digest("paper_report", 0, part)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "whole_sky",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
