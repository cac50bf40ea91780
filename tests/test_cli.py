"""CLI tests (every subcommand, through the public entry point)."""

import pytest

from repro.cli import main


class TestInfo:
    def test_montage_info(self, capsys):
        assert main(["info", "--degree", "1"]) == 0
        out = capsys.readouterr().out
        assert "203" in out
        assert "mProject" in out
        assert "0.0530" in out

    def test_info_from_dax(self, capsys, tmp_path):
        path = tmp_path / "wf.xml"
        assert main(["dax", "--degree", "1", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["info", "--dax", str(path)]) == 0
        assert "203" in capsys.readouterr().out


class TestSimulate:
    def test_provisioned(self, capsys):
        assert main([
            "simulate", "--degree", "1", "--processors", "8",
            "--mode", "cleanup",
        ]) == 0
        out = capsys.readouterr().out
        assert "cleanup" in out
        assert "TOTAL" in out
        assert "provisioned" in out

    def test_on_demand_and_contended(self, capsys):
        assert main([
            "simulate", "--degree", "1", "--on-demand", "--contended",
        ]) == 0
        out = capsys.readouterr().out
        assert "on-demand" in out

    def test_trace_dir(self, capsys, tmp_path):
        d = tmp_path / "trace"
        assert main([
            "simulate", "--degree", "1", "--trace-dir", str(d),
        ]) == 0
        assert (d / "tasks.csv").exists()
        assert (d / "storage.csv").exists()

    def test_custom_bandwidth_slows_run(self, capsys):
        main(["simulate", "--degree", "1", "--processors", "1"])
        fast = capsys.readouterr().out
        main(["simulate", "--degree", "1", "--processors", "1",
              "--bandwidth-mbps", "0.5"])
        slow = capsys.readouterr().out
        assert fast != slow

    def test_kernel_choice_is_invisible_in_output(self, capsys):
        base = ["simulate", "--degree", "1", "--mode", "cleanup"]
        assert main([*base, "--kernel", "event"]) == 0
        event_out = capsys.readouterr().out
        assert main([*base, "--kernel", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert fast_out == event_out

    def test_kernel_fast_handles_contended_link(self, capsys):
        # Contended links run on the fast kernel now (batched-kernel
        # PR); the output must match the event engine's exactly.
        base = ["simulate", "--degree", "1", "--contended"]
        assert main([*base, "--kernel", "event"]) == 0
        event_out = capsys.readouterr().out
        assert main([*base, "--kernel", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert fast_out == event_out


class TestSweepsAndModes:
    def test_sweep_custom_ladder(self, capsys):
        assert main(["sweep", "--degree", "1", "--processors", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "procs" in out
        assert out.count("\n") >= 4

    def test_modes(self, capsys):
        assert main(["modes", "--degree", "1"]) == 0
        out = capsys.readouterr().out
        for mode in ("remote-io", "regular", "cleanup"):
            assert mode in out

    def test_ccr(self, capsys):
        assert main([
            "ccr", "--degree", "1", "--values", "0.1,1", "--processors", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "CCR" in out
        assert "4 processors" in out


class TestGanttAndReport:
    def test_gantt(self, capsys):
        assert main(["gantt", "--degree", "1", "--processors", "4"]) == 0
        out = capsys.readouterr().out
        assert "p000 |" in out
        assert "mProject" in out

    def test_report_fast(self, capsys):
        assert main(["report", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out


class TestBench:
    BASE = ["bench", "--degree", "0.3", "--processors", "2",
            "--seeds", "2", "--repeats", "1"]

    def test_bench_table(self, capsys):
        import re

        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        rows = dict(
            re.split(r"\s{2,}", line.strip(), maxsplit=1)
            for line in out.splitlines()[2:]
            if line.strip()
        )
        assert list(rows) == [
            "workflow", "processors", "grid cells", "best pass", "cells/s",
        ]
        assert rows["workflow"] == "montage-0.3deg"
        assert rows["processors"] == "2"
        assert rows["grid cells"] == "6"  # 3 probabilities x 2 seeds
        assert rows["best pass"].endswith(" ms")

    def test_bench_profile_written(self, capsys, tmp_path):
        path = tmp_path / "profile.txt"
        assert main([*self.BASE, "--profile", "--output", str(path)]) == 0
        assert f"profile written: {path}" in capsys.readouterr().out
        assert "run_monte_carlo" in path.read_text(encoding="utf-8")

    def test_bench_compare_notes_one_sided_sections(self, capsys, tmp_path):
        import json
        from pathlib import Path

        committed = (
            Path(__file__).resolve().parents[1]
            / "benchmarks" / "BENCH_kernel.json"
        )
        new = json.loads(committed.read_text(encoding="utf-8"))
        # An artifact from before the compiled-core sections were
        # dropped: same timings, plus three sections NEW lacks.
        old = dict(new)
        for section in ("jit", "contention", "capacity"):
            assert section not in new
            old[section] = {
                "requested": "auto",
                "available": False,
                "reason": "backend unavailable",
            }
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(old), encoding="utf-8")
        assert main(["bench", "--compare", str(old_path), str(committed)]) == 0
        out = capsys.readouterr().out
        for section in ("capacity", "contention", "jit"):
            assert f"note: section {section!r} present only in OLD" in out
        assert "present only in NEW" not in out
        assert "per_run.speedup_best" in out
        assert "1.00x" in out

    def test_bench_compare_unreadable_artifact(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert main(["bench", "--compare", missing, missing]) == 1
        assert "cannot compare bench artifacts" in capsys.readouterr().out

    def test_removed_jit_flag_is_rejected(self):
        with pytest.raises(SystemExit):
            main([*self.BASE, "--jit", "off"])


class TestErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fnord"])

    def test_dax_requires_output(self):
        with pytest.raises(SystemExit):
            main(["dax", "--degree", "1"])
