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


class TestErrors:
    def test_removed_bench_command_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--degree", "0.3"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fnord"])

    def test_dax_requires_output(self):
        with pytest.raises(SystemExit):
            main(["dax", "--degree", "1"])
