"""CLI tests for the extension subcommands and flags."""

import pytest

from repro.cli import main
from repro.service.arrivals import ServiceRequest
from repro.service.scale import (
    FluidServiceEngine,
    montage_traffic,
    sample_traffic,
)
from repro.service.simulator import ServiceSimulator
from repro.util.units import MBPS, format_duration, format_money


class TestDataflowCommand:
    def test_dataflow_tables(self, capsys):
        assert main(["dataflow", "--degree", "1"]) == 0
        out = capsys.readouterr().out
        assert "reuse factor" in out
        assert "remote-io" in out
        assert "File fan-out" in out
        assert "Data volume per workflow level" in out
        # The template header feeds all 40 mProjects.
        assert "40" in out


class TestSimulateExtensionFlags:
    def test_boot_seconds_lengthens_run(self, capsys):
        main(["simulate", "--degree", "1", "--processors", "8"])
        base = capsys.readouterr().out
        main([
            "simulate", "--degree", "1", "--processors", "8",
            "--boot-seconds", "600",
        ])
        delayed = capsys.readouterr().out

        def makespan(text):
            for line in text.splitlines():
                if line.startswith("makespan"):
                    return line
            raise AssertionError("no makespan line")

        assert makespan(base) != makespan(delayed)

    def test_storage_capacity_flag(self, capsys):
        assert main([
            "simulate", "--degree", "1", "--mode", "cleanup",
            "--storage-capacity-gb", "0.7",
        ]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out

    def test_infeasible_capacity_errors(self):
        with pytest.raises(RuntimeError, match="storage capacity"):
            main([
                "simulate", "--degree", "1", "--mode", "cleanup",
                "--storage-capacity-gb", "0.1",
            ])


class TestServiceModeTrace:
    def test_service_with_trace_records(self, montage1):
        from repro.service.arrivals import ServiceRequest
        from repro.service.simulator import ServiceSimulator

        sim = ServiceSimulator(16, "cleanup", record_trace=True)
        res = sim.run([ServiceRequest("r0", montage1, 0.0)])
        records = res.outcomes[0].result.task_records
        assert len(records) == 203
        assert res.outcomes[0].result.storage_curve is not None

    def test_service_contended_link(self, montage1):
        from repro.service.arrivals import ServiceRequest
        from repro.service.simulator import ServiceSimulator

        free = ServiceSimulator(16).run(
            [ServiceRequest("r0", montage1, 0.0)]
        )
        queued = ServiceSimulator(16, link_contention=True).run(
            [ServiceRequest("r0", montage1, 0.0)]
        )
        assert queued.outcomes[0].response_time >= (
            free.outcomes[0].response_time - 1e-9
        )


def _service_table(text):
    """``metric -> value`` from the table ``repro service`` prints."""
    rows = {}
    for line in text.splitlines()[2:]:
        metric, _, value = line.rpartition("  ")
        rows[metric.strip()] = value.strip()
    return rows


class TestServiceCommand:
    def test_fluid_path_prints_the_engine_result(self, capsys):
        assert main([
            "service", "--requests-per-month", "20000", "--regions", "500",
            "--processors", "32", "--engine", "fluid",
        ]) == 0
        rows = _service_table(capsys.readouterr().out)
        sample = sample_traffic(montage_traffic(20_000, n_regions=500))
        result = FluidServiceEngine(32).run(sample)
        assert rows["engine"] == "fluid"
        assert rows["requests"] == f"{sample.n_requests:,}"
        assert rows["mean response (miss)"] == format_duration(
            result.miss_mean_response_time()
        )
        assert rows["p95 response (miss)"] == format_duration(
            result.miss_percentile_response_time(95.0)
        )
        assert rows["total cost"] == format_money(
            result.economics.total_cost
        )

    def test_event_path_simulates_the_requested_link(self, capsys):
        args = [
            "service", "--requests-per-month", "150", "--regions", "500",
            "--processors", "16", "--engine", "event",
        ]
        assert main(args + ["--bandwidth-mbps", "2"]) == 0
        slow = _service_table(capsys.readouterr().out)
        spec = montage_traffic(
            150, n_regions=500, bandwidth_bytes_per_sec=2 * MBPS
        )
        sample = sample_traffic(spec)
        misses = ~sample.hit
        workflow = spec.mix[0].workflow
        expected = ServiceSimulator(
            16, spec.data_mode, bandwidth_bytes_per_sec=2 * MBPS
        ).run([
            ServiceRequest(f"req-{i:07d}", workflow, float(t))
            for i, t in enumerate(sample.times[misses])
        ])
        assert slow["engine"] == "event"
        assert slow["misses simulated"] == f"{expected.n_requests:,}"
        assert slow["mean response (miss)"] == format_duration(
            expected.mean_response_time()
        )
        assert slow["p95 response (miss)"] == format_duration(
            expected.percentile_response_time(95.0)
        )
        # The default 10 Mbps link stages data in and out faster.
        assert main(args) == 0
        fast = _service_table(capsys.readouterr().out)
        assert fast["mean response (miss)"] != slow["mean response (miss)"]
