"""Workflow analysis tests: CCR, critical path, parallelism, stats."""

import pytest

from repro.core.costs import compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008
from repro.sim.executor import simulate
from repro.util.units import MBPS
from repro.workflow.analysis import (
    communication_to_computation_ratio,
    critical_path,
    critical_path_length,
    data_footprint,
    level_widths,
    max_parallelism,
    workflow_stats,
)
from repro.workflow.dag import FileSpec, Task, Workflow, build_workflow
from repro.workflow.generators import (
    chain_workflow,
    diamond_workflow,
    example_figure3_workflow,
    fork_join_workflow,
)


class TestCCR:
    def test_definition(self):
        # 3 tasks x 100 s; 4 files x 1.25 MB; B = 10 Mbps = 1.25 MB/s.
        wf = chain_workflow(3, runtime=100.0, file_size=1.25e6)
        # sum sizes / B = 4 s of transfer per 300 s of compute.
        assert communication_to_computation_ratio(
            wf, 10 * MBPS
        ) == pytest.approx(4.0 / 300.0)

    def test_scales_inversely_with_bandwidth(self):
        wf = chain_workflow(3)
        slow = communication_to_computation_ratio(wf, 1 * MBPS)
        fast = communication_to_computation_ratio(wf, 10 * MBPS)
        assert slow == pytest.approx(10 * fast)

    def test_montage_bandwidth_sensitivity(self, montage1):
        # Sweeping the link instead of the file sizes shows the paper's
        # data-intensity effect from the infrastructure side.
        plan = ExecutionPlan.provisioned(8, "regular")
        spans, totals = [], []
        for mbps in (1.0, 10.0, 100.0, 1000.0):
            result = simulate(
                montage1, 8, "regular",
                bandwidth_bytes_per_sec=mbps * MBPS, record_trace=False,
            )
            spans.append(result.makespan)
            totals.append(compute_cost(result, AWS_2008, plan).total)
        assert spans == sorted(spans, reverse=True)  # faster link, faster
        assert totals == sorted(totals, reverse=True)
        assert communication_to_computation_ratio(
            montage1, 1.0 * MBPS
        ) == pytest.approx(0.53, abs=1e-5)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            communication_to_computation_ratio(chain_workflow(1), 0.0)

    def test_zero_runtime_rejected(self):
        wf = build_workflow(
            "z",
            [FileSpec("a", 1.0), FileSpec("b", 1.0)],
            [Task("t", 0.0, inputs=("a",), outputs=("b",))],
        )
        with pytest.raises(ValueError):
            communication_to_computation_ratio(wf)


class TestCriticalPath:
    def test_chain_is_whole_runtime(self):
        wf = chain_workflow(5, runtime=10.0)
        length, path = critical_path(wf)
        assert length == pytest.approx(50.0)
        assert path == [f"t{i}" for i in range(5)]

    def test_fork_join(self):
        wf = fork_join_workflow(8, runtime=10.0)
        assert critical_path_length(wf) == pytest.approx(20.0)

    def test_skewed_runtimes_pick_longest_branch(self):
        wf = Workflow("skew")
        for name in ("a", "b", "c", "d"):
            wf.add_file(FileSpec(name, 1.0))
        wf.add_task(Task("root", 1.0, inputs=("a",), outputs=("b", "c")))
        wf.add_task(Task("short", 1.0, inputs=("b",), outputs=()))
        wf.add_task(Task("long", 100.0, inputs=("c",), outputs=("d",)))
        length, path = critical_path(wf)
        assert length == pytest.approx(101.0)
        assert path == ["root", "long"]

    def test_empty_workflow(self):
        assert critical_path(Workflow("empty")) == (0.0, [])


class TestParallelism:
    def test_chain_is_serial(self):
        assert max_parallelism(chain_workflow(10)) == 1

    def test_fork_join_width(self):
        assert max_parallelism(fork_join_workflow(13)) == 13

    def test_figure3(self):
        # Levels 1/2/3/4 have 1/2/3/1 tasks; with equal runtimes the free
        # schedule runs whole levels together.
        assert max_parallelism(example_figure3_workflow()) == 3

    def test_empty(self):
        assert max_parallelism(Workflow("empty")) == 0

    def test_skew_can_beat_level_width(self):
        # Two chains of different task lengths overlap across levels.
        wf = Workflow("skew")
        for name in ("a1", "a2", "b1", "b2", "mid"):
            wf.add_file(FileSpec(name, 1.0))
        wf.add_task(Task("fast", 1.0, inputs=("a1",), outputs=("mid",)))
        wf.add_task(Task("fast2", 10.0, inputs=("mid",), outputs=("a2",)))
        wf.add_task(Task("slow", 5.0, inputs=("b1",), outputs=("b2",)))
        # free schedule: fast [0,1], fast2 [1,11], slow [0,5]
        assert max_parallelism(wf) == 2
        assert level_widths(wf) == {1: 2, 2: 1}


class TestStats:
    def test_diamond_stats(self):
        wf = diamond_workflow(runtime=10.0, file_size=2e6)
        st = workflow_stats(wf)
        assert st.n_tasks == 4
        assert st.n_files == 6
        assert st.depth == 3
        assert st.total_runtime == pytest.approx(40.0)
        assert st.critical_path == pytest.approx(30.0)
        assert st.max_parallelism == 2
        assert st.footprint_bytes == pytest.approx(12e6)
        assert st.input_bytes == pytest.approx(2e6)
        assert st.output_bytes == pytest.approx(2e6)
        assert st.ccr == pytest.approx(data_footprint(wf) / (1.25e6 * 40.0))
