"""Core DAG model tests."""

import math

import pytest

from repro.workflow.dag import (
    FileSpec,
    Task,
    Workflow,
    WorkflowValidationError,
    build_workflow,
)
from repro.workflow.generators import example_figure3_workflow


class TestFileSpec:
    def test_rejects_negative_size(self):
        with pytest.raises(WorkflowValidationError):
            FileSpec("f", -1.0)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_size(self, size):
        with pytest.raises(WorkflowValidationError, match="non-finite size"):
            FileSpec("f", size)

    def test_rejects_empty_name(self):
        with pytest.raises(WorkflowValidationError):
            FileSpec("", 1.0)

    def test_with_size(self):
        f = FileSpec("f", 1.0).with_size(2.0)
        assert f.size_bytes == 2.0
        assert f.name == "f"


class TestTask:
    def test_rejects_negative_runtime(self):
        with pytest.raises(WorkflowValidationError):
            Task("t", -1.0)

    @pytest.mark.parametrize("runtime", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_runtime(self, runtime):
        with pytest.raises(
            WorkflowValidationError, match="non-finite runtime"
        ):
            Task("t", runtime)

    def test_rejects_duplicate_inputs(self):
        with pytest.raises(
            WorkflowValidationError, match="'t' lists a duplicate input file"
        ):
            Task("t", 1.0, inputs=("a", "a"), outputs=("a", "a"))

    def test_rejects_duplicate_outputs(self):
        with pytest.raises(
            WorkflowValidationError, match="'t' lists a duplicate output file"
        ):
            Task("t", 1.0, inputs=("b",), outputs=("a", "a", "b"))

    def test_rejects_input_output_overlap(self):
        with pytest.raises(WorkflowValidationError) as err:
            Task("t", 1.0, inputs=("a", "b", "c"), outputs=("c", "a", "d"))
        assert str(err.value) == (
            "task 't' both consumes and produces ['a', 'c']"
        )


class TestConstruction:
    def test_duplicate_file_same_size_is_noop(self):
        wf = Workflow()
        wf.add_file(FileSpec("a", 5.0))
        wf.add_file(FileSpec("a", 5.0))
        assert len(wf.files) == 1

    def test_duplicate_file_different_size_rejected(self):
        wf = Workflow()
        wf.add_file(FileSpec("a", 5.0))
        with pytest.raises(WorkflowValidationError):
            wf.add_file(FileSpec("a", 6.0))

    def test_duplicate_task_rejected(self):
        wf = Workflow()
        wf.add_file(FileSpec("a", 1.0))
        wf.add_task(Task("t", 1.0, inputs=("a",)))
        with pytest.raises(WorkflowValidationError):
            wf.add_task(Task("t", 1.0, inputs=("a",)))

    def test_unregistered_file_rejected(self):
        wf = Workflow()
        with pytest.raises(WorkflowValidationError):
            wf.add_task(Task("t", 1.0, inputs=("ghost",)))

    def test_two_producers_rejected(self):
        wf = Workflow()
        wf.add_file(FileSpec("a", 1.0))
        wf.add_file(FileSpec("b", 1.0))
        wf.add_task(Task("t1", 1.0, inputs=("a",), outputs=("b",)))
        with pytest.raises(WorkflowValidationError):
            wf.add_task(Task("t2", 1.0, inputs=("a",), outputs=("b",)))

    def test_mark_output_unknown_file(self):
        wf = Workflow()
        with pytest.raises(WorkflowValidationError):
            wf.mark_output("ghost")

    def test_cycle_detected(self):
        wf = Workflow()
        for name in ("a", "b"):
            wf.add_file(FileSpec(name, 1.0))
        wf.add_task(Task("t1", 1.0, inputs=("a",), outputs=("b",)))
        wf.add_task(Task("t2", 1.0, inputs=("b",), outputs=("a",)))
        with pytest.raises(WorkflowValidationError, match="cycle"):
            wf.topological_order()

    def test_orphan_file_fails_validation(self):
        wf = Workflow()
        wf.add_file(FileSpec("orphan", 1.0))
        with pytest.raises(WorkflowValidationError, match="neither"):
            wf.validate()


class TestFigure3:
    """Structural assertions on the paper's Figure 3 example."""

    @pytest.fixture()
    def wf(self):
        return example_figure3_workflow()

    def test_task_and_file_counts(self, wf):
        assert len(wf) == 7
        assert len(wf.files) == 8

    def test_parents_children(self, wf):
        assert wf.parents("task0") == frozenset()
        assert wf.parents("task6") == {"task3", "task4", "task5"}
        assert wf.children("task0") == {"task1", "task2"}
        assert wf.children("task6") == frozenset()

    def test_roots_and_leaves(self, wf):
        assert wf.roots() == ["task0"]
        assert wf.leaves() == ["task6"]

    def test_levels_match_paper_definition(self, wf):
        levels = wf.levels()
        assert levels["task0"] == 1
        assert levels["task1"] == levels["task2"] == 2
        assert levels["task3"] == levels["task4"] == levels["task5"] == 3
        assert levels["task6"] == 4
        assert wf.depth() == 4

    def test_file_classification(self, wf):
        assert wf.input_files() == ["a"]
        # The paper: "files g and h ... are the net output of the workflow"
        assert sorted(wf.output_files()) == ["g", "h"]
        assert sorted(wf.intermediate_files()) == ["b", "c", "d", "e", "f"]

    def test_producers_consumers(self, wf):
        assert wf.producer_of("a") is None
        assert wf.producer_of("b") == "task0"
        assert wf.consumers_of("c") == {"task3", "task4"}
        assert wf.consumers_of("g") == frozenset()

    def test_edges(self, wf):
        edges = set(wf.edges())
        assert ("task0", "task1") in edges
        assert ("task5", "task6") in edges
        assert len(edges) == 8

    def test_aggregates(self, wf):
        assert wf.total_runtime() == pytest.approx(700.0)
        assert wf.total_file_bytes() == pytest.approx(8e6)
        assert wf.input_bytes() == pytest.approx(1e6)
        assert wf.output_bytes() == pytest.approx(2e6)

    def test_tasks_at_level(self, wf):
        assert wf.tasks_at_level(3) == ["task3", "task4", "task5"]

    def test_copy_is_equivalent(self, wf):
        cp = wf.copy()
        assert set(cp.tasks) == set(wf.tasks)
        assert set(cp.files) == set(wf.files)
        assert sorted(cp.output_files()) == sorted(wf.output_files())

    def test_with_file_sizes(self, wf):
        scaled = wf.with_file_sizes({"a": 5e6})
        assert scaled.file("a").size_bytes == 5e6
        assert scaled.file("b").size_bytes == 1e6
        assert wf.file("a").size_bytes == 1e6  # original untouched


class TestBuildWorkflow:
    def test_convenience_constructor(self):
        wf = build_workflow(
            "mini",
            [FileSpec("in", 1.0), FileSpec("out", 2.0)],
            [Task("t", 3.0, inputs=("in",), outputs=("out",))],
        )
        assert wf.name == "mini"
        assert "t" in wf
        assert wf.output_files() == ["out"]

    def test_count_by_transformation(self):
        wf = build_workflow(
            "mini",
            [FileSpec("a", 1.0), FileSpec("b", 1.0), FileSpec("c", 1.0)],
            [
                Task("t1", 1.0, inputs=("a",), outputs=("b",), transformation="x"),
                Task("t2", 1.0, inputs=("b",), outputs=("c",), transformation="x"),
            ],
        )
        assert wf.count_by_transformation() == {"x": 2}
