"""Montage workflow generator tests."""

import gc
import weakref

import pytest

from repro.montage.generator import montage_workflow
from repro.montage.profiles import profile_for_degree
from repro.workflow.analysis import (
    communication_to_computation_ratio,
    critical_path,
    level_widths,
)


class TestStructure:
    def test_task_counts(self, montage1, montage2, montage4):
        assert len(montage1) == 203
        assert len(montage2) == 731
        assert len(montage4) == 3027

    def test_transformation_counts(self, montage1):
        counts = montage1.count_by_transformation()
        assert counts["mProject"] == 40
        assert counts["mDiffFit"] == 118
        assert counts["mBackground"] == 40
        for single in ("mConcatFit", "mBgModel", "mImgtbl", "mAdd", "mShrink"):
            assert counts[single] == 1

    def test_depth_is_eight_levels(self, montage1):
        assert montage1.depth() == 8

    def test_level_structure(self, montage1):
        widths = level_widths(montage1)
        # mProject / mDiffFit / mConcatFit / mBgModel / mBackground /
        # mImgtbl / mAdd / mShrink
        assert widths == {1: 40, 2: 118, 3: 1, 4: 1, 5: 40, 6: 1, 7: 1, 8: 1}

    def test_same_level_same_transformation(self, montage1):
        """The paper: all tasks at a level invoke the same routine."""
        levels = montage1.levels()
        by_level = {}
        for tid, task in montage1.tasks.items():
            by_level.setdefault(levels[tid], set()).add(task.transformation)
        assert all(len(kinds) == 1 for kinds in by_level.values())

    def test_diff_fit_reads_two_projected_images(self, montage1):
        task = montage1.task("mDiffFit_00000")
        assert len(task.inputs) == 2
        assert all(name.startswith("proj_") for name in task.inputs)

    def test_every_mproject_reads_the_template(self, montage1):
        for i in range(40):
            assert "template.hdr" in montage1.task(f"mProject_{i:04d}").inputs

    def test_madd_reads_all_corrected_images(self, montage1):
        task = montage1.task("mAdd")
        # images.tbl + 40 corrected + 40 area files
        assert len(task.inputs) == 81

    def test_outputs_are_mosaic_and_preview(self, montage1):
        assert sorted(montage1.output_files()) == [
            "mosaic.fits",
            "mosaic_small.fits",
        ]

    def test_inputs_are_rawimages_and_template(self, montage1):
        inputs = montage1.input_files()
        assert "template.hdr" in inputs
        assert sum(1 for f in inputs if f.startswith("raw_")) == 40
        assert len(inputs) == 41


class TestCalibration:
    @pytest.mark.parametrize("degree,ccr", [(1.0, 0.053), (2.0, 0.053), (4.0, 0.045)])
    def test_workflow_ccr_matches_paper(self, degree, ccr, request):
        wf = request.getfixturevalue(f"montage{int(degree)}")
        assert communication_to_computation_ratio(wf) == pytest.approx(
            ccr, rel=1e-9
        )

    def test_total_runtime_matches_profile(self, montage1):
        prof = profile_for_degree(1.0)
        assert montage1.total_runtime() == pytest.approx(prof.total_runtime())

    def test_footprint_matches_profile_closed_form(self, montage1):
        prof = profile_for_degree(1.0)
        assert montage1.total_file_bytes() == pytest.approx(
            prof.footprint_bytes()
        )

    def test_critical_path_spans_all_levels(self, montage1):
        length, path = critical_path(montage1)
        kinds = [montage1.task(t).transformation for t in path]
        assert kinds == [
            "mProject",
            "mDiffFit",
            "mConcatFit",
            "mBgModel",
            "mBackground",
            "mImgtbl",
            "mAdd",
            "mShrink",
        ]
        assert length == pytest.approx(montage1.task(path[0]).runtime * 0 + sum(
            montage1.task(t).runtime for t in path
        ))


class TestJitter:
    def test_zero_jitter_is_uniform_per_type(self, montage1):
        runtimes = {
            t.runtime for t in montage1.tasks.values()
            if t.transformation == "mProject"
        }
        assert len(runtimes) == 1

    def test_jitter_preserves_total_runtime(self):
        base = montage_workflow(1.0)
        jittered = montage_workflow(1.0, jitter=0.3, seed=42)
        assert jittered.total_runtime() == pytest.approx(
            base.total_runtime(), rel=1e-12
        )

    def test_jitter_varies_individual_tasks(self):
        jittered = montage_workflow(1.0, jitter=0.3, seed=42)
        runtimes = {
            t.runtime for t in jittered.tasks.values()
            if t.transformation == "mProject"
        }
        assert len(runtimes) > 1

    def test_jitter_deterministic_in_seed(self):
        a = montage_workflow(1.0, jitter=0.3, seed=1)
        b = montage_workflow(1.0, jitter=0.3, seed=1)
        for tid in a.tasks:
            assert a.task(tid).runtime == b.task(tid).runtime

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            montage_workflow(1.0, jitter=-0.1)


class TestBuildMemo:
    def test_unjittered_builds_are_shared(self):
        assert montage_workflow(1.0) is montage_workflow(1.0)
        assert montage_workflow(1.0, name="m") is montage_workflow(
            1.0, name="m"
        )
        assert montage_workflow(1.0, name="m") is not montage_workflow(1.0)

    def test_jittered_builds_are_not_memoized(self):
        a = montage_workflow(1.0, jitter=0.05, seed=4, name="p")
        b = montage_workflow(1.0, jitter=0.05, seed=4, name="p")
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_streamed_plate_is_freed(self):
        from repro.sim import simulate

        wf = montage_workflow(1.0, jitter=0.05, seed=11, name="stream-k")
        result = simulate(wf, 16, "cleanup", record_trace=False)
        assert result.makespan > 0
        ref = weakref.ref(wf)
        del wf, result
        gc.collect()
        # Neither the build memo nor the kernel's lowering cache may
        # keep a streamed plate alive once its caller drops it.
        assert ref() is None


class TestCustomProfiles:
    def test_profile_override(self):
        prof = profile_for_degree(1.0)
        wf = montage_workflow(profile=prof, name="custom")
        assert wf.name == "custom"
        assert len(wf) == 203

    def test_non_canonical_degree_is_valid(self):
        wf = montage_workflow(0.5)
        wf.validate()
        prof = profile_for_degree(0.5)
        assert len(wf) == prof.n_tasks
        assert communication_to_computation_ratio(wf) == pytest.approx(
            prof.ccr_target, rel=1e-9
        )
