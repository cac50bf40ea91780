"""Provisioning-candidate enumeration tests."""

import pytest

from repro.core.tradeoff import processor_sweep
from repro.provisioning.provisioner import candidate_plans
from repro.workflow.analysis import max_parallelism
from repro.workflow.generators import chain_workflow, fork_join_workflow


class TestCandidates:
    def test_default_ladder_capped_at_parallelism(self):
        wf = fork_join_workflow(6, runtime=50.0)
        cands = candidate_plans(wf)
        # max parallelism 6 -> ladder 1,2,4 plus the first count >= 6 (8).
        assert [c.n_processors for c in cands] == [1, 2, 4, 8]

    def test_chain_collapses_to_single_candidate_plus_one(self):
        cands = candidate_plans(chain_workflow(5))
        assert [c.n_processors for c in cands] == [1]

    def test_uncapped_keeps_ladder(self):
        wf = fork_join_workflow(6, runtime=50.0)
        cands = processor_sweep(wf, processors=[1, 4, 16, 64])
        assert [c.n_processors for c in cands] == [1, 4, 16, 64]

    def test_candidates_carry_plan_and_cost(self):
        wf = fork_join_workflow(4, runtime=50.0)
        for cand in candidate_plans(wf, processors=[1, 2]):
            assert cand.plan.n_processors == cand.n_processors
            assert cand.total_cost == pytest.approx(cand.cost.total)
            assert cand.makespan == cand.result.makespan

    def test_duplicate_processor_counts_deduplicated(self):
        wf = fork_join_workflow(4, runtime=50.0)
        cands = candidate_plans(wf, processors=[2, 1, 2, 1])
        assert [c.n_processors for c in cands] == [1, 2]

    def test_respects_data_mode(self):
        wf = fork_join_workflow(4, runtime=50.0)
        cands = candidate_plans(wf, processors=[2], data_mode="cleanup")
        assert cands[0].result.data_mode == "cleanup"
        assert cands[0].plan.data_mode.value == "cleanup"

    def test_montage_includes_full_parallelism_point(self, montage1):
        cands = candidate_plans(montage1)
        ps = [c.n_processors for c in cands]
        assert ps[:8] == [1, 2, 4, 8, 16, 32, 64, 128]
        assert max_parallelism(montage1) == 118
