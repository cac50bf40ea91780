"""Multi-provider plan-advisor tests."""

import pytest

from repro.core.pricing import AWS_2008, STORAGE_HEAVY, TRANSFER_HEAVY
from repro.provisioning.advisor import advise_plan
from repro.util.units import HOUR


PROVIDERS = {
    "aws": AWS_2008,
    "storage-heavy": STORAGE_HEAVY,
    "transfer-heavy": TRANSFER_HEAVY,
}


class TestAdvisor:
    @pytest.fixture(scope="class")
    def rec(self, montage1):
        return advise_plan(
            montage1,
            providers=PROVIDERS,
            deadline_seconds=2.0 * HOUR,
            processors=[1, 4, 16, 64],
            modes=("regular", "cleanup"),
        )

    def test_option_space_size(self, rec):
        # 2 modes x 4 pools x 3 providers.
        assert len(rec.options) == 24

    def test_chosen_meets_deadline_and_is_cheapest(self, rec):
        assert rec.feasible
        assert rec.chosen.makespan <= 2.0 * HOUR
        feasible = [o for o in rec.options if o.makespan <= 2.0 * HOUR]
        assert rec.chosen.total_cost == min(o.total_cost for o in feasible)

    def test_cheapest_overall_without_constraints(self, montage1):
        rec = advise_plan(
            montage1, providers=PROVIDERS, processors=[1, 16],
            modes=("cleanup",),
        )
        assert rec.feasible
        assert rec.chosen.total_cost == min(
            o.total_cost for o in rec.options
        )
        assert "cheapest overall" in rec.criterion

    def test_budget_only_picks_fastest_affordable(self, montage1):
        rec = advise_plan(
            montage1,
            deadline_seconds=None,
            budget_dollars=1.0,
            processors=[1, 4, 16, 64],
            modes=("regular",),
        )
        assert rec.feasible
        assert rec.chosen.total_cost <= 1.0
        affordable = [o for o in rec.options if o.total_cost <= 1.0]
        assert rec.chosen.makespan == min(o.makespan for o in affordable)

    def test_infeasible_constraints(self, montage1):
        rec = advise_plan(
            montage1, deadline_seconds=1.0, processors=[1, 2],
            modes=("regular",),
        )
        assert not rec.feasible
        assert rec.chosen is None
        assert rec.options  # the explored space is still reported

    def test_provider_choice_matters(self, montage1):
        """Under a transfer-heavy provider the advisor avoids remote I/O."""
        rec = advise_plan(
            montage1,
            providers={"transfer-heavy": TRANSFER_HEAVY},
            processors=[8],
            modes=("remote-io", "regular"),
        )
        assert rec.chosen.data_mode == "regular"

    def test_default_ladder_capped_by_parallelism(self, montage1):
        rec = advise_plan(montage1, modes=("cleanup",))
        pools = sorted({o.n_processors for o in rec.options})
        # montage-1deg max parallelism is 118: the ladder keeps 1..64 and
        # its first value at or above 118, and prices no size outside it.
        assert pools == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_validation(self, montage1):
        with pytest.raises(ValueError):
            advise_plan(montage1, providers={})
        with pytest.raises(ValueError):
            advise_plan(montage1, deadline_seconds=0.0)
        with pytest.raises(ValueError):
            advise_plan(montage1, budget_dollars=-1.0)
