"""Whole-sky campaign planner tests."""

import pytest

from repro.montage.campaign import plan_whole_sky_campaign
from repro.util.units import MONTH


class TestCampaign:
    @pytest.fixture(scope="class")
    def single_pool(self):
        return plan_whole_sky_campaign(4.0, processors_per_pool=16)

    def test_plate_count_and_cost(self, single_pool):
        assert single_pool.n_plates == 3900
        # Per-plate on-demand cost ~= the paper's $8.88 figure-10 total.
        assert single_pool.plate_cost == pytest.approx(9.06, abs=0.05)
        assert single_pool.compute_cost == pytest.approx(
            3900 * single_pool.plate_cost
        )

    def test_duration_arithmetic(self, single_pool):
        assert single_pool.duration_seconds == pytest.approx(
            3900 * single_pool.plate_makespan
        )
        # A 16-processor pool takes years for the whole sky (~5.9 h/plate).
        assert 25 < single_pool.duration_months < 40

    def test_more_pools_divide_duration(self, single_pool):
        sixteen = plan_whole_sky_campaign(
            4.0, processors_per_pool=16, n_pools=16
        )
        assert sixteen.duration_seconds == pytest.approx(
            single_pool.duration_seconds / 16, rel=0.01
        )
        # Same compute bill: the pools are busy either way.
        assert sixteen.compute_cost == pytest.approx(
            single_pool.compute_cost
        )

    def test_prestaging_economics(self):
        staged = plan_whole_sky_campaign(4.0, 16, n_pools=16)
        prestaged = plan_whole_sky_campaign(
            4.0, 16, n_pools=16, prestage_inputs=True
        )
        # Pre-staging drops ~$0.30 of ingress per plate (~$1,150 total)
        # but pays the $1,200 upload and the campaign's archive rent.
        assert prestaged.plate_cost < staged.plate_cost
        assert prestaged.archive_upload_cost == pytest.approx(1200.0)
        expected_rent = 1800.0 * prestaged.duration_months
        assert prestaged.archive_storage_cost == pytest.approx(expected_rent)
        assert staged.archive_upload_cost == 0.0
        assert staged.archive_storage_cost == 0.0

    def test_prestaging_never_pays_for_a_one_shot_campaign(self):
        """Each plate reads its inputs exactly once, so hosting the
        archive saves only one traversal (~$1,150) while costing the
        $1,200 upload plus duration-scaled rent — pre-staging loses even
        for the fastest campaign, and loses catastrophically for slow
        ones.  Hosting pays only with *sustained* request traffic, which
        is precisely the paper's Question-2b break-even logic
        (18,000 mosaics per month)."""
        slow_staged = plan_whole_sky_campaign(4.0, 16, n_pools=1)
        slow_pre = plan_whole_sky_campaign(
            4.0, 16, n_pools=1, prestage_inputs=True
        )
        fast_staged = plan_whole_sky_campaign(4.0, 16, n_pools=16)
        fast_pre = plan_whole_sky_campaign(
            4.0, 16, n_pools=16, prestage_inputs=True
        )
        assert slow_pre.total_cost > slow_staged.total_cost
        assert fast_pre.total_cost > fast_staged.total_cost
        # ...but the penalty shrinks as the campaign speeds up.
        assert (fast_pre.total_cost - fast_staged.total_cost) < (
            slow_pre.total_cost - slow_staged.total_cost
        )

    def test_pool_configurations(self):
        rows = []
        for procs, pools in [(16, 1), (16, 4), (16, 16), (64, 16)]:
            staged = plan_whole_sky_campaign(
                4.0, processors_per_pool=procs, n_pools=pools
            )
            pre = plan_whole_sky_campaign(
                4.0, processors_per_pool=procs, n_pools=pools,
                prestage_inputs=True,
            )
            rows.append((procs, staged.duration_months, staged.total_cost,
                         pre.total_cost))
        durations = [r[1] for r in rows]
        assert durations == sorted(durations, reverse=True)
        for _, _, staged, pre in rows:
            assert pre > staged  # one-shot campaigns never justify hosting
        # The compute bill does not depend on the duration at a fixed
        # pool width (the paper's on-demand argument, at campaign scale).
        assert len({round(r[2], 2) for r in rows if r[0] == 16}) == 1

    def test_six_degree_campaign(self):
        plan = plan_whole_sky_campaign(6.0, 16)
        assert plan.n_plates == 1734
        assert plan.total_cost > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_whole_sky_campaign(4.0, 16, n_pools=0)
