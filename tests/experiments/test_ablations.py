"""Direct tests for the ablation-study API."""

import pytest

from repro.experiments.ablations import (
    all_studies,
    billing_granularity_study,
    clustering_study,
    failure_study,
    fee_sensitivity_study,
    link_contention_study,
    montecarlo_failure_study,
    scheduler_study,
    storage_capacity_study,
    vm_overhead_study,
)
from repro.sim.kernel import KERNEL_ENV
from repro.workflow.generators import fork_join_workflow


@pytest.fixture(scope="module")
def small():
    return fork_join_workflow(6, runtime=50.0, file_size=2e6)


class TestStudyShapes:
    def test_each_study_renders_and_carries_raw(self, small):
        studies = [
            billing_granularity_study(small, processors=(1, 4)),
            vm_overhead_study(small, processors=(1, 4)),
            fee_sensitivity_study(small),
            link_contention_study(small, processors=(1, 4)),
            failure_study(small, probabilities=(0.0, 0.2), n_processors=2),
            montecarlo_failure_study(
                small, probabilities=(0.0, 0.2), n_seeds=10, n_processors=2
            ),
            scheduler_study(small, n_processors=2),
            clustering_study(small, factors=(1, 3), overheads=(0.0, 5.0),
                             n_processors=2),
        ]
        for study in studies:
            assert study.raw
            text = study.as_table()
            assert study.title.split(" — ")[0] in text
            assert len(text.splitlines()) >= 2 + len(study.rows)

    def test_capacity_study_on_cleanup_safe_workflow(self, small):
        study = storage_capacity_study(
            small, fractions=(None, 1.0), processors=(2,)
        )
        assert len(study.raw) == 2
        assert study.raw[0][3] == pytest.approx(study.raw[1][3])

    def test_all_studies_count(self, montage1):
        studies = all_studies(montage1)
        assert [s.name for s in studies] == [
            "billing-granularity", "vm-overhead", "fee-sensitivity",
            "link-contention", "failures", "montecarlo", "scheduler",
            "storage-capacity", "clustering", "campaign-policies",
            "service-scale",
        ]


class TestFindings:
    """The finding each study exists to demonstrate, on Montage 1°."""

    def test_billing_granularity(self, montage1):
        # Instance-hour billing inflates exactly the high-P provisioned runs.
        study = billing_granularity_study(montage1)
        for _, _, cont, quant in study.raw:
            assert quant >= cont - 1e-9
        p128 = study.raw[-1]
        assert p128[3] >= 128 * 0.10 - 1e-9  # 128 whole instance-hours
        assert p128[3] / p128[2] > 2.0

    def test_vm_overhead_grows_linearly_in_pool_width(self, montage1):
        study = vm_overhead_study(montage1)
        deltas = [taxed - base for _, base, taxed in study.raw]
        procs = [p for p, _, _ in study.raw]
        assert deltas[-1] == pytest.approx(
            deltas[0] * procs[-1] / procs[0], rel=1e-6
        )

    def test_fee_sensitivity_remote_io_wins_when_storage_is_dear(
        self, montage1
    ):
        # The paper's Section 6 speculation: with higher storage and
        # lower transfer charges, Remote I/O is the cheapest mode.
        totals = dict(fee_sensitivity_study(montage1).raw)
        aws = totals["aws-2008"]
        heavy = totals["storage-heavy"]
        assert min(aws, key=aws.get) in ("regular", "cleanup")
        assert min(heavy, key=heavy.get) == "remote-io"

    def test_link_contention_shows_only_at_width(self, montage1):
        study = link_contention_study(montage1)
        for _, free, queued in study.raw:
            assert queued >= free - 1e-9  # contention can only slow things
        assert study.raw[0][2] / study.raw[0][1] < 1.05
        assert study.raw[-1][2] / study.raw[-1][1] > 1.05

    def test_failures_cost_monotone_in_probability(self, montage1):
        study = failure_study(montage1)
        totals = [t for _, _, _, t in study.raw]
        assert totals == sorted(totals)  # more failures, more cost
        assert study.raw[0][1] == 0
        assert study.raw[-1][1] > 0

    def test_montecarlo_bands(self, montage1):
        study = montecarlo_failure_study(montage1)
        # raw rows: (prob, aborts, retries, mean, ci, p95, cost, inflation)
        inflations = [row[7] for row in study.raw]
        assert inflations == sorted(inflations)
        baseline = study.raw[0]
        assert baseline[1] == 0 and baseline[2] == 0.0  # no aborts, retries
        assert baseline[4] == pytest.approx(0.0, abs=1e-9)  # zero-width CI
        for row in study.raw[1:]:
            assert row[5] >= row[3]  # p95 at or above the mean
            assert row[2] > 0  # retries observed across 100 seeds

    def test_scheduler_robustness(self, montage1):
        # < 10% makespan spread: level order pays a small
        # synchronization penalty; the other orderings tie.
        spans = [m for _, m, _ in scheduler_study(montage1).raw]
        assert max(spans) / min(spans) < 1.10

    def test_storage_capacity_respected_and_staggers_wide_pools(
        self, montage1
    ):
        study = storage_capacity_study(montage1)
        base = {
            p: next(m for q, f, _, m, _ in study.raw if q == p and f is None)
            for p in (8, 64)
        }
        for p, frac, cap, makespan, peak in study.raw:
            if cap is not None:
                assert peak <= cap + 1e-6  # the capacity is never violated
            assert makespan >= base[p] - 1e-6
        # At 8 processors reservations never collide: capacity is free
        # down to half the footprint.  At 64 the waves stack
        # reservations and the tight capacities stagger dispatch.
        eight = [r for r in study.raw if r[0] == 8]
        assert eight[-1][3] == pytest.approx(base[8])
        assert study.raw[-1][3] > base[64] * 1.05

    def test_clustering_amortizes_overhead_when_well_packed(self, montage1):
        # Factor 5 packs the 40-wide waves perfectly on 8 processors;
        # factor 8 leaves three idle.
        by_factor = {r[0]: r for r in clustering_study(montage1).raw}
        # No overhead: clustering can only lose (less parallelism).
        assert by_factor[5][2] == pytest.approx(by_factor[1][2])
        assert by_factor[8][2] >= by_factor[1][2]
        # 10 s and 30 s overhead: the well-packed factor 5 wins.
        assert by_factor[5][3] < by_factor[1][3]
        assert by_factor[5][4] < by_factor[1][4]
        # The mispacked factor 8 loses even with overhead to amortize.
        assert by_factor[8][3] > by_factor[1][3]


class TestEngineAgreement:
    @pytest.mark.slow  # ~3-3.7 s, most of it on the event engine
    def test_paper_report_studies_identical_on_both_engines(
        self, montage4, monkeypatch
    ):
        # The four fixed 4° studies the paper report publishes.  At this
        # size the capacity runs reach rounding drift in the oracle's
        # reservation fold that the differential's small workflows never
        # do; the engine is selected the way run_jobs resolves it.
        studies = (
            link_contention_study,
            scheduler_study,
            storage_capacity_study,
            clustering_study,
        )
        tables = []
        for kernel in ("event", None):
            if kernel is None:
                monkeypatch.delenv(KERNEL_ENV, raising=False)
            else:
                monkeypatch.setenv(KERNEL_ENV, kernel)
            tables.append([study(montage4).as_table() for study in studies])
        assert tables[0] == tables[1]
