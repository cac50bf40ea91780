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
