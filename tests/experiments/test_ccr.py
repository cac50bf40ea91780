"""CCR table and Figure 11 tests."""

import pytest

from repro.experiments.ccr import ccr_table, run_ccr_sweep


class TestCCRTable:
    def test_matches_paper(self):
        rows = dict(ccr_table())
        assert rows["montage-1deg"] == pytest.approx(0.053, abs=1e-6)
        assert rows["montage-2deg"] == pytest.approx(0.053, abs=1e-6)
        assert rows["montage-4deg"] == pytest.approx(0.045, abs=1e-6)


@pytest.fixture(scope="module")
def fig11(montage1):
    return run_ccr_sweep(montage1)  # the full DEFAULT_CCR_VALUES grid


class TestFigure11Shape:
    def test_every_series_increases_with_ccr(self, fig11):
        pts = fig11.points
        for attr in (
            "cpu_cost",
            "storage_cost",
            "storage_cost_cleanup",
            "transfer_cost",
            "total_cost",
            "makespan",
        ):
            series = [getattr(p, attr) for p in pts]
            assert series == sorted(series), attr

    def test_transfer_scales_linearly(self, fig11):
        # Transfer fees are proportional to bytes, hence to CCR.
        p0, p3 = fig11.points[0], fig11.points[-1]
        assert p3.transfer_cost / p0.transfer_cost == pytest.approx(
            p3.ccr / p0.ccr, rel=1e-6
        )

    def test_storage_scales_superlinearly(self, fig11):
        # "the transfer and storage costs increase in proportion to the
        # increase in CCR or even higher (for the storage costs)" — bigger
        # files also stretch the makespan, compounding the integral.
        p0, p3 = fig11.points[0], fig11.points[-1]
        assert p3.storage_cost / p0.storage_cost > p3.ccr / p0.ccr

    def test_uses_8_processors_by_default(self, fig11):
        assert fig11.n_processors == 8

    def test_table_renders(self, fig11):
        text = fig11.as_table()
        assert "8 processors" in text
        assert "CCR" in text


class TestDefaults:
    def test_accepts_degree(self):
        res = run_ccr_sweep(1.0, ccr_values=(0.1,))
        assert res.points[0].ccr == 0.1
        assert res.workflow_name == "montage-1deg"


class TestCSVExport:
    def test_csv_roundtrip(self, fig11):
        import csv as csvmod
        import io

        rows = list(csvmod.DictReader(io.StringIO(fig11.as_csv())))
        assert len(rows) == len(fig11.points)
        assert float(rows[0]["ccr"]) == fig11.points[0].ccr
        assert float(rows[-1]["total_cost"]) == fig11.points[-1].total_cost
