"""Question 1 (Figures 4-6) experiment tests."""

import pytest

from repro.experiments.question1 import run_question1
from repro.util.units import HOUR


@pytest.fixture(scope="module")
def fig4(montage1):
    return run_question1(montage1, processors=[1, 2, 8, 32, 128])


class TestFigure4Shape:
    def test_total_cost_increases_with_processors(self, fig4):
        totals = [r.total_cost for r in fig4.rows]
        assert totals == sorted(totals)

    def test_execution_time_decreases(self, fig4):
        spans = [r.makespan for r in fig4.rows]
        assert spans == sorted(spans, reverse=True)

    def test_cpu_dominates_total(self, fig4):
        # "The most dominant factor in the total cost is the CPU cost."
        for row in fig4.rows:
            assert row.cpu_cost > 0.5 * row.total_cost

    def test_transfer_cost_constant(self, fig4):
        xfers = {round(r.transfer_cost, 10) for r in fig4.rows}
        assert len(xfers) == 1

    def test_storage_negligible_and_decreasing(self, fig4):
        storages = [r.storage_cost for r in fig4.rows]
        assert storages == sorted(storages, reverse=True)
        assert all(s < 0.01 * r.total_cost
                   for s, r in zip(storages, fig4.rows))

    def test_cleanup_storage_cheaper(self, fig4):
        for row in fig4.rows:
            assert row.storage_cost_cleanup <= row.storage_cost

    def test_total_uses_no_cleanup_storage(self, fig4):
        # "The total costs ... are computed using the storage costs
        # without cleanup."
        for row in fig4.rows:
            assert row.total_cost == pytest.approx(
                row.cpu_cost + row.storage_cost + row.transfer_cost
            )


@pytest.fixture(scope="module", params=[1.0, 2.0, 4.0],
                ids=["fig4", "fig5", "fig6"])
def figure(request):
    """Figures 4-6 over the full P = 1, 2, 4, ..., 128 progression."""
    return run_question1(request.param)


class TestFigures4To6Shape:
    def test_cost_rises_and_time_falls(self, figure):
        totals = [r.total_cost for r in figure.rows]
        spans = [r.makespan for r in figure.rows]
        # Allowing the <0.2% dips that tail effects produce at the low
        # end of the 4-degree sweep.
        for a, b in zip(totals, totals[1:]):
            assert b >= a * 0.998, "total cost must rise with processors"
        assert totals[-1] > 1.5 * totals[0]
        assert spans == sorted(spans, reverse=True), "time must fall"


class TestFigure4Values:
    def test_one_processor_near_60_cents(self, fig4):
        row = fig4.row(1)
        assert row.total_cost == pytest.approx(0.60, abs=0.03)
        assert row.makespan == pytest.approx(5.5 * HOUR, rel=0.06)

    def test_128_processors_near_4_dollars(self, fig4):
        row = fig4.row(128)
        assert row.total_cost == pytest.approx(4.0, rel=0.2)

    def test_row_lookup_missing(self, fig4):
        with pytest.raises(KeyError):
            fig4.row(3)


class TestInterface:
    def test_accepts_degree_number(self):
        res = run_question1(1.0, processors=[1])
        assert res.workflow_name == "montage-1deg"
        assert len(res.rows) == 1

    def test_table_renders(self, fig4):
        table = fig4.as_table()
        assert "montage-1deg" in table
        assert "procs" in table
        assert "128" in table


class TestCSVExport:
    def test_csv_parses_back(self, fig4):
        import csv as csvmod
        import io

        rows = list(csvmod.DictReader(io.StringIO(fig4.as_csv())))
        assert len(rows) == len(fig4.rows)
        assert float(rows[0]["total_cost"]) == fig4.rows[0].total_cost
        assert int(rows[-1]["n_processors"]) == 128
