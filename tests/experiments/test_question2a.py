"""Question 2a (Figures 7-10) experiment tests."""

import pytest

from repro.experiments.question2a import MODES, run_question2a


@pytest.fixture(scope="module")
def fig7(montage1):
    return run_question2a(montage1)


class TestFigure7(object):
    def test_all_modes_present(self, fig7):
        assert set(fig7.by_mode) == set(MODES)

    def test_storage_ranking(self, fig7):
        # Figure 7 top: remote < cleanup < regular.
        assert (
            fig7.metrics("remote-io").storage_gb_hours
            < fig7.metrics("cleanup").storage_gb_hours
            < fig7.metrics("regular").storage_gb_hours
        )

    def test_transfer_ranking(self, fig7):
        # Figure 7 middle: remote I/O moves the most, both directions;
        # regular == cleanup.
        rem, reg, cln = (
            fig7.metrics("remote-io"),
            fig7.metrics("regular"),
            fig7.metrics("cleanup"),
        )
        assert rem.bytes_in > reg.bytes_in
        assert rem.bytes_out > reg.bytes_out
        assert reg.bytes_in == pytest.approx(cln.bytes_in)
        assert reg.bytes_out == pytest.approx(cln.bytes_out)

    def test_cost_ranking(self, fig7):
        # Figure 7 bottom: remote I/O costs the most; cleanup the least.
        rem, reg, cln = (
            fig7.metrics("remote-io"),
            fig7.metrics("regular"),
            fig7.metrics("cleanup"),
        )
        assert rem.dm_cost > reg.dm_cost >= cln.dm_cost

    def test_storage_cost_negligible_vs_transfers(self, fig7):
        # "The storage costs are negligible as compared to the data
        # transfer costs."
        for mode in MODES:
            m = fig7.metrics(mode)
            assert m.storage_cost < 0.05 * (
                m.transfer_in_cost + m.transfer_out_cost
            )

    def test_cpu_cost_invariant(self, fig7):
        cpu = {round(fig7.metrics(m).cpu_cost, 9) for m in MODES}
        assert len(cpu) == 1

    def test_cpu_slightly_higher_than_remote_dm(self, fig7):
        # Figure 10: "the CPU cost is slightly higher than the data
        # management costs for the remote I/O execution mode."
        m = fig7.metrics("remote-io")
        assert m.cpu_cost > m.dm_cost
        assert m.cpu_cost < 2.5 * m.dm_cost

    def test_defaults_to_full_parallelism(self, fig7):
        assert fig7.n_processors == 118


@pytest.fixture(scope="module", params=[2.0, 4.0], ids=["fig8", "fig9"])
def figure(request):
    """Figures 8 and 9: the 2° and 4° workflows at full parallelism (the
    1° case is ``fig7``, tested above)."""
    return run_question2a(request.param)


class TestFigures8And9:
    def test_mode_ordering(self, figure):
        rem = figure.metrics("remote-io")
        reg = figure.metrics("regular")
        cln = figure.metrics("cleanup")
        # Top panel: storage remote < cleanup < regular.
        assert (
            rem.storage_gb_hours < cln.storage_gb_hours < reg.storage_gb_hours
        )
        # Middle panel: remote I/O transfers the most; regular == cleanup.
        assert rem.bytes_in > reg.bytes_in == pytest.approx(cln.bytes_in)
        assert rem.bytes_out > reg.bytes_out == pytest.approx(cln.bytes_out)
        # Bottom panel: remote I/O DM cost highest, cleanup lowest.
        assert rem.dm_cost > reg.dm_cost >= cln.dm_cost

    def test_remote_io_cpu_above_dm(self, figure):
        # Figure 10: "the CPU cost is slightly higher than the data
        # management costs for the remote I/O execution mode."
        m = figure.metrics("remote-io")
        assert m.cpu_cost > m.dm_cost


class TestFigure10Values:
    def test_1deg_totals(self, fig7):
        # Regular-mode request total ~= the paper's Figure 10 bar.
        assert fig7.metrics("regular").total_cost == pytest.approx(
            0.61, abs=0.03
        )

    def test_2deg_totals(self, montage2):
        res = run_question2a(montage2)
        # Paper: $2.22 staged-in total for the 2° mosaic.
        assert res.metrics("regular").total_cost == pytest.approx(
            2.22, abs=0.04
        )

    def test_table_renders(self, fig7):
        table = fig7.as_table()
        for mode in MODES:
            assert mode in table


class TestCSVExport:
    def test_csv_has_all_modes(self, fig7):
        import csv as csvmod
        import io

        rows = list(csvmod.DictReader(io.StringIO(fig7.as_csv())))
        assert [r["mode"] for r in rows] == list(MODES)
        reg = next(r for r in rows if r["mode"] == "regular")
        assert float(reg["cpu_cost"]) == pytest.approx(0.563, abs=0.001)
