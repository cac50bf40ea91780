"""Sky-geometry tests."""

import math

import pytest

from repro.montage.sky import (
    REGION_CATALOG,
    SKY_AREA_SQ_DEG,
    PlateCenter,
    margin_for_plate_count,
    region,
    sky_plate_centers,
)


class TestPlateLayout:
    def test_zero_margin_count_near_sky_area(self):
        # Without overlap the plate count tracks area / d^2 (plus the
        # band-quantization excess).
        for d in (2.0, 4.0, 6.0):
            n = len(sky_plate_centers(d))
            ideal = SKY_AREA_SQ_DEG / d**2
            assert ideal <= n <= 1.15 * ideal

    def test_margin_recovers_paper_plate_counts(self):
        """The paper's 3,900 4° / 1,734 6° full-sky sets correspond to a
        consistent ~18% linear overlap in a declination-band layout."""
        m4 = margin_for_plate_count(4.0, 3900)
        assert len(sky_plate_centers(4.0, m4)) == 3900
        m6 = margin_for_plate_count(6.0, 1734)
        assert len(sky_plate_centers(6.0, m6)) == 1734
        assert m4 / 4.0 == pytest.approx(m6 / 6.0, abs=0.02)

    @pytest.mark.parametrize("degree, target", [(4.0, 3900), (6.0, 1734)])
    def test_margin_is_the_step_boundary(self, degree, target):
        """The margin is the left edge of the step that reaches the
        target: 1e-6 degrees less overlap gives fewer plates."""
        m = margin_for_plate_count(degree, target)
        assert len(sky_plate_centers(degree, m)) >= target
        assert len(sky_plate_centers(degree, m - 1e-6)) < target

    def test_zero_margin_target_needs_no_overlap(self):
        assert margin_for_plate_count(4.0, len(sky_plate_centers(4.0))) == 0.0

    def test_more_overlap_more_plates(self):
        counts = [
            len(sky_plate_centers(4.0, m)) for m in (0.0, 0.3, 0.6, 0.9)
        ]
        assert counts == sorted(counts)

    def test_centers_valid_and_unique(self):
        centers = sky_plate_centers(6.0, 0.5)
        assert len({(c.ra_deg, c.dec_deg) for c in centers}) == len(centers)
        for c in centers:
            assert 0.0 <= c.ra_deg < 360.0
            assert -90.0 + 3.0 <= c.dec_deg <= 90.0 - 3.0  # footprint on sky

    def test_dec_coverage_no_gaps(self):
        """Consecutive bands (plus plate height) leave no Dec gap."""
        degree, margin = 4.0, 0.5
        centers = sky_plate_centers(degree, margin)
        decs = sorted({c.dec_deg for c in centers})
        assert decs[0] - degree / 2 <= -90.0 + 1e-9
        assert decs[-1] + degree / 2 >= 90.0 - 1e-9
        for a, b in zip(decs, decs[1:]):
            assert b - a <= degree - margin + 1e-9

    def test_ra_coverage_within_band(self):
        """Plates within a band cover the full RA circle with overlap."""
        degree, margin = 4.0, 0.5
        centers = sky_plate_centers(degree, margin)
        by_dec = {}
        for c in centers:
            by_dec.setdefault(c.dec_deg, []).append(c.ra_deg)
        for dec, ras in by_dec.items():
            ras = sorted(ras)
            width = degree / math.cos(math.radians(dec))  # RA extent
            gaps = [b - a for a, b in zip(ras, ras[1:])]
            gaps.append(ras[0] + 360.0 - ras[-1])
            assert max(gaps) <= width + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            sky_plate_centers(0.0)
        with pytest.raises(ValueError):
            sky_plate_centers(4.0, 4.0)
        with pytest.raises(ValueError):
            sky_plate_centers(4.0, -0.1)
        with pytest.raises(ValueError):
            PlateCenter(360.0, 0.0)
        with pytest.raises(ValueError):
            PlateCenter(0.0, 91.0)

    def test_margin_solver_rejects_impossible_targets(self):
        with pytest.raises(ValueError, match="below the zero-overlap"):
            margin_for_plate_count(4.0, 100)
        with pytest.raises(ValueError):
            margin_for_plate_count(4.0, 0)
        with pytest.raises(ValueError, match="sane margins"):
            margin_for_plate_count(4.0, 10_000_000)


class TestRegions:
    def test_m17_is_the_papers_test_region(self):
        m17 = region("M17")
        assert m17.dec_deg == pytest.approx(-16.17, abs=0.01)
        assert "paper" in m17.description

    def test_lookup_case_insensitive(self):
        assert region("orion").name == "Orion"
        assert region("ORION") is region("Orion")

    def test_unknown_region(self):
        with pytest.raises(KeyError, match="catalog has"):
            region("Narnia")

    def test_catalog_positions_valid(self):
        for r in REGION_CATALOG.values():
            assert 0.0 <= r.ra_deg < 360.0
            assert -90.0 <= r.dec_deg <= 90.0
