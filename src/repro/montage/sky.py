"""Sky geometry: plate layouts and named regions.

The paper covers the whole sky with "about 3,900 4-degree-square mosaics
... (with some overlap)".  This module computes such layouts for real: a
declination-band tiling of the celestial sphere where adjacent plates and
adjacent bands overlap by a configurable margin, the standard survey
approach.  It also carries a small catalog of named regions (the paper's
M17 test region, the Orion example from its caching discussion) so portal
requests can be phrased the way the Montage service receives them — a sky
position plus a mosaic size.

Geometry conventions: RA in degrees [0, 360), Dec in degrees [-90, 90];
a *plate* is a square of ``degree`` on a side centered on (ra, dec).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PlateCenter",
    "sky_plate_centers",
    "margin_for_plate_count",
    "SkyRegion",
    "REGION_CATALOG",
    "region",
]

#: Area of the celestial sphere in square degrees.
SKY_AREA_SQ_DEG = 360.0 * 360.0 / math.pi  # = 41,252.96...


@dataclass(frozen=True)
class PlateCenter:
    """Center of one mosaic plate."""

    ra_deg: float
    dec_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ra_deg < 360.0:
            raise ValueError(f"RA {self.ra_deg} outside [0, 360)")
        if not -90.0 <= self.dec_deg <= 90.0:
            raise ValueError(f"Dec {self.dec_deg} outside [-90, 90]")


def _bands(degree: float, overlap_margin_deg: float) -> list[tuple[float, int]]:
    """``(declination, plate count)`` of each band of the tiling."""
    if degree <= 0:
        raise ValueError(f"plate size must be positive, got {degree}")
    if not 0.0 <= overlap_margin_deg < degree:
        raise ValueError(
            f"overlap margin must be in [0, {degree}), got "
            f"{overlap_margin_deg}"
        )
    step = degree - overlap_margin_deg
    n_bands = max(1, math.ceil(180.0 / step))
    bands = []
    for band in range(n_bands):
        # Band centers span the sphere; clamp the extremes to keep the
        # plate footprints on it.
        dec = -90.0 + (band + 0.5) * step
        dec = max(min(dec, 90.0 - degree / 2.0), -90.0 + degree / 2.0)
        circumference = 360.0 * math.cos(math.radians(dec))
        if circumference <= step:
            n_plates = 1
        else:
            n_plates = math.ceil(circumference / step)
        bands.append((dec, n_plates))
    return bands


def sky_plate_centers(
    degree: float, overlap_margin_deg: float = 0.0
) -> list[PlateCenter]:
    """Plate centers tiling the full sky in declination bands.

    Bands are ``degree - margin`` tall (so adjacent bands overlap by
    ``margin``); within a band at declination *d*, plates are spaced
    ``(degree - margin) / cos(d)`` apart in RA so their sky-projected
    footprints overlap by the same margin.  Both poles are covered by the
    top and bottom bands' plates.
    """
    return [
        PlateCenter(ra_deg=(i + 0.5) * 360.0 / n_plates % 360.0, dec_deg=dec)
        for dec, n_plates in _bands(degree, overlap_margin_deg)
        for i in range(n_plates)
    ]


def margin_for_plate_count(
    degree: float, target_plates: int
) -> float:
    """Smallest overlap margin whose tiling has ``>= target_plates`` plates.

    Solves the paper's implied layout numerically: at 4 degrees,
    ``margin_for_plate_count(4.0, 3900)`` recovers the overlap the paper
    assumed for its 3,900-plate full-sky set.  The plate count is a
    monotone step function of the margin, so the result is the left edge
    of the step that first reaches the target, to within 1e-6 degrees:
    ``count(m) >= target_plates > count(m - 1e-6)``.  Raises if the target
    is below the zero-margin plate count (overlap can only add plates) or
    above the count at a margin of ``0.9 * degree``.
    """
    if target_plates < 1:
        raise ValueError(f"target must be >= 1, got {target_plates}")

    def count_at(margin: float) -> int:
        return sum(n for _, n in _bands(degree, margin))

    lo_count = count_at(0.0)
    if target_plates < lo_count:
        raise ValueError(
            f"{target_plates} plates is below the zero-overlap minimum "
            f"({lo_count}) for {degree}-degree plates"
        )
    if target_plates == lo_count:
        return 0.0
    lo, hi = 0.0, degree * 0.9
    if count_at(hi) < target_plates:
        raise ValueError(
            f"cannot reach {target_plates} plates within sane margins"
        )
    # Invariant: count_at(lo) < target_plates <= count_at(hi).
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if count_at(mid) >= target_plates:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SkyRegion:
    """A named sky position a user can request a mosaic of."""

    name: str
    ra_deg: float
    dec_deg: float
    description: str = ""


#: Positions of the regions the paper mentions (M17, the simulation
#: workload) or alludes to ("areas such as those around Orion"), plus a
#: few other popular mosaic targets.
REGION_CATALOG: dict[str, SkyRegion] = {
    r.name.lower(): r
    for r in (
        SkyRegion("M17", 275.196, -16.172, "Omega Nebula — the paper's test region"),
        SkyRegion("Orion", 83.822, -5.391, "Orion Nebula (M42)"),
        SkyRegion("M31", 10.685, 41.269, "Andromeda Galaxy"),
        SkyRegion("M45", 56.871, 24.105, "Pleiades"),
        SkyRegion("GalacticCenter", 266.417, -29.008, "Sagittarius A*"),
        SkyRegion("M13", 250.423, 36.462, "Hercules Globular Cluster"),
    )
}


def region(name: str) -> SkyRegion:
    """Look up a catalog region by (case-insensitive) name."""
    try:
        return REGION_CATALOG[name.lower()]
    except KeyError:
        known = ", ".join(sorted(r.name for r in REGION_CATALOG.values()))
        raise KeyError(f"unknown region {name!r}; catalog has: {known}") from None
