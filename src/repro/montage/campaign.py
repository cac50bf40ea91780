"""Whole-sky campaign planning (Question 3, with a schedule).

The paper prices the full-sky computation (3,900 four-degree mosaics,
~$34.6k) but not its *duration*.  A campaign plan adds the schedule: run
the plates back-to-back on a provisioned pool (optionally several pools in
parallel), with per-plate makespans from one calibrated simulation and the
bill from the per-plate cost breakdown.

The planner exposes the same trade-off as Question 1, one level up: a
single 16-processor pool mosaics the sky in about 2.5 years for ~$40k,
while 16 such pools finish in under two months for roughly the same
compute bill (the pool is busy either way) — on-demand clouds make the
campaign duration a nearly free choice, which is the paper's core
argument in the large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.costs import CostBreakdown, compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008, PricingModel
from repro.montage.generator import montage_workflow
from repro.montage.sky import sky_plate_centers
from repro.montage.twomass import TWO_MASS, TwoMassArchive
from repro.sim.executor import DEFAULT_BANDWIDTH, simulate
from repro.sim.resources import check_count
from repro.util.units import MONTH
from repro.workflow.dag import Workflow

__all__ = ["CampaignPlan", "campaign_plates", "plan_whole_sky_campaign"]


def campaign_plates(
    n_plates: int,
    degree: float = 1.0,
    jitter: float = 0.05,
) -> tuple[Workflow, ...]:
    """The first ``n_plates`` sky plates as distinct executable workflows.

    Plates follow the :func:`repro.montage.sky.sky_plate_centers` tiling
    order and are named after their centers, so the campaign
    orchestrator's provenance log reads as sky coordinates.  Each plate
    gets a deterministic, total-preserving task-runtime ``jitter`` keyed
    on its tiling index — real plates differ by source density — which
    also guarantees the distinct content fingerprints the provenance
    layer requires.  Jitter leaves file sizes and the DAG untouched, so
    every plate shares its degree's memoized base structure.  ``jitter``
    must be positive for more plates than one (identical plates would
    share a fingerprint).
    """
    if n_plates < 1:
        raise ValueError(f"need at least one plate, got {n_plates}")
    if n_plates > 1 and jitter <= 0.0:
        raise ValueError(
            "campaign plates need jitter > 0: without it every plate is "
            "content-identical and the provenance log cannot tell them "
            "apart"
        )
    centers = sky_plate_centers(degree)
    if n_plates > len(centers):
        raise ValueError(
            f"the {degree} deg tiling has only {len(centers)} plates, "
            f"{n_plates} requested"
        )
    return tuple(
        montage_workflow(
            degree,
            jitter=jitter,
            seed=i,
            name=(
                f"plate{i:04d}_ra{centers[i].ra_deg:07.2f}"
                f"_dec{centers[i].dec_deg:+06.2f}"
            ),
        )
        for i in range(n_plates)
    )


@dataclass(frozen=True)
class CampaignPlan:
    """One way to compute the whole sky."""

    degree: float
    n_plates: int
    n_pools: int
    processors_per_pool: int
    prestage_inputs: bool
    #: one plate's simulated makespan on a pool
    plate_makespan: float
    #: one plate's cost (on-demand attribution; pre-staging drops ingress)
    plate_cost: float
    #: the full per-plate breakdown (staged form)
    plate_breakdown: CostBreakdown
    #: one-time archive upload when pre-staging (0 otherwise)
    archive_upload_cost: float
    #: archive rent for the campaign duration when pre-staging
    archive_storage_cost: float

    @property
    def duration_seconds(self) -> float:
        """Wall-clock: plates split across pools, run back-to-back."""
        per_pool = math.ceil(self.n_plates / self.n_pools)
        return per_pool * self.plate_makespan

    @property
    def duration_months(self) -> float:
        return self.duration_seconds / MONTH

    @property
    def compute_cost(self) -> float:
        return self.n_plates * self.plate_cost

    @property
    def total_cost(self) -> float:
        return (
            self.compute_cost
            + self.archive_upload_cost
            + self.archive_storage_cost
        )


def plan_whole_sky_campaign(
    degree: float = 4.0,
    processors_per_pool: int = 16,
    n_pools: int = 1,
    prestage_inputs: bool = False,
    archive: TwoMassArchive = TWO_MASS,
    pricing: PricingModel = AWS_2008,
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH,
) -> CampaignPlan:
    """Plan the full-sky mosaic campaign.

    One plate is simulated (they are statistically identical) and
    extrapolated across the :class:`~repro.montage.twomass.TwoMassArchive`
    plate count.  With ``prestage_inputs`` the archive is uploaded once
    ($1,200 for 2MASS), rented for the campaign duration, and every plate
    sheds its input-transfer fee.
    """
    check_count("n_pools", n_pools)
    workflow = montage_workflow(degree)
    result = simulate(
        workflow,
        processors_per_pool,
        "cleanup",
        bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
        record_trace=False,
    )
    breakdown = compute_cost(
        result,
        pricing,
        ExecutionPlan.on_demand(processors_per_pool, "cleanup"),
    )
    plate_cost = breakdown.total
    if prestage_inputs:
        plate_cost -= breakdown.transfer_in_cost
    n_plates = archive.plates_for_full_sky(degree)

    plan = CampaignPlan(
        degree=degree,
        n_plates=n_plates,
        n_pools=n_pools,
        processors_per_pool=processors_per_pool,
        prestage_inputs=prestage_inputs,
        plate_makespan=result.makespan,
        plate_cost=plate_cost,
        plate_breakdown=breakdown,
        archive_upload_cost=(
            pricing.transfer_in_cost(archive.size_bytes)
            if prestage_inputs
            else 0.0
        ),
        archive_storage_cost=0.0,  # provisional; replaced below
    )
    if prestage_inputs:
        rent = pricing.monthly_storage_cost(archive.size_bytes) * (
            plan.duration_months
        )
        plan = CampaignPlan(
            **{**plan.__dict__, "archive_storage_cost": rent}
        )
    return plan
