"""Epoch-granular autoscaling over the fluid service engine.

A fixed pool sized for steady-state traffic suffers badly through the
service's cold start: with an empty result cache *every* request is a
miss, the backlog climbs for hours, and jobs queued behind it wait days
(see :class:`~repro.service.scale.FluidServiceEngine` trajectories).
Over-provisioning for the transient instead wastes idle processors for
the rest of the month — the paper's Question-2 tension, now with a time
axis.

This module closes the loop: a :class:`AutoscalePolicy` is a small
hysteresis controller evaluated once per fluid epoch (utilization high →
multiply the pool, utilization low and no backlog → shrink it, bounded
and rate-limited by a cooldown), and :func:`evaluate_autoscale` runs the
same traffic sample through the fluid engine twice — fixed baseline vs
controlled — so the operator sees exactly what elasticity buys: the
dollars saved and the latency (p95, backlog) conceded or gained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pricing import AWS_2008, PricingModel
from repro.sim.resources import check_count, check_finite

__all__ = ["AutoscalePolicy", "AutoscaleOutcome", "evaluate_autoscale"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Hysteresis pool controller, stepped once per fluid epoch.

    Scale *up* by ``scale_factor`` when the previous epoch's utilization
    crossed ``high_utilization`` or its backlog exceeded
    ``backlog_jobs_tolerance``; scale *down* by the same factor when
    utilization fell below ``low_utilization`` with no backlog.  Both
    moves clamp to ``[min_processors, max_processors]`` and at most one
    resize happens per ``cooldown_epochs``.
    """

    min_processors: int
    max_processors: int
    high_utilization: float = 0.85
    low_utilization: float = 0.50
    scale_factor: float = 2.0
    cooldown_epochs: int = 2
    backlog_jobs_tolerance: float = 0.0

    def __post_init__(self) -> None:
        check_count("min_processors", self.min_processors)
        check_count("max_processors", self.max_processors)
        if self.max_processors < self.min_processors:
            raise ValueError("max_processors below min_processors")
        if not 0.0 < self.high_utilization <= 1.0:
            raise ValueError("high_utilization must be in (0, 1]")
        if not 0.0 <= self.low_utilization < self.high_utilization:
            raise ValueError(
                "low_utilization must be in [0, high_utilization)"
            )
        check_finite("scale_factor", self.scale_factor, positive=True)
        if self.scale_factor <= 1.0:
            raise ValueError("scale_factor must exceed 1")
        check_count("cooldown_epochs", self.cooldown_epochs)
        check_finite("backlog_jobs_tolerance", self.backlog_jobs_tolerance)

    def controller(self):
        """A fresh ``(epoch, state) -> pool`` closure for one engine run."""
        last_change = {"epoch": None}

        def decide(epoch: int, state: dict) -> int:
            pool = int(state["pool"])
            if epoch == 0:
                last_change["epoch"] = None
                return max(self.min_processors,
                           min(pool, self.max_processors))
            since = (
                epoch - last_change["epoch"]
                if last_change["epoch"] is not None
                else self.cooldown_epochs
            )
            if since < self.cooldown_epochs:
                return pool
            target = pool
            overloaded = (
                state["utilization"] >= self.high_utilization
                or state["backlog_jobs"] > self.backlog_jobs_tolerance
            )
            if overloaded:
                target = int(np.ceil(pool * self.scale_factor))
            elif (
                state["utilization"] <= self.low_utilization
                and state["backlog_jobs"] <= 0.0
            ):
                target = max(1, int(pool / self.scale_factor))
            target = max(self.min_processors,
                         min(target, self.max_processors))
            if target != pool:
                last_change["epoch"] = epoch
            return target

        return decide


@dataclass(frozen=True)
class AutoscaleOutcome:
    """Fixed pool vs autoscaled pool on the same traffic."""

    policy: AutoscalePolicy
    baseline_processors: int
    fixed_cost: float
    scaled_cost: float
    fixed_p95_miss: float
    scaled_p95_miss: float
    fixed_peak_backlog: float
    scaled_peak_backlog: float
    mean_pool: float
    peak_pool: int
    pool_trajectory: np.ndarray

    @property
    def cost_savings(self) -> float:
        return self.fixed_cost - self.scaled_cost

    @property
    def savings_fraction(self) -> float:
        if self.fixed_cost == 0:
            return 0.0
        return self.cost_savings / self.fixed_cost


def evaluate_autoscale(
    sample,
    policy: AutoscalePolicy,
    baseline_processors: int,
    *,
    epoch_seconds: float = 3600.0,
    pricing: PricingModel = AWS_2008,
    cache=None,
) -> AutoscaleOutcome:
    """Run fixed vs autoscaled pools over one traffic sample, fluidly.

    The baseline holds ``baseline_processors`` for the whole horizon;
    the policy starts from the same size and resizes per epoch.  Both
    runs use the fluid engine, so comparing elasticity at 10⁶ requests
    costs well under a second.
    """
    from repro.service.scale import FluidServiceEngine

    engine = FluidServiceEngine(
        baseline_processors,
        epoch_seconds=epoch_seconds,
        pricing=pricing,
        cache=cache,
    )
    fixed = engine.run(sample)
    scaled = engine.run(sample, controller=policy.controller())

    pool_traj = scaled.trajectories["pool"]
    return AutoscaleOutcome(
        policy=policy,
        baseline_processors=baseline_processors,
        fixed_cost=fixed.economics.total_cost,
        scaled_cost=scaled.economics.total_cost,
        fixed_p95_miss=fixed.miss_percentile_response_time(95.0),
        scaled_p95_miss=scaled.miss_percentile_response_time(95.0),
        fixed_peak_backlog=fixed.peak_backlog(),
        scaled_peak_backlog=scaled.peak_backlog(),
        mean_pool=float(pool_traj.mean()) if pool_traj.size else 0.0,
        peak_pool=int(pool_traj.max(initial=0)),
        pool_trajectory=pool_traj,
    )
