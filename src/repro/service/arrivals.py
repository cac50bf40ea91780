"""Request arrival processes for the mosaic service.

The paper motivates the service with "sporadic overloads of mosaic
requests"; these generators produce the request streams the service
simulator consumes.  Everything is seeded and deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.sim.resources import check_finite
from repro.workflow.dag import Workflow

__all__ = [
    "ServiceRequest",
    "poisson_arrival_array",
    "poisson_arrivals",
    "uniform_arrivals",
    "request_stream",
]


@dataclass(frozen=True)
class ServiceRequest:
    """One user request: a workflow arriving at a point in time."""

    request_id: str
    workflow: Workflow
    arrival_time: float

    def __post_init__(self) -> None:
        check_finite(
            f"request {self.request_id!r} arrival_time", self.arrival_time
        )


def poisson_arrival_array(
    rate_per_second: float,
    horizon_seconds: float,
    seed: int,
    *,
    _chunk: int | None = None,
) -> np.ndarray:
    """Poisson arrival times over ``[0, horizon)`` as a float64 array.

    Chunked draws: ``Generator.exponential(scale, size=n)`` consumes the
    bit stream exactly like ``n`` sequential one-draw calls, and seeding
    each chunk's ``np.cumsum`` with the running offset as its first
    element reproduces the sequential ``t += gap`` recurrence
    float-for-float — so the returned times are identical to the
    historical one-draw-per-iteration loop while generating millions of
    arrivals per second.
    """
    check_finite("rate_per_second", rate_per_second, positive=True)
    check_finite("horizon_seconds", horizon_seconds, positive=True)
    rng = np.random.default_rng(seed)
    scale = 1.0 / rate_per_second
    # Expected count plus generous stochastic headroom, so one chunk
    # almost always suffices; tiny rates still get a useful chunk.
    expected = rate_per_second * horizon_seconds
    chunk = _chunk or max(64, int(expected + 6.0 * np.sqrt(expected) + 16))
    pieces: list[np.ndarray] = []
    offset = 0.0
    while True:
        gaps = rng.exponential(scale, size=chunk)
        times = np.cumsum(np.concatenate(([offset], gaps)))[1:]
        past = np.searchsorted(times, horizon_seconds, side="left")
        if past < times.size:
            pieces.append(times[:past])
            return np.concatenate(pieces) if len(pieces) > 1 else times[:past]
        pieces.append(times)
        offset = float(times[-1])


def poisson_arrivals(
    rate_per_second: float, horizon_seconds: float, seed: int
) -> list[float]:
    """Poisson arrival times over ``[0, horizon)``.

    Exponential inter-arrival gaps from a seeded generator; the number of
    arrivals is whatever fits in the horizon.  Draws are vectorized but
    bit-identical to the sequential loop this function shipped with (see
    :func:`poisson_arrival_array`).
    """
    return poisson_arrival_array(
        rate_per_second, horizon_seconds, seed
    ).tolist()


def uniform_arrivals(n_requests: int, interval_seconds: float) -> list[float]:
    """Evenly spaced arrivals: 0, interval, 2*interval, ..."""
    if n_requests < 0:
        raise ValueError(f"negative request count {n_requests}")
    check_finite("interval_seconds", interval_seconds)
    return [i * interval_seconds for i in range(n_requests)]


def request_stream(
    arrival_times: Sequence[float],
    workflow_choices: Sequence[Workflow],
    seed: int = 0,
    weights: Sequence[float] | None = None,
) -> list[ServiceRequest]:
    """Assign a workflow to each arrival (sampled with optional weights).

    With a single choice the assignment is deterministic; with several,
    the mix is drawn from a seeded generator so streams are reproducible.
    """
    if not workflow_choices:
        raise ValueError("need at least one workflow choice")
    if weights is not None:
        if len(weights) != len(workflow_choices):
            raise ValueError("weights and workflow_choices length mismatch")
        w = np.asarray(weights, dtype=float)
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        probabilities = w / w.sum()
    else:
        probabilities = None
    rng = np.random.default_rng(seed)
    requests = []
    for i, t in enumerate(sorted(arrival_times)):
        if len(workflow_choices) == 1:
            wf = workflow_choices[0]
        else:
            wf = workflow_choices[
                int(rng.choice(len(workflow_choices), p=probabilities))
            ]
        requests.append(
            ServiceRequest(
                request_id=f"req-{i:05d}", workflow=wf, arrival_time=float(t)
            )
        )
    return requests
