"""Simulated resources: processors, storage, and the user<->cloud link.

These mirror the paper's simulated setup (Section 5): one compute resource
whose processor count is a parameter, an associated storage system "with
infinite capacity" whose occupancy is tracked over time so its area under
the curve yields GB-hours, and a fixed 10 Mbps link between the user and
the storage resource over which all stage-in/stage-out traffic flows.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

from repro.util.curve import StepCurve

__all__ = ["ProcessorPool", "Storage", "NetworkLink", "TransferDirection"]


# The parameter rules: each is written once, here, and every entry point
# that takes the parameter calls it.  ``not 0 < x`` also rejects NaN.


def processor_count(n) -> int:
    """``n`` as an ``int``; ``ValueError`` unless it is an integer ``>= 1``.

    Bools and floats are rejected: the event pool would truncate a float
    while the fast kernel's float ``free`` never reaches 0.
    """
    if not isinstance(n, bool):
        try:
            count = operator.index(n)
        except TypeError:
            pass
        else:
            if count < 1:
                raise ValueError(f"need at least one processor, got {n}")
            return count
    raise ValueError(f"n_processors must be an integer, got {n}")


def check_count(name: str, n) -> None:
    """``ValueError`` naming ``name`` unless ``n`` is an integer ``>= 1``.

    Bools and floats are rejected, as for :func:`processor_count`.
    """
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {n}")


def check_bandwidth(b) -> None:
    """``ValueError`` unless ``b > 0``; ``+inf`` means free transfers."""
    if not b > 0:
        raise ValueError(f"bandwidth must be positive, got {b}")


def check_capacity(capacity) -> None:
    """``ValueError`` unless ``capacity`` is finite and ``> 0``, or ``None``
    (the one spelling of the paper's infinite storage)."""
    if capacity is not None and not 0 < capacity < math.inf:
        raise ValueError(f"capacity must be positive or None, got {capacity}")


def check_finite(name: str, x, *, positive: bool = False) -> None:
    """``ValueError`` naming ``name`` unless ``x`` is finite and ``>= 0``
    (``> 0`` if ``positive``)."""
    if positive:
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {x}")
    elif not 0 <= x < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {x}")


class ProcessorPool:
    """A pool of identical processors on the compute resource.

    Tracks the number of busy processors over time so utilization can be
    reported; acquisition is non-blocking (the executor checks
    :attr:`available` before acquiring).  Large sweeps that never read the
    occupancy trace can pass ``track_curve=False`` to skip the per-event
    curve bookkeeping.
    """

    __slots__ = ("n_processors", "_busy", "busy_curve", "_release_subscribers")

    def __init__(self, n_processors: int, track_curve: bool = True) -> None:
        self.n_processors = processor_count(n_processors)
        self._busy = 0
        self.busy_curve = StepCurve(0.0) if track_curve else None
        #: callbacks invoked after each release, in subscription order —
        #: lets several workflow executors share one pool (service mode):
        #: whoever frees a processor wakes every executor's dispatcher.
        self._release_subscribers: list = []

    def subscribe_release(self, callback) -> None:
        """Invoke ``callback()`` after every release (shared-pool mode)."""
        self._release_subscribers.append(callback)

    def unsubscribe_release(self, callback) -> None:
        """Drop a release subscription (no-op if not subscribed).

        Finished executors in service mode must call this so later
        releases stop waking dead dispatchers — with thousands of served
        requests the subscriber list would otherwise grow without bound
        and every release would pay O(finished requests).
        """
        try:
            self._release_subscribers.remove(callback)
        except ValueError:
            pass

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def available(self) -> int:
        return self.n_processors - self._busy

    def acquire(self, now: float) -> None:
        """Occupy one processor."""
        if self._busy >= self.n_processors:
            raise RuntimeError("acquire on a fully busy processor pool")
        self._busy += 1
        if self.busy_curve is not None:
            self.busy_curve.add(now, +1.0)

    def release(self, now: float) -> None:
        """Release one processor (then wake any subscribed dispatchers)."""
        if self._busy <= 0:
            raise RuntimeError("release on an idle processor pool")
        self._busy -= 1
        if self.busy_curve is not None:
            self.busy_curve.add(now, -1.0)
        if self._release_subscribers:
            # Snapshot: a woken dispatcher may finish its request and
            # unsubscribe while we are still notifying.
            for callback in tuple(self._release_subscribers):
                callback()

    def busy_processor_seconds(self, t0: float, t1: float) -> float:
        """Integral of busy processors over a window (CPU-seconds used)."""
        if self.busy_curve is None:
            raise RuntimeError(
                "occupancy tracking disabled (track_curve=False)"
            )
        return self.busy_curve.integral(t0, t1)


class Storage:
    """Storage with occupancy accounting and optional finite capacity.

    The paper assumes "a storage system with infinite capacity" (the
    default, ``capacity_bytes=None``).  With a capacity, users must
    *reserve* space before materializing objects — the admission-control
    pattern of storage-constrained workflow scheduling (the paper's
    reference [15]); reservations convert to real objects on arrival.
    Space-freed callbacks let blocked stage-ins and dispatches retry.

    Objects are tracked under arbitrary hashable keys.  The occupancy
    curve's integral is the paper's storage metric ("the amount of storage
    used at the resource with the passage of time and then calculating
    the area under the curve"), in byte-seconds.  Reservations occupy
    capacity but not the billed curve (nothing is stored yet).
    """

    def __init__(self, capacity_bytes: float | None = None) -> None:
        check_capacity(capacity_bytes)
        self.capacity_bytes = capacity_bytes
        self._objects: dict[object, float] = {}
        self._reserved = 0.0
        # ``_reserved``'s ``+=``/``max(0, -)`` fold drifts by a few ulps,
        # and one ulp of a ~1.7e10 B capacity is already ~4e-6 B: scale
        # the over-release guard's slack to the capacity.
        self._release_slack = (
            1e-6 if capacity_bytes is None
            else max(1e-6, capacity_bytes * 2**-40)
        )
        self.usage_curve = StepCurve(0.0)
        self._space_freed_subscribers: list = []

    def subscribe_space_freed(self, callback) -> None:
        """Invoke ``callback()`` whenever capacity is released."""
        self._space_freed_subscribers.append(callback)

    def _notify_space_freed(self) -> None:
        for callback in self._space_freed_subscribers:
            callback()

    # -- capacity admission ------------------------------------------- #
    @property
    def reserved_bytes(self) -> float:
        return self._reserved

    @property
    def committed_bytes(self) -> float:
        """Stored plus reserved — what counts against the capacity."""
        return self.bytes_used + self._reserved

    def fits(self, n_bytes: float) -> bool:
        """Would ``n_bytes`` more fit under the capacity right now?"""
        if self.capacity_bytes is None:
            return True
        return self.committed_bytes + n_bytes <= self.capacity_bytes + 1e-6

    def reserve(self, n_bytes: float) -> bool:
        """Claim capacity ahead of materialization; False if it won't fit."""
        if n_bytes < 0:
            raise ValueError(f"negative reservation {n_bytes}")
        if not self.fits(n_bytes):
            return False
        self._reserved += n_bytes
        return True

    def release_reservation(self, n_bytes: float) -> None:
        """Return reserved capacity (on materialization or abandonment)."""
        if n_bytes < 0:
            raise ValueError(f"negative reservation {n_bytes}")
        if n_bytes > self._reserved + self._release_slack:
            raise RuntimeError(
                f"releasing {n_bytes} B but only {self._reserved} B reserved"
            )
        self._reserved = max(0.0, self._reserved - n_bytes)
        self._notify_space_freed()

    def __contains__(self, key: object) -> bool:
        return key in self._objects

    @property
    def bytes_used(self) -> float:
        return sum(self._objects.values())

    @property
    def n_objects(self) -> int:
        return len(self._objects)

    def add(self, key: object, size_bytes: float, now: float) -> None:
        """Materialize an object on storage."""
        if key in self._objects:
            raise RuntimeError(f"storage object {key!r} already present")
        if size_bytes < 0:
            raise ValueError(f"negative object size {size_bytes}")
        self._objects[key] = float(size_bytes)
        self.usage_curve.add(now, float(size_bytes))

    def remove(self, key: object, now: float) -> None:
        """Delete an object from storage."""
        try:
            size = self._objects.pop(key)
        except KeyError:
            raise RuntimeError(f"storage object {key!r} not present") from None
        self.usage_curve.add(now, -size)
        self._notify_space_freed()

    def byte_seconds(self, t0: float, t1: float) -> float:
        """Storage area-under-the-curve over a window."""
        return self.usage_curve.integral(t0, t1)

    def peak_bytes(self) -> float:
        """Maximum occupancy ever reached."""
        return self.usage_curve.max_value()


@dataclass(frozen=True)
class TransferDirection:
    """Marker for accounting transfers to or from the cloud."""

    name: str


class NetworkLink:
    """The user<->storage link, with two contention models.

    * **dedicated** (default) — every transfer progresses at the full link
      bandwidth regardless of concurrent transfers, finishing after
      ``size / bandwidth`` seconds.  This matches the network model of the
      GridSim toolkit the paper simulated with (no flow contention), and
      reproduces the paper's figures.
    * **contended** — transfers are FIFO-serialized: the link carries one
      at a time in request order.  More conservative and more realistic
      for a single 10 Mbps pipe; used by the link-contention ablation.

    Per-direction byte and request counters feed the transfer-fee
    calculation (Amazon charges different rates in and out).
    """

    def __init__(
        self, bandwidth_bytes_per_sec: float, contended: bool = False
    ) -> None:
        check_bandwidth(bandwidth_bytes_per_sec)
        self.bandwidth = float(bandwidth_bytes_per_sec)
        self.contended = bool(contended)
        self._busy_until = 0.0
        self.bytes_by_direction: dict[str, float] = {}
        self.requests_by_direction: dict[str, int] = {}

    @property
    def busy_until(self) -> float:
        """Time the link's queue drains (contended) / last transfer ends."""
        return self._busy_until

    def request(self, size_bytes: float, now: float, direction: str) -> float:
        """Submit a transfer; returns its completion time.

        ``direction`` is an accounting label (``"in"`` / ``"out"``).
        """
        if size_bytes < 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        if self.contended:
            start = max(now, self._busy_until)
            end = start + size_bytes / self.bandwidth
            self._busy_until = end
        else:
            end = now + size_bytes / self.bandwidth
            self._busy_until = max(self._busy_until, end)
        self.bytes_by_direction[direction] = (
            self.bytes_by_direction.get(direction, 0.0) + size_bytes
        )
        self.requests_by_direction[direction] = (
            self.requests_by_direction.get(direction, 0) + 1
        )
        return end

    def total_bytes(self, direction: str) -> float:
        return self.bytes_by_direction.get(direction, 0.0)

    def total_requests(self, direction: str) -> int:
        return self.requests_by_direction.get(direction, 0)
