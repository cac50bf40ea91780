"""Tiered (volume-discount) fee schedules.

The paper used Amazon's then-flat rates, but even in 2008 S3's outbound
transfer price was tiered (the first terabytes per month cost more than
the rest), and the paper's conclusion expects "a more diverse selection of
fees".  A :class:`TieredRate` prices a quantity against marginal brackets,
exactly like income tax:

>>> rate = TieredRate([(10.0, 0.18), (40.0, 0.16)], 0.13)
>>> rate.cost(5.0)      # entirely inside the first bracket
0.9...
>>> rate.cost(100.0)    # 10 @ .18 + 40 @ .16 + 50 @ .13
14.7...

:class:`TieredPricingModel` wraps a base :class:`PricingModel`, replacing
any of its flat components with tiers while keeping the same cost-function
interface, so everything downstream (cost attribution, economics,
experiments) works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pricing import AWS_2008, PricingModel
from repro.util.units import GB, HOUR, MONTH

__all__ = ["TieredRate", "TieredPricingModel", "AWS_2008_TIERED_EGRESS"]


@dataclass(frozen=True)
class TieredRate:
    """Marginal-bracket pricing.

    ``brackets`` is a sequence of ``(width, unit_price)`` pairs: the first
    ``width`` units cost ``unit_price`` each, then the next bracket
    applies; quantity beyond all brackets costs ``overflow_price``.
    """

    brackets: tuple[tuple[float, float], ...]
    overflow_price: float

    def __init__(
        self,
        brackets: list[tuple[float, float]] | tuple[tuple[float, float], ...],
        overflow_price: float,
    ) -> None:
        normalized = tuple((float(w), float(p)) for w, p in brackets)
        for width, price in normalized:
            if width <= 0:
                raise ValueError(f"bracket width must be positive, got {width}")
            if price < 0:
                raise ValueError(f"negative bracket price {price}")
        if overflow_price < 0:
            raise ValueError(f"negative overflow price {overflow_price}")
        object.__setattr__(self, "brackets", normalized)
        object.__setattr__(self, "overflow_price", float(overflow_price))

    def cost(self, quantity: float) -> float:
        """Price ``quantity`` units against the brackets."""
        if quantity < 0:
            raise ValueError(f"negative quantity {quantity}")
        remaining = quantity
        total = 0.0
        for width, price in self.brackets:
            step = min(remaining, width)
            total += step * price
            remaining -= step
            if remaining <= 0:
                return total
        return total + remaining * self.overflow_price

    def marginal_price(self, quantity: float) -> float:
        """Unit price of the next unit after ``quantity``."""
        if quantity < 0:
            raise ValueError(f"negative quantity {quantity}")
        consumed = 0.0
        for width, price in self.brackets:
            if quantity < consumed + width:
                return price
            consumed += width
        return self.overflow_price

    @staticmethod
    def flat(price: float) -> "TieredRate":
        """A degenerate single-rate schedule."""
        return TieredRate([], price)


class TieredPricingModel:
    """A :class:`PricingModel` facade with tiered components.

    Components left as ``None`` fall through to the base model's flat
    rate.  Tier quantities are expressed in the provider's natural units:
    GB for transfers, GB-months for storage, CPU-hours for compute.
    """

    def __init__(
        self,
        base: PricingModel,
        name: str | None = None,
        transfer_in: TieredRate | None = None,
        transfer_out: TieredRate | None = None,
        storage: TieredRate | None = None,
        cpu: TieredRate | None = None,
    ) -> None:
        self.base = base
        self.name = name or f"{base.name}-tiered"
        self._transfer_in = transfer_in
        self._transfer_out = transfer_out
        self._storage = storage
        self._cpu = cpu

    # Same cost-function interface as PricingModel. ------------------- #
    def transfer_in_cost(self, n_bytes: float) -> float:
        if self._transfer_in is None:
            return self.base.transfer_in_cost(n_bytes)
        if n_bytes < 0:
            raise ValueError(f"negative transfer bytes {n_bytes}")
        return self._transfer_in.cost(n_bytes / GB)

    def transfer_out_cost(self, n_bytes: float) -> float:
        if self._transfer_out is None:
            return self.base.transfer_out_cost(n_bytes)
        if n_bytes < 0:
            raise ValueError(f"negative transfer bytes {n_bytes}")
        return self._transfer_out.cost(n_bytes / GB)

    def storage_cost(self, byte_seconds: float) -> float:
        if self._storage is None:
            return self.base.storage_cost(byte_seconds)
        if byte_seconds < 0:
            raise ValueError(f"negative byte-seconds {byte_seconds}")
        return self._storage.cost(byte_seconds / GB / MONTH)

    def cpu_cost(self, cpu_seconds: float, n_instances: int = 1) -> float:
        if self._cpu is None:
            return self.base.cpu_cost(cpu_seconds, n_instances=n_instances)
        if cpu_seconds < 0:
            raise ValueError(f"negative cpu-seconds {cpu_seconds}")
        return self._cpu.cost(cpu_seconds / HOUR)

    def monthly_storage_cost(self, n_bytes: float) -> float:
        if self._storage is None:
            return self.base.monthly_storage_cost(n_bytes)
        if n_bytes < 0:
            raise ValueError(f"negative storage bytes {n_bytes}")
        return self._storage.cost(n_bytes / GB)


#: Amazon's 2008 fee structure with the *actual* tiered S3 egress of the
#: period: $0.18/GB for the first 10 TB each month, $0.16/GB for the next
#: 40 TB, $0.13/GB beyond.  The paper's flat $0.16 sits in the middle
#: bracket; the tiered-egress test quantifies the difference for the
#: whole-sky computation.
AWS_2008_TIERED_EGRESS = TieredPricingModel(
    base=AWS_2008,
    name="aws-2008-tiered-egress",
    transfer_out=TieredRate(
        [(10_000.0, 0.18), (40_000.0, 0.16)], 0.13
    ),
)
