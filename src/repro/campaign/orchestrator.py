"""Failure-aware execution of a plate campaign.

The paper prices the 3,900-plate whole-sky mosaic as ``3,900 x`` one
plate's cost; this module models actually *running* such a campaign as a
long-lived job under task failures.  :func:`run_campaign` takes a plate
set (any workflows with distinct content fingerprints — typically
jittered Montage plates from :func:`repro.montage.campaign_plates`), a
:class:`~repro.campaign.policies.ResubmissionPolicy` and a
:class:`CampaignConfig`, and drives the columnar
:func:`repro.grid.engine.run_grid` engine pass by pass:

* **pass k executes attempt k** of every still-pending plate as one
  :class:`~repro.grid.plan.GridPlan` (single probability, single
  derived seed — see :func:`attempt_seed`), sharded per plate so the
  sweep cache checkpoints at plate granularity;
* a plate attempt **fails** when its cell aborts (the attempt's
  task-retry budget ``max_task_retries`` is exhausted), and is then
  resubmitted, swept, or abandoned according to the policy;
* every billed attempt is recorded in the
  :class:`~repro.campaign.provenance.ProvenanceLog` **in execution
  order** (pass-major, plan order within a pass — the same canonical
  order for every policy; the policy governs eligibility, billing
  order and the *modeled* schedule, not the engine's execution order).

Billing convention: a failed attempt is billed at the plate's
failure-free baseline metrics (its ``p = 0`` run) — the resources one
full run consumes before the failure is detected — and the record's
``metrics`` field always holds exactly what was billed, so the audit
oracle reconciles every line with one uniform rule:
``billed_cost == on-demand cost of the recorded metrics``.

Resume comes in two layers, both content-addressed.  The grid engine
answers completed per-plate checkpoints from the
:class:`~repro.sweep.cache.SimCache`, so a rerun of a killed campaign
executes only the missing plates; and the provenance log verifies — byte
for byte — the prefix an interrupted run already wrote before appending
the tail (campaigns carry only logical time, so the re-derived lines are
identical).  Killing a campaign at *any* point therefore costs only the
in-flight plate.

Completion time is modeled logically over ``n_pools`` independent plate
slots (list scheduling in plan order, least-loaded pool first): the
``immediate`` policy has no barriers — each pool runs its plates'
attempt chains back to back — while ``sweep``/``budget`` synchronize at
every pass boundary, so their campaigns wait for each pass's straggler.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Sequence

from repro.campaign.policies import ResubmissionPolicy, policy_by_name
from repro.campaign.provenance import SCHEMA_VERSION, ProvenanceLog
from repro.core.costs import compute_cost
from repro.core.plans import ExecutionPlan
from repro.core.pricing import AWS_2008, PricingModel
from repro.grid.engine import run_grid
from repro.grid.plan import GridPlan
from repro.sim.datamanager import DataMode
from repro.sim.executor import DEFAULT_BANDWIDTH
from repro.sim.failures import check_failure_parameters
from repro.sim.resources import (
    check_bandwidth,
    check_count,
    check_finite,
    processor_count,
)
from repro.sweep.cache import SimCache, default_cache
from repro.workflow.dag import Workflow

__all__ = [
    "SEED_STRIDE",
    "CampaignConfig",
    "PlateOutcome",
    "CampaignResult",
    "attempt_seed",
    "billed_cost_of",
    "run_campaign",
]

#: Stride between the derived seeds of consecutive attempts.  Prime and
#: larger than any realistic seed ladder, so attempt seeds of one
#: campaign never collide with each other.
SEED_STRIDE = 9973

#: The metric fields an attempt is billed from (and that its provenance
#: record therefore carries) — exactly what the on-demand cost model
#: reads, plus the makespan the schedule model charges.
BILLING_METRICS = (
    "makespan",
    "compute_seconds",
    "storage_byte_seconds",
    "bytes_in",
    "bytes_out",
)


def attempt_seed(base_seed: int, attempt: int) -> int:
    """Derived failure seed of attempt ``attempt`` (0-based).

    A pure function of the campaign's base seed and the attempt index —
    never of which plates are still pending — so a resumed campaign
    derives the same seeds, and the differential suite can recompute
    them for per-plate event-engine replays.
    """
    return int(base_seed) + int(attempt) * SEED_STRIDE


def billed_cost_of(
    metrics: dict[str, float],
    pricing: PricingModel,
    n_processors: int,
    data_mode: str,
) -> float:
    """On-demand dollar cost of one attempt's recorded metrics.

    The single billing rule of the campaign layer: used by the
    orchestrator to bill attempts and by the campaign audit to
    reconcile them, so the two can never drift apart.
    """
    view = SimpleNamespace(**{name: metrics[name] for name in BILLING_METRICS})
    plan = ExecutionPlan.on_demand(n_processors, data_mode)
    return compute_cost(view, pricing, plan).total


def _metrics_of(rec: Any) -> dict[str, float]:
    """The billing metrics of one SUMMARY_DTYPE cell, as JSON scalars."""
    return {name: float(rec[name]) for name in BILLING_METRICS}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that parameterizes a campaign besides plates + policy.

    ``max_task_retries`` is the *within-attempt* budget (the kernel's
    :class:`~repro.sim.failures.FailureModel` retry budget; exhausting
    it aborts the run, which the campaign layer reads as a failed plate
    attempt).  ``max_plate_attempts`` is the *campaign-level* budget:
    how many attempts a plate gets before it is abandoned with reason
    ``retry-budget``.  ``cost_budget`` only gates resubmissions, and
    only under the ``budget`` policy.
    """

    n_processors: int = 8
    n_pools: int = 4
    probability: float = 0.05
    base_seed: int = 0
    max_task_retries: int = 1
    max_plate_attempts: int = 3
    cost_budget: float | None = None
    data_mode: str = DataMode.REGULAR.value
    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH
    ordering: str = "fifo"
    pricing: PricingModel = AWS_2008

    def __post_init__(self) -> None:
        if isinstance(self.data_mode, DataMode):
            object.__setattr__(self, "data_mode", self.data_mode.value)
        # Checked here, before run_campaign writes a provenance header
        # that a corrected re-run on the same log would then mismatch.
        processor_count(self.n_processors)
        check_failure_parameters((self.probability,), self.max_task_retries)
        check_bandwidth(self.bandwidth_bytes_per_sec)
        # A float or NaN count fails with TypeError deep in the pool or
        # attempt loop, and a NaN budget abandons every resubmission.
        for name in ("n_pools", "max_plate_attempts"):
            check_count(name, getattr(self, name))
        if self.cost_budget is not None:
            check_finite("cost_budget", self.cost_budget, positive=True)

    def round_plan(
        self,
        plates: Sequence[Workflow],
        probability: float,
        seed: int,
    ) -> GridPlan:
        """One pass (or the baseline) as a single-cell-per-plate grid."""
        return GridPlan(
            plates=tuple(plates),
            processors=(self.n_processors,),
            probabilities=(float(probability),),
            seeds=(int(seed),),
            data_mode=self.data_mode,
            bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec,
            ordering=self.ordering,
            max_retries=self.max_task_retries,
        )

    def fingerprint(
        self, plates: Sequence[Workflow], policy: ResubmissionPolicy
    ) -> str:
        """Content-addressed campaign identity (hex SHA-256)."""
        spec = "\x1e".join(
            (
                policy.name,
                *(plate.fingerprint() for plate in plates),
                str(self.n_processors),
                str(self.n_pools),
                repr(self.probability),
                str(self.base_seed),
                str(self.max_task_retries),
                str(self.max_plate_attempts),
                repr(self.cost_budget),
                self.data_mode,
                repr(self.bandwidth_bytes_per_sec),
                self.ordering,
                self.pricing.name,
            )
        )
        return hashlib.sha256(spec.encode()).hexdigest()

    def header(
        self, plates: Sequence[Workflow], policy: ResubmissionPolicy
    ) -> dict[str, Any]:
        """The provenance header record of this campaign."""
        return {
            "kind": "header",
            "schema": SCHEMA_VERSION,
            "campaign": self.fingerprint(plates, policy),
            "policy": policy.name,
            "n_plates": len(plates),
            "n_processors": self.n_processors,
            "n_pools": self.n_pools,
            "probability": self.probability,
            "base_seed": self.base_seed,
            "seed_stride": SEED_STRIDE,
            "max_task_retries": self.max_task_retries,
            "max_plate_attempts": self.max_plate_attempts,
            "cost_budget": self.cost_budget,
            "data_mode": self.data_mode,
            "bandwidth_bytes_per_sec": self.bandwidth_bytes_per_sec,
            "ordering": self.ordering,
            "pricing": {
                "name": self.pricing.name,
                "storage_per_gb_month": self.pricing.storage_per_gb_month,
                "transfer_in_per_gb": self.pricing.transfer_in_per_gb,
                "transfer_out_per_gb": self.pricing.transfer_out_per_gb,
                "cpu_per_hour": self.pricing.cpu_per_hour,
                "cpu_quantum_seconds": self.pricing.cpu_quantum_seconds,
                "storage_quantum_gb_months":
                    self.pricing.storage_quantum_gb_months,
            },
            "plates": [
                {"name": plate.name, "fingerprint": plate.fingerprint()}
                for plate in plates
            ],
        }


@dataclass(frozen=True)
class PlateOutcome:
    """Terminal state of one plate after the campaign."""

    plate: str
    fingerprint: str
    attempts: int
    completed: bool
    abandoned_reason: str | None
    billed_cost: float
    #: makespan of the successful attempt (0.0 when abandoned)
    makespan: float
    #: derived seed of the successful attempt (None when abandoned)
    seed: int | None


@dataclass(frozen=True)
class CampaignResult:
    """One campaign's terminal state plus its provenance log."""

    campaign: str
    policy: ResubmissionPolicy
    config: CampaignConfig
    outcomes: tuple[PlateOutcome, ...]
    total_billed: float
    completion_seconds: float
    n_passes: int
    log: ProvenanceLog = field(repr=False)

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes if o.completed)

    @property
    def n_abandoned(self) -> int:
        return sum(1 for o in self.outcomes if not o.completed)

    @property
    def total_attempts(self) -> int:
        return sum(o.attempts for o in self.outcomes)


def _pool_makespan(durations: Iterable[float], n_pools: int) -> float:
    """List-schedule durations onto pools; return the max pool load.

    Greedy least-loaded assignment in input order, ties broken toward
    the lowest pool index — fully deterministic.
    """
    loads = [0.0] * n_pools
    for d in durations:
        j = min(range(n_pools), key=lambda x: (loads[x], x))
        loads[j] += d
    return max(loads)


# Plate states during the campaign loop.
_PENDING, _DONE, _ABANDONED = 0, 1, 2


def run_campaign(
    plates: Sequence[Workflow],
    policy: ResubmissionPolicy | str = "sweep",
    config: CampaignConfig | None = None,
    *,
    cache: SimCache | None = None,
    log: ProvenanceLog | None = None,
    workers: int | None = None,
    shards: int | None = None,
    on_attempt: Callable[[dict[str, Any]], None] | None = None,
    progress: Callable[[str], None] | None = None,
) -> CampaignResult:
    """Execute a plate campaign under failures; see the module docstring.

    ``log`` defaults to a fresh in-memory :class:`ProvenanceLog`; pass
    one opened on an existing file to resume (the prefix is verified,
    the tail appended).  ``cache`` defaults to the process-wide sweep
    cache — give it a disk layer (``REPRO_SWEEP_CACHE``) to make plate
    checkpoints survive a kill.  ``on_attempt`` is called with every
    attempt record after it is durably logged (tests use it to simulate
    a mid-campaign kill by raising).
    """
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    config = config if config is not None else CampaignConfig()
    log = log if log is not None else ProvenanceLog()
    cache = cache if cache is not None else default_cache()
    say = progress if progress is not None else (lambda _msg: None)

    plates = tuple(plates)
    if not plates:
        raise ValueError("a campaign needs at least one plate")
    fingerprints = tuple(plate.fingerprint() for plate in plates)
    if len(set(fingerprints)) != len(fingerprints):
        raise ValueError(
            "campaign plates must have distinct content fingerprints "
            "(the provenance log is keyed on them)"
        )
    if len({plate.name for plate in plates}) != len(plates):
        raise ValueError("campaign plates must have distinct names")

    campaign_fp = config.fingerprint(plates, policy)
    log.emit(config.header(plates, policy))

    # Failure-free baselines: the billing basis of failed attempts.  The
    # p = 0 cells ride the kernel's failure-free dedup path, so this
    # pass is nearly free — and it checkpoints like any other round.
    n_shards = shards if shards is not None else len(plates)
    base_grid = run_grid(
        config.round_plan(plates, 0.0, 0),
        shards=n_shards,
        workers=workers,
        cache=cache,
        progress=progress,
    )
    baselines = [_metrics_of(base_grid.batch[i]) for i in range(len(plates))]

    state = [_PENDING] * len(plates)
    attempts = [0] * len(plates)
    billed = [0.0] * len(plates)
    chain_seconds = [0.0] * len(plates)  # attempt-makespans per plate
    success_seed: list[int | None] = [None] * len(plates)
    success_makespan = [0.0] * len(plates)
    abandoned_reason: list[str | None] = [None] * len(plates)

    spent = 0.0
    seq = 0
    n_passes = 0
    barrier_seconds = 0.0  # sum of pass makespans (barrier policies)

    for k in range(config.max_plate_attempts):
        candidates = [i for i in range(len(plates)) if state[i] == _PENDING]
        if not candidates:
            break
        seed_k = attempt_seed(config.base_seed, k)
        grid = run_grid(
            config.round_plan(
                [plates[i] for i in candidates], config.probability, seed_k
            ),
            shards=shards if shards is not None else len(candidates),
            workers=workers,
            cache=cache,
            progress=progress,
        )
        n_passes += 1
        pass_durations: list[float] = []
        for j, i in enumerate(candidates):
            if k > 0 and not policy.allows_resubmission(
                spent, config.cost_budget
            ):
                state[i] = _ABANDONED
                abandoned_reason[i] = "cost-budget"
                log.emit(
                    {
                        "kind": "abandon",
                        "seq": seq,
                        "pass": k,
                        "plate": plates[i].name,
                        "plate_fp": fingerprints[i],
                        "attempts": attempts[i],
                        "reason": "cost-budget",
                    }
                )
                seq += 1
                continue
            rec = grid.batch[j]
            failed = bool(rec["aborted"])
            metrics = dict(baselines[i]) if failed else _metrics_of(rec)
            cost = billed_cost_of(
                metrics,
                config.pricing,
                config.n_processors,
                config.data_mode,
            )
            record = log.emit(
                {
                    "kind": "attempt",
                    "seq": seq,
                    "pass": k,
                    "plate": plates[i].name,
                    "plate_fp": fingerprints[i],
                    "attempt": k,
                    "seed": seed_k,
                    "outcome": "failed" if failed else "success",
                    "metrics": metrics,
                    "n_task_failures": int(rec["n_task_failures"]),
                    "billed_cost": cost,
                }
            )
            seq += 1
            spent += cost
            billed[i] += cost
            attempts[i] = k + 1
            chain_seconds[i] += metrics["makespan"]
            pass_durations.append(metrics["makespan"])
            if not failed:
                state[i] = _DONE
                success_seed[i] = seed_k
                success_makespan[i] = metrics["makespan"]
            elif k + 1 >= config.max_plate_attempts:
                state[i] = _ABANDONED
                abandoned_reason[i] = "retry-budget"
                log.emit(
                    {
                        "kind": "abandon",
                        "seq": seq,
                        "pass": k,
                        "plate": plates[i].name,
                        "plate_fp": fingerprints[i],
                        "attempts": attempts[i],
                        "reason": "retry-budget",
                    }
                )
                seq += 1
            if on_attempt is not None:
                on_attempt(record)
        if pass_durations:
            barrier_seconds += _pool_makespan(
                pass_durations, config.n_pools
            )
        say(
            f"pass {k}: {len(candidates)} plates, "
            f"{sum(1 for i in candidates if state[i] == _DONE)} done, "
            f"${spent:.2f} billed"
        )

    if policy.barriers:
        completion_seconds = barrier_seconds
    else:
        completion_seconds = _pool_makespan(
            (chain_seconds[i] for i in range(len(plates))), config.n_pools
        )

    outcomes = tuple(
        PlateOutcome(
            plate=plates[i].name,
            fingerprint=fingerprints[i],
            attempts=attempts[i],
            completed=state[i] == _DONE,
            abandoned_reason=abandoned_reason[i],
            billed_cost=billed[i],
            makespan=success_makespan[i],
            seed=success_seed[i],
        )
        for i in range(len(plates))
    )
    log.emit(
        {
            "kind": "summary",
            "seq": seq,
            "completed": sum(1 for s in state if s == _DONE),
            "abandoned": sum(1 for s in state if s == _ABANDONED),
            "total_attempts": sum(attempts),
            "passes": n_passes,
            "total_billed": spent,
            "completion_seconds": completion_seconds,
        }
    )
    return CampaignResult(
        campaign=campaign_fp,
        policy=policy,
        config=config,
        outcomes=outcomes,
        total_billed=spent,
        completion_seconds=completion_seconds,
        n_passes=n_passes,
        log=log,
    )
