"""Independent trace-audit oracle.

Every headline number of the reproduction — the Figure 4-10 costs, the
transfer volumes, the break-even months — comes out of one simulator, so
a bug in the engine would silently shift the paper scoreboard instead of
failing loudly.  This package is the counterweight: given a
:class:`~repro.sim.results.SimulationResult` that carries its event
trace, the auditor **re-derives every reported quantity from the raw
task/transfer records alone** and reconciles it with what the engine
returned:

* *metrics* — makespan, compute/busy CPU-seconds, bytes in/out and the
  full storage-occupancy curve are recomputed from the records and
  compared at float tolerance;
* *schedule legality* — DAG precedence, processor-pool capacity, link
  serialization (or exact full-bandwidth durations in the paper's
  contention-free model), retry contiguity, and file lifecycles (no
  task reads a file that was never produced/staged, or that the cleanup
  policy already deleted);
* *money* — :func:`repro.core.costs.compute_cost` is reconciled against
  costs recomputed from the trace-derived quantities under both the
  provisioned and on-demand plans.

One level up, :func:`audit_campaign` applies the same discipline to a
whole campaign: every claim a provenance log makes — no double billing,
every retry justified by a recorded failure, budgets respected, totals
reconciling with :mod:`repro.core.costs` — is re-derived from the log
alone (see :mod:`repro.audit.campaign`).

Entry points: :func:`audit_simulation` (library),
``simulate(..., audit=True)`` (one-call), ``run_jobs(..., audit=True)``
(sweeps), ``python -m repro report --audit`` (the full paper report,
every point audited), and
:func:`audit_campaign` / ``python -m repro campaign --audit``
(campaign provenance logs).
"""

from repro.audit.oracle import (
    AuditError,
    AuditReport,
    AuditViolation,
    audit_simulation,
)
from repro.audit.trace_model import DerivedTrace


def __getattr__(name: str):
    # Lazy forward: repro.audit.campaign reaches the campaign package,
    # whose grid engine imports the sweep executor, which imports
    # repro.audit — importing it eagerly here would re-enter that cycle
    # whichever module is imported first.
    if name == "audit_campaign":
        from repro.audit.campaign import audit_campaign

        return audit_campaign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AuditError",
    "AuditReport",
    "AuditViolation",
    "DerivedTrace",
    "audit_campaign",
    "audit_simulation",
]
