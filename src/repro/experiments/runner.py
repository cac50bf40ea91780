"""Run the complete evaluation and print the paper-comparison report.

Usage::

    python -m repro report [--fast] [--extensions] [--audit]

``--fast`` limits Question 1 to the 1° workflow and a short processor
ladder (useful as a smoke test); the full run covers every figure and
table of the paper's Section 6 and finishes in well under a minute.
``--extensions`` appends the ablation studies (billing granularity, VM
overhead, fee sensitivity, link contention, failures, Monte Carlo
failure distributions, scheduler, storage capacity, clustering) on the
1° workload.  Wall-clock timings (the service-scale study's) go to
stderr, so stdout is byte-reproducible.
"""

from __future__ import annotations

import sys
from io import StringIO

from repro.experiments.ccr import ccr_table, run_ccr_sweep
from repro.experiments.verification import comparison_table, verify_reproduction
from repro.experiments.question1 import run_question1
from repro.experiments.question2a import run_question2a
from repro.experiments.question2b import run_question2b
from repro.experiments.question3 import run_question3
from repro.experiments.report import format_table
from repro.sweep import set_default_audit

__all__ = ["run_all"]

#: Paper-reported values for the summary comparison (figure/question,
#: quantity, value).
_PAPER_VALUES = [
    ("fig4", "1deg, 1 proc total", "$0.60"),
    ("fig4", "1deg, 1 proc time", "5.5 h"),
    ("fig4", "1deg, 128 procs total", "~$4"),
    ("fig4", "1deg, 128 procs time", "18 min"),
    ("fig5", "2deg, 1 proc total", "$2.25"),
    ("fig5", "2deg, 1 proc time", "20.5 h"),
    ("fig5", "2deg, 128 procs total", "<$8"),
    ("fig5", "2deg, 128 procs time", "<40 min"),
    ("fig6", "4deg, 1 proc total", "$9"),
    ("fig6", "4deg, 1 proc time", "85 h"),
    ("fig6", "4deg, 128 procs total", "$13.92"),
    ("fig6", "4deg, 16 procs total", "$9.25"),
    ("fig10", "1deg CPU cost", "$0.56"),
    ("fig10", "2deg CPU cost", "$2.03"),
    ("fig10", "4deg CPU cost", "$8.40"),
    ("q2b", "2deg staged", "$2.22"),
    ("q2b", "2deg pre-staged", "$2.12"),
    ("q2b", "monthly archive storage", "$1,800"),
    ("q2b", "break-even mosaics/month", "18,000"),
    ("q3", "whole sky (staged)", "$34,632"),
    ("q3", "whole sky (pre-staged)", "$34,145"),
    ("q3", "1deg storable months", "21.52"),
    ("q3", "2deg storable months", "24.25"),
    ("q3", "4deg storable months", "25.12"),
]


def run_all(
    fast: bool = False,
    extensions: bool = False,
    stream=None,
    audit: bool = False,
) -> str:
    """Execute every experiment; returns (and optionally streams) the report.

    With ``audit=True`` every simulation behind every figure runs fresh
    under the trace-audit oracle (:mod:`repro.audit`): the caches are
    bypassed and the first reconciliation violation anywhere aborts the
    report with :class:`repro.audit.AuditError`.
    """
    out = StringIO()

    def emit(text: str = "") -> None:
        print(text, file=out)
        if stream is not None:
            print(text, file=stream)

    emit("=" * 72)
    emit("Reproduction report: The Cost of Doing Science on the Cloud (SC'08)")
    emit("=" * 72)
    if audit:
        emit(
            "audit mode: every simulation runs fresh and is reconciled "
            "against its event trace (caches bypassed)"
        )
        previous_audit = set_default_audit(True)
        try:
            return _run_body(fast, extensions, emit, out)
        finally:
            set_default_audit(previous_audit)
    return _run_body(fast, extensions, emit, out)


def _run_body(fast: bool, extensions: bool, emit, out: StringIO) -> str:

    # ---------------------------------------------------------- Question 1
    degrees = (1.0,) if fast else (1.0, 2.0, 4.0)
    processors = [1, 4, 16, 64] if fast else None
    for degree, fig in zip(degrees, ("Figure 4", "Figure 5", "Figure 6")):
        q1 = run_question1(degree, processors=processors)
        emit()
        emit(f"--- {fig} (Question 1, {degree:g} degree) ---")
        emit(q1.as_table())

    # --------------------------------------------------------- Question 2a
    for degree, fig in zip(degrees, ("Figure 7", "Figure 8", "Figure 9")):
        q2a = run_question2a(degree)
        emit()
        emit(f"--- {fig} (Question 2a, {degree:g} degree) ---")
        emit(q2a.as_table())

    # ------------------------------------------------------------ CCR data
    emit()
    emit("--- CCR table (Section 6; paper: 0.053 / 0.053 / 0.045) ---")
    emit(
        format_table(
            ("workflow", "CCR"),
            [(name, f"{value:.4f}") for name, value in ccr_table()],
        )
    )
    emit()
    emit("--- Figure 11 (CCR sweep, 1 degree on 8 processors) ---")
    emit(run_ccr_sweep(1.0).as_table())

    # --------------------------------------------------------- Question 2b
    emit()
    emit("--- Question 2b (archive hosting economics) ---")
    emit(run_question2b().as_table())

    # ---------------------------------------------------------- Question 3
    emit()
    emit("--- Question 3 (whole sky; store vs recompute) ---")
    emit(run_question3().as_table())

    # ------------------------------------------------------ extensions
    if extensions:
        from repro.experiments.ablations import all_studies
        from repro.montage.generator import montage_workflow

        emit()
        emit("--- Extension / ablation studies (Montage 1 degree) ---")
        for study in all_studies(montage_workflow(1.0)):
            emit()
            emit(study.as_table())
            if study.timings:
                print(study.timings, file=sys.stderr)

    # -------------------------------------------------- verification
    if fast:
        emit()
        emit("--- Paper-reported values (verification skipped in --fast) ---")
        emit(format_table(("exp", "quantity", "paper"), _PAPER_VALUES))
    else:
        emit()
        emit("--- Verification: paper vs measured ---")
        rows = verify_reproduction()
        emit(comparison_table(rows))
        failed = [r for r in rows if not r.ok]
        emit(
            f"{len(rows) - len(failed)}/{len(rows)} published values "
            "reproduced within tolerance."
        )
    return out.getvalue()

