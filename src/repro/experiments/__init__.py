"""Experiment harness: one module per paper question, regenerating every
figure and table of the evaluation (Section 6).

* :mod:`repro.experiments.question1` — Figures 4, 5, 6: execution costs
  and execution time versus provisioned processors;
* :mod:`repro.experiments.question2a` — Figures 7, 8, 9, 10: data
  management metrics and costs per execution mode;
* :mod:`repro.experiments.ccr` — the CCR table and Figure 11: cost versus
  communication-to-computation ratio;
* :mod:`repro.experiments.question2b` — archive-hosting break-even;
* :mod:`repro.experiments.question3` — whole-sky cost and the
  store-vs-recompute horizon;
* :mod:`repro.experiments.report` — fixed-width table rendering shared by
  the report, the CLI and the examples;
* :mod:`repro.experiments.runner` — run everything and emit the full
  paper-comparison report (``python -m repro report``).
"""

from repro.experiments.question1 import Question1Result, run_question1
from repro.experiments.question2a import ModeMetrics, Question2aResult, run_question2a
from repro.experiments.ccr import CCRPoint, CCRSweepResult, run_ccr_sweep, ccr_table
from repro.experiments.question2b import Question2bResult, run_question2b
from repro.experiments.question3 import Question3Result, run_question3
from repro.experiments.report import format_table
from repro.experiments.verification import (
    ComparisonRow,
    comparison_table,
    verify_reproduction,
)

__all__ = [
    "Question1Result",
    "run_question1",
    "ModeMetrics",
    "Question2aResult",
    "run_question2a",
    "CCRPoint",
    "CCRSweepResult",
    "run_ccr_sweep",
    "ccr_table",
    "Question2bResult",
    "run_question2b",
    "Question3Result",
    "run_question3",
    "format_table",
    "ComparisonRow",
    "comparison_table",
    "verify_reproduction",
]
