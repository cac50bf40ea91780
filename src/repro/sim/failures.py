"""Task failure injection (reliability extension).

The paper's conclusions flag reliability as an open question: S3 targets
99.9% availability but suffered two outages in the first seven months of
2008, and "the possible impact on the applications can be significant."
This model quantifies that impact inside our simulator: each task execution
fails independently with a fixed probability; a failed attempt is detected
at its end (the time and CPU occupancy are wasted and re-billed) and the
task is retried on the same processor, up to ``max_retries`` extra
attempts, after which the whole run aborts.

Draws are consumed in event order from a seeded generator, so simulations
with failures remain fully deterministic.  That stream is a contract:
the fast kernel (:mod:`repro.sim.kernel`) replays the exact same draws
at the exact same completion points, and its Monte Carlo entry point
pre-draws the per-seed uniform stream vectorized — both produce results
bit-identical to the event engine for any (probability, seed) pair.
"""

from __future__ import annotations

import numpy as np

from repro.sim.resources import check_count

__all__ = ["FailureModel", "WorkflowAbortedError"]


class WorkflowAbortedError(RuntimeError):
    """A task exhausted its retry budget; the execution cannot complete."""

    @classmethod
    def exhausted(cls, task_id: str, attempt: int) -> "WorkflowAbortedError":
        """The error for ``task_id`` failing ``attempt`` with no retries
        left (every engine raises this message verbatim)."""
        return cls(
            f"task {task_id!r} failed on attempt {attempt} with no "
            "retries left"
        )


def check_failure_parameters(probabilities, max_retries) -> None:
    """``ValueError`` unless every probability is in ``[0, 1)`` (not NaN)
    and ``max_retries`` is a non-bool integer ``>= 0`` (a NaN budget
    would mean unlimited retries)."""
    for p in probabilities:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"failure probability must be in [0, 1); got {p}")
    check_count("max_retries", max_retries, minimum=0)


class FailureModel:
    """Independent per-attempt task failures with bounded retries."""

    def __init__(
        self,
        task_failure_probability: float,
        seed: int = 0,
        max_retries: int = 10,
    ) -> None:
        check_failure_parameters((task_failure_probability,), max_retries)
        self.task_failure_probability = task_failure_probability
        self.max_retries = max_retries
        self._rng = np.random.default_rng(seed)

    def attempt_fails(self, task_id: str, attempt: int) -> bool:
        """Decide the fate of one execution attempt.

        Raises :class:`WorkflowAbortedError` when the attempt would fail
        but the retry budget (``max_retries`` re-executions after the
        first) is already spent.
        """
        if self.task_failure_probability == 0.0:
            return False
        failed = bool(self._rng.random() < self.task_failure_probability)
        if failed and attempt > self.max_retries:
            raise WorkflowAbortedError.exhausted(task_id, attempt)
        return failed
