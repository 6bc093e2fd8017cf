"""Structured error taxonomy for fault-injection campaigns.

The campaign engine distinguishes *expected* trial-level failures (a
fault legitimately crashed or hung the injected run — these are
campaign data, not bugs) from *infrastructure* failures (a checkpoint
file is unreadable or belongs to a different campaign — these abort).

Trial-level errors double as sentinel values: the executors return
:class:`TrialCrash` / :class:`TrialTimeout` *instances* in place of a
kernel output, and the campaign loop classifies them as
:data:`~repro.faultinject.outcomes.Outcome.CRASH` /
:data:`~repro.faultinject.outcomes.Outcome.TIMEOUT` without unwinding
the stack.  They are still real exceptions, so code that prefers to
``raise`` them can.
"""

from __future__ import annotations


class FaultInjectionError(Exception):
    """Base class for all structured fault-injection errors."""


class TrialError(FaultInjectionError):
    """A single trial failed in a way that is itself campaign data.

    Carries enough context (``kernel``, ``structure``, ``trial_index``)
    to identify the trial in a checkpoint journal.
    """

    def __init__(
        self,
        message: str = "",
        *,
        kernel: str | None = None,
        structure: str | None = None,
        trial_index: int | None = None,
    ):
        super().__init__(message or self.__class__.__name__)
        self.kernel = kernel
        self.structure = structure
        self.trial_index = trial_index


class TrialCrash(TrialError):
    """The worker process running a trial died (segfault-class failure).

    ``exitcode`` is the worker's exit status when known (negative values
    are signal numbers, POSIX convention).
    """

    def __init__(self, message: str = "", *, exitcode: int | None = None, **kw):
        super().__init__(message, **kw)
        self.exitcode = exitcode


class TrialTimeout(TrialError):
    """A trial exceeded the per-trial timeout and was terminated."""

    def __init__(self, message: str = "", *, timeout: float | None = None, **kw):
        super().__init__(message, **kw)
        self.timeout = timeout


class WorkerLost(FaultInjectionError):
    """A supervised worker process died without reporting a result.

    The generic counterpart of :class:`TrialCrash` for arbitrary
    supervised subprocesses (see
    :class:`~repro.faultinject.executor.SupervisedCall`): the child was
    OOM-killed, segfaulted, called ``os._exit``, or was killed by the
    supervisor's SIGTERM/SIGKILL escalation before sending its result.
    ``exitcode`` follows the POSIX convention (negative = signal
    number); ``label`` identifies the unit of work when known.

    The job service retries a lost worker — the same job may well
    succeed on a healthy one.
    """

    def __init__(
        self,
        message: str = "",
        *,
        exitcode: int | None = None,
        label: str | None = None,
    ):
        super().__init__(message or self.__class__.__name__)
        self.exitcode = exitcode
        self.label = label


class CheckpointError(FaultInjectionError):
    """Base class for checkpoint-journal problems (these abort)."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file is structurally unreadable.

    A truncated *final* line is tolerated by the loader (it is the
    normal artifact of a hard kill mid-write); corruption anywhere else
    raises this.
    """


class CheckpointMismatch(CheckpointError):
    """A checkpoint belongs to a different campaign.

    Raised when the journal's fingerprint (kernel, workload, seed,
    tolerance) disagrees with the campaign asked to resume from it —
    resuming would silently mix incompatible trial populations.
    """
