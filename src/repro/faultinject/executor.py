"""Crash-isolated, deterministic trial executors for FI campaigns.

Two layers live here:

1. **Deterministic trial identity.**  Every trial is a pure function of
   ``(campaign seed, structure, trial index)``: its private RNG stream
   comes from ``np.random.SeedSequence(seed, spawn_key=(structure_key,
   trial_index))`` — the same construction ``SeedSequence.spawn`` uses,
   but keyed on the trial's *identity* instead of spawn order.  Results
   are therefore bit-identical regardless of executor choice, worker
   count, which subset of structures runs, or where a resumed campaign
   picks up.

2. **Pluggable execution.**  :class:`InProcessExecutor` is the fast
   path; :class:`ProcessTrialExecutor` forks one worker per trial (in
   waves of ``jobs``) so a segfault-class failure or hang in a kernel
   takes down only its worker — the executor reports it as a
   :class:`~repro.faultinject.errors.TrialCrash` /
   :class:`~repro.faultinject.errors.TrialTimeout` sentinel and the
   campaign keeps going.

Executors return *raw* trial outputs (kernel output array, ``None`` for
a caught crash-class exception, or a trial-error sentinel); outcome
classification against the fault-free reference stays in the campaign
driver so both executors share one code path.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
import zlib
from dataclasses import dataclass

import numpy as np

from repro.faultinject.errors import TrialCrash, TrialTimeout, WorkerLost
from repro.faultinject.targets import resolve_target
from repro.kernels.base import Workload

#: Exceptions a fault-perturbed trial may legitimately raise.  NumPy
#: surfaces injected non-finite values as ``FloatingPointError``,
#: ``OverflowError`` or ``RuntimeError`` depending on errstate and code
#: path; corrupted shapes/indices raise ``ValueError``; degenerate
#: systems raise ``LinAlgError`` (and ``ZeroDivisionError`` from scalar
#: math).  All count as CRASH outcomes, never as campaign bugs.
TRIAL_CRASH_EXCEPTIONS: tuple[type[BaseException], ...] = (
    FloatingPointError,
    ZeroDivisionError,
    OverflowError,
    RuntimeError,
    ValueError,
    np.linalg.LinAlgError,
)

#: Spawn-key component reserved for the fault-free reference run, so it
#: can never collide with a trial stream (structure keys are CRC32s of
#: non-empty names; the empty string hashes to 0 only for b"").
REFERENCE_SPAWN_KEY = (0xFFFFFFFF + 1,)


def structure_key(structure: str) -> int:
    """Stable integer identity for a structure label (CRC32 of UTF-8).

    Independent of the structure's position in any tuple, so campaigns
    over subsets see the same per-trial streams as full campaigns.
    """
    return zlib.crc32(structure.encode("utf-8"))


def trial_seed(seed: int, structure: str, trial_index: int) -> np.random.SeedSequence:
    """The ``SeedSequence`` owning trial ``(structure, trial_index)``.

    Built as ``SeedSequence(seed, spawn_key=(structure_key(structure),
    trial_index))`` — exactly what ``SeedSequence(seed).spawn(...)``
    would produce if spawning were keyed on identity rather than call
    order.
    """
    return np.random.SeedSequence(
        seed, spawn_key=(structure_key(structure), trial_index)
    )


def reference_rng(seed: int) -> np.random.Generator:
    """Dedicated RNG stream for the fault-free reference run."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=REFERENCE_SPAWN_KEY)
    )


@dataclass(frozen=True)
class TrialSpec:
    """Complete, picklable description of one injection trial."""

    kernel: str
    workload: Workload
    structure: str
    trial_index: int
    seed: int

    def rng(self) -> np.random.Generator:
        """The trial's private RNG stream (phase draw + flip location)."""
        return np.random.default_rng(
            trial_seed(self.seed, self.structure, self.trial_index)
        )


def run_trial(spec: TrialSpec):
    """Execute one trial; returns the kernel output or ``None``.

    ``None`` means a crash-class exception was caught — the adapter's
    numerics legitimately blew up under the injected fault.  Anything
    else (including a hard worker death) is the executor's business.
    """
    target = resolve_target(spec.kernel)
    rng = spec.rng()
    phase = float(rng.random())
    try:
        # Faults legitimately overflow/underflow the numerics; silence
        # the warnings and let classification see the non-finite values.
        with np.errstate(all="ignore"):
            return target.run(spec.workload, spec.structure, phase, rng)
    except TRIAL_CRASH_EXCEPTIONS:
        return None


class TrialExecutor:
    """Interface executors implement.

    ``batch_size`` tells the campaign how many trials to submit per
    :meth:`run_batch` call; it affects scheduling only, never results —
    the campaign consumes outputs in trial-index order and applies its
    stopping rule per trial, so extra in-flight trials are discarded
    deterministically.
    """

    batch_size: int = 1

    def run_batch(self, specs: list[TrialSpec]) -> list:
        """Run ``specs``, returning one raw result per spec, in order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (no-op by default)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class InProcessExecutor(TrialExecutor):
    """Fast path: trials run in the campaign process.

    No crash isolation — a segfault-class failure in an adapter would
    take down the campaign — but zero per-trial overhead, and
    crash-class *exceptions* are still caught and classified.
    """

    batch_size = 1

    def run_batch(self, specs: list[TrialSpec]) -> list:
        return [run_trial(spec) for spec in specs]


#: Exit status a worker reports when it honours a supervisor SIGTERM
#: (the conventional ``128 + SIGTERM``).
SIGTERM_EXIT = 128 + signal.SIGTERM

#: Sentinel returned by :meth:`SupervisedCall.poll` while the worker is
#: still running.  A distinct object (not ``None``) because supervised
#: callables may legitimately return ``None``.
PENDING = object()


def _sigterm_exit(signum, frame):  # pragma: no cover - signal handler
    # Exit *promptly* and without running atexit/finally machinery: a
    # cancelled worker must not flush partial writes into shared files
    # (checkpoint journals, cache indices) while dying.
    os._exit(SIGTERM_EXIT)


def _supervised_child(conn, fn, args) -> None:  # pragma: no cover - subprocess
    """Child entry point: run ``fn(*args)``, ship the result back.

    Installs a SIGTERM handler first, so supervisor-initiated
    cancellation exits immediately (``os._exit``) instead of unwinding
    through arbitrary user code mid-write.  An exception escaping
    ``fn`` prints its traceback and exits nonzero — the supervisor sees
    :class:`WorkerLost` with ``exitcode=1``.
    """
    signal.signal(signal.SIGTERM, _sigterm_exit)
    if hasattr(signal, "pthread_sigmask"):
        # The parent blocked SIGTERM across the fork so an immediate
        # terminate() can't land before this handler exists; any such
        # pending signal is delivered right here, to the handler.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    try:
        result = fn(*args)
    except BaseException:
        traceback.print_exc()
        conn.close()
        os._exit(1)
    try:
        conn.send(result)
    finally:
        conn.close()


def _default_context() -> mp.context.BaseContext:
    """``fork`` where available (cheap, inherits monkeypatches), else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class SupervisedCall:
    """One function call in a supervised, crash-isolated child process.

    The reusable subprocess primitive under both the FI trial executor
    and the DVF job service: start a child running ``fn(*args)``, then

    * :meth:`wait` / :attr:`sentinel` to block or multiplex on
      completion,
    * :meth:`expired` to check the per-call ``timeout``,
    * :meth:`terminate` to cancel with SIGTERM-then-SIGKILL escalation
      (the child installs a prompt SIGTERM handler; ``term_grace``
      bounds how long a C-level loop may ignore it before SIGKILL),
    * :meth:`poll` to collect the outcome: :data:`PENDING` while
      running, the child's return value on success, or a
      :class:`~repro.faultinject.errors.WorkerLost` sentinel when the
      child died without delivering a result.

    The caller decides what worker loss and expiry *mean* (a trial
    CRASH, a retryable job failure, ...); this class only supervises.
    """

    def __init__(
        self,
        fn,
        args: tuple = (),
        *,
        ctx: mp.context.BaseContext | None = None,
        timeout: float | None = None,
        term_grace: float = 2.0,
        label: str = "worker",
    ):
        self.fn = fn
        self.args = args
        self.timeout = timeout
        self.term_grace = term_grace
        self.label = label
        self._ctx = ctx if ctx is not None else _default_context()
        self.proc: mp.process.BaseProcess | None = None
        self._recv = None
        self.started_at: float | None = None
        self._result = PENDING

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SupervisedCall":
        recv, send = self._ctx.Pipe(duplex=False)
        self.proc = self._ctx.Process(
            target=_supervised_child, args=(send, self.fn, self.args),
            daemon=True,
        )
        if hasattr(signal, "pthread_sigmask"):
            # Keep SIGTERM blocked (and so inherited-blocked) across the
            # fork: a terminate() racing the child's handler install
            # would otherwise kill it with the default disposition
            # (exitcode -15) instead of the prompt handler's 143.  The
            # child unblocks once its handler is in place.
            held = signal.pthread_sigmask(
                signal.SIG_BLOCK, {signal.SIGTERM}
            )
            try:
                self.proc.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        else:  # pragma: no cover - non-POSIX
            self.proc.start()
        send.close()
        self._recv = recv
        self.started_at = time.monotonic()
        return self

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    @property
    def sentinel(self) -> int:
        """Waitable handle for ``multiprocessing.connection.wait``."""
        return self.proc.sentinel

    def expired(self, now: float | None = None) -> bool:
        """True once the call has outlived its ``timeout``."""
        if self.timeout is None or self.started_at is None:
            return False
        return (now if now is not None else time.monotonic()) \
            - self.started_at > self.timeout

    def wait(self, timeout: float | None = None) -> bool:
        """Join up to ``timeout`` seconds; True when the child exited."""
        self.proc.join(timeout)
        return not self.proc.is_alive()

    def terminate(self) -> None:
        """Cancel the child: SIGTERM, grace period, then SIGKILL."""
        if self.proc is None:
            return
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(self.term_grace)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()

    # -- result collection ---------------------------------------------
    def poll(self):
        """:data:`PENDING`, the child's value, or a :class:`WorkerLost`."""
        if self.proc is None:
            raise RuntimeError("SupervisedCall.poll() before start()")
        if self.proc.is_alive():
            return PENDING
        if self._result is not PENDING:
            return self._result
        self.proc.join()  # reap
        received = PENDING
        if self._recv is not None:
            try:
                if self._recv.poll():
                    received = self._recv.recv()
            except (EOFError, OSError):
                received = PENDING  # died mid-send
            finally:
                self._recv.close()
                self._recv = None
        if received is PENDING:
            received = WorkerLost(
                f"{self.label} died without delivering a result "
                f"(exitcode {self.proc.exitcode})",
                exitcode=self.proc.exitcode,
                label=self.label,
            )
        self._result = received
        return self._result


class ProcessTrialExecutor(TrialExecutor):
    """One worker process per trial, launched in waves of ``jobs``.

    The strongest isolation available from the standard library: a
    worker that segfaults, calls ``os._exit``, or is OOM-killed is
    reported as :class:`TrialCrash`; one that hangs past ``timeout``
    seconds is cancelled (SIGTERM, then SIGKILL after ``term_grace``)
    and reported as :class:`TrialTimeout`.  The campaign classifies
    both without aborting.

    ``timeout`` is the per-wave wall-clock budget; since every trial in
    a wave starts together, it bounds each trial's runtime.  Built on
    :class:`SupervisedCall`, so workers install the prompt SIGTERM
    handler and cancellation can never leave partial writes behind.
    Uses the ``fork`` start method where available (cheap on Linux, and
    child processes inherit monkeypatched registries — useful in
    tests), falling back to ``spawn``; :class:`TrialSpec` is picklable
    either way.
    """

    def __init__(
        self,
        jobs: int | None = None,
        timeout: float | None = None,
        term_grace: float = 2.0,
    ):
        self.jobs = max(1, int(jobs) if jobs else (os.cpu_count() or 1))
        self.timeout = timeout
        self.term_grace = term_grace
        self.batch_size = self.jobs
        self._ctx = _default_context()

    def run_batch(self, specs: list[TrialSpec]) -> list:
        calls = [
            SupervisedCall(
                run_trial,
                (spec,),
                ctx=self._ctx,
                term_grace=self.term_grace,
                label=f"trial {spec.structure}#{spec.trial_index}",
            ).start()
            for spec in specs
        ]
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        return [
            self._collect(spec, call, deadline)
            for spec, call in zip(specs, calls)
        ]

    def _collect(self, spec: TrialSpec, call: SupervisedCall, deadline):
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        if not call.wait(remaining):
            call.terminate()
            return TrialTimeout(
                f"trial {spec.structure}#{spec.trial_index} exceeded "
                f"{self.timeout}s",
                timeout=self.timeout,
                kernel=spec.kernel,
                structure=spec.structure,
                trial_index=spec.trial_index,
            )
        result = call.poll()
        if isinstance(result, WorkerLost):
            return TrialCrash(
                f"worker for trial {spec.structure}#{spec.trial_index} died "
                f"(exitcode {result.exitcode})",
                exitcode=result.exitcode,
                kernel=spec.kernel,
                structure=spec.structure,
                trial_index=spec.trial_index,
            )
        return result


def make_executor(
    jobs: int | None = None, timeout: float | None = None
) -> TrialExecutor:
    """Pick an executor: process isolation iff ``jobs``/``timeout`` set."""
    if jobs is not None or timeout is not None:
        return ProcessTrialExecutor(jobs=jobs, timeout=timeout)
    return InProcessExecutor()
