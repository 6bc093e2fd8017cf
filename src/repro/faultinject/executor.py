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
   path; :class:`ProcessTrialExecutor` runs trials in waves of ``jobs``
   on as many :class:`Worker` processes, each forked once and kept
   until the executor closes, so a segfault-class failure or hang in a
   kernel takes down only its worker — the executor reports it as a
   :class:`~repro.faultinject.errors.TrialCrash` /
   :class:`~repro.faultinject.errors.TrialTimeout` sentinel, forks a
   replacement, and the campaign keeps going.  :class:`SupervisedCall`
   is the per-call handle on a worker that the job service shares.

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
from multiprocessing import util

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

#: Signals the parent holds blocked across a worker's fork, until the
#: child has installed its own dispositions for them.
_HELD_SIGNALS = {signal.SIGTERM, signal.SIGINT}


def _sigterm_exit(signum, frame):  # pragma: no cover - signal handler
    # Exit *promptly* and without running atexit/finally machinery: a
    # cancelled worker must not flush partial writes into shared files
    # (checkpoint journals, cache indices) while dying.
    os._exit(SIGTERM_EXIT)


def _worker_loop(fn, tasks, results) -> None:  # pragma: no cover - subprocess
    """Child entry point: run ``fn(*args)`` for each task until EOF.

    Installs a SIGTERM handler first, so supervisor-initiated
    cancellation exits immediately (``os._exit``) instead of unwinding
    through arbitrary user code mid-write, and ignores SIGINT: a
    terminal's Ctrl-C reaches the whole process group, and cancelling a
    running call is the parent's decision.  An exception escaping
    ``fn`` prints its traceback and exits nonzero — the parent sees
    :class:`WorkerLost` with ``exitcode=1``.  EOF on ``tasks`` (the
    parent closed it, or died) ends the loop.
    """
    signal.signal(signal.SIGTERM, _sigterm_exit)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "pthread_sigmask"):
        # The parent blocked these across the fork so an immediate
        # terminate() can't land before the handler exists; a pending
        # SIGTERM is delivered right here, to the handler.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _HELD_SIGNALS)
    while True:
        try:
            args = tasks.recv()
        except EOFError:
            return
        try:
            result = fn(*args)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        try:
            results.send(result)
        except BrokenPipeError:
            return  # nobody is left to read it


def _default_context() -> mp.context.BaseContext:
    """``fork`` where available (cheap, inherits monkeypatches), else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class Worker:
    """A child process forked once with ``fn``, serving calls one at a time.

    The child reads argument tuples from a task pipe, runs ``fn(*args)``
    and writes each return value to a result pipe, so a pool pays one
    fork per worker instead of one per call.  Only argument tuples and
    return values cross the pipes: ``fn`` reaches the child once,
    through ``fork`` (which also carries monkeypatches and wrappers that
    would not pickle) or a pickle under ``spawn``.

    EOF on the result pipe means the child died; :meth:`receive` then
    reaps it and raises :class:`EOFError`.  EOF on the task pipe — the
    parent closed it in :meth:`close`, or died — ends the child.  Both
    need the parent to hold the only other end of each pipe, so every
    process ``multiprocessing`` starts later (other workers, shard-pool
    processes) first closes the copies it inherited.
    """

    def __init__(self, fn):
        ctx = _default_context()
        self.fn = fn
        task_recv, self._tasks = ctx.Pipe(duplex=False)
        self._results, result_send = ctx.Pipe(duplex=False)
        # Runs in every child started from here on, this worker included.
        util.register_after_fork(self, Worker._close_pipes)
        self.proc = ctx.Process(
            target=_worker_loop, args=(fn, task_recv, result_send),
            daemon=True,
        )
        if hasattr(signal, "pthread_sigmask"):
            # Keep SIGTERM blocked (and so inherited-blocked) across the
            # fork: a terminate() racing the child's handler install
            # would otherwise kill it with the default disposition
            # (exitcode -15) instead of the prompt handler's 143.  The
            # child unblocks once its handlers are in place.
            held = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD_SIGNALS)
            try:
                self.proc.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        else:  # pragma: no cover - non-POSIX
            self.proc.start()
        task_recv.close()
        result_send.close()
        #: True from :meth:`submit` until :meth:`receive` returns a value:
        #: a busy worker's pipe may still hold an abandoned call's result.
        self.busy = False

    def _close_pipes(self) -> None:
        self._tasks.close()
        self._results.close()

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def exitcode(self) -> int | None:
        return self.proc.exitcode

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    @property
    def sentinel(self) -> int:
        """Readable once a result is waiting or the worker died."""
        return self._results.fileno()

    def submit(self, args: tuple) -> None:
        """Hand the worker one call.

        A worker that is already gone shows as EOF in :meth:`receive`.
        """
        self.busy = True
        try:
            self._tasks.send(args)
        except BrokenPipeError:
            pass

    def ready(self, timeout: float | None = 0.0) -> bool:
        """Wait up to ``timeout`` s for a result or the worker's death."""
        return self._results.poll(timeout)

    def receive(self):
        """The call's return value; :class:`EOFError` if the worker died.

        Blocks until :meth:`ready`.  A dead worker is reaped first, so
        :attr:`exitcode` is set when this raises.
        """
        try:
            value = self._results.recv()
        except (EOFError, OSError):
            self.proc.join()
            raise EOFError(f"worker {self.pid} died") from None
        self.busy = False
        return value

    def terminate(self, grace: float = 2.0) -> None:
        """SIGTERM, up to ``grace`` seconds, then SIGKILL; reaps the child."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(grace)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()

    def close(self, grace: float = 2.0) -> None:
        """Stop the worker and release its pipes; idempotent.

        An idle worker exits on EOF of its task pipe; a busy one, whose
        call nobody will collect, is terminated.
        """
        self._tasks.close()
        if not self.busy:
            self.proc.join(grace)
        self.terminate(grace)
        self._results.close()


class SupervisedCall:
    """One function call on a supervised, crash-isolated :class:`Worker`.

    The per-call handle under both the FI trial executor and the DVF job
    service: :meth:`start` hands ``args`` to ``worker``, which runs
    ``fn``.  Then

    * :meth:`wait` / :attr:`sentinel` to block or multiplex on the
      outcome,
    * :meth:`expired` to check the per-call ``timeout``,
    * :meth:`terminate` to cancel with SIGTERM-then-SIGKILL escalation
      (the worker installs a prompt SIGTERM handler; ``term_grace``
      bounds how long a C-level loop may ignore it before SIGKILL),
    * :meth:`poll` to collect the outcome: :data:`PENDING` while
      running, ``fn``'s return value on success, or a
      :class:`~repro.faultinject.errors.WorkerLost` sentinel when the
      worker died without delivering a result.

    The caller owns the worker: it decides what worker loss and expiry
    *mean* (a trial CRASH, a retryable job failure, ...), whether a
    worker that delivered serves again, and when to close it; this
    class only supervises.
    """

    def __init__(
        self,
        fn,
        args: tuple = (),
        *,
        worker: Worker,
        timeout: float | None = None,
        term_grace: float = 2.0,
        label: str = "worker",
    ):
        if worker.fn is not fn:
            raise ValueError(
                f"{label}: the worker runs {worker.fn!r}, not {fn!r}"
            )
        self.fn = fn
        self.args = args
        self.worker = worker
        self.timeout = timeout
        self.term_grace = term_grace
        self.label = label
        self.started_at: float | None = None
        self._result = PENDING

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SupervisedCall":
        self.worker.submit(self.args)
        self.started_at = time.monotonic()
        return self

    @property
    def sentinel(self) -> int:
        """Waitable handle for ``multiprocessing.connection.wait``."""
        return self.worker.sentinel

    def expired(self, now: float | None = None) -> bool:
        """True once the call has outlived its ``timeout``."""
        if self.timeout is None or self.started_at is None:
            return False
        return (now if now is not None else time.monotonic()) \
            - self.started_at > self.timeout

    def wait(self, timeout: float | None = None) -> bool:
        """Wait up to ``timeout`` seconds; True once the outcome is in."""
        return self._result is not PENDING or self.worker.ready(timeout)

    def terminate(self) -> None:
        """Cancel the call: SIGTERM its worker, grace period, then SIGKILL."""
        self.worker.terminate(self.term_grace)

    # -- result collection ---------------------------------------------
    def poll(self):
        """:data:`PENDING`, ``fn``'s value, or a :class:`WorkerLost`."""
        if self.started_at is None:
            raise RuntimeError("SupervisedCall.poll() before start()")
        if self._result is PENDING and self.worker.ready():
            try:
                self._result = self.worker.receive()
            except EOFError:
                self._result = WorkerLost(
                    f"{self.label} died without delivering a result "
                    f"(exitcode {self.worker.exitcode})",
                    exitcode=self.worker.exitcode,
                    label=self.label,
                )
        return self._result


class ProcessTrialExecutor(TrialExecutor):
    """Trials on ``jobs`` forked workers, one wave of ``jobs`` at a time.

    The strongest isolation available from the standard library: a
    worker that segfaults, calls ``os._exit``, or is OOM-killed is
    reported as :class:`TrialCrash`; one that hangs past ``timeout``
    seconds is cancelled (SIGTERM, then SIGKILL after ``term_grace``)
    and reported as :class:`TrialTimeout`.  The campaign classifies
    both without aborting, and the lost worker is replaced.

    Workers are :class:`Worker` processes kept from the first wave until
    :meth:`close`, so a campaign pays one fork per worker rather than
    one per trial; each trial draws only from its own RNG stream, so no
    result depends on what its worker ran before.  ``timeout`` is the
    per-wave wall-clock budget; since every trial in a wave starts
    together, it bounds each trial's runtime.  Workers install the
    prompt SIGTERM handler, so cancellation can never leave partial
    writes behind.  Uses the ``fork`` start method where available
    (cheap on Linux, and workers inherit monkeypatched registries —
    useful in tests), falling back to ``spawn``; :class:`TrialSpec` is
    picklable either way.
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
        self._workers: list[Worker] = []

    def run_batch(self, specs: list[TrialSpec]) -> list:
        # A worker still busy lost its wave to an interrupt: its pipe may
        # hold a stale result.  It goes, as does one that died idle.
        for worker in [w for w in self._workers if w.busy or not w.alive]:
            self._discard(worker)
        while len(self._workers) < len(specs):
            self._workers.append(Worker(run_trial))
        calls = [
            SupervisedCall(
                run_trial,
                (spec,),
                worker=worker,
                term_grace=self.term_grace,
                label=f"trial {spec.structure}#{spec.trial_index}",
            ).start()
            for spec, worker in zip(specs, self._workers)
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
            self._discard(call.worker)
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
            self._discard(call.worker)
            return TrialCrash(
                f"worker for trial {spec.structure}#{spec.trial_index} died "
                f"(exitcode {result.exitcode})",
                exitcode=result.exitcode,
                kernel=spec.kernel,
                structure=spec.structure,
                trial_index=spec.trial_index,
            )
        return result

    def _discard(self, worker: Worker) -> None:
        self._workers.remove(worker)
        worker.close(self.term_grace)

    def close(self) -> None:
        """Stop every worker; busy ones are terminated."""
        while self._workers:
            self._discard(self._workers[-1])


def make_executor(
    jobs: int | None = None, timeout: float | None = None
) -> TrialExecutor:
    """Pick an executor: process isolation iff ``jobs``/``timeout`` set."""
    if jobs is not None or timeout is not None:
        return ProcessTrialExecutor(jobs=jobs, timeout=timeout)
    return InProcessExecutor()
