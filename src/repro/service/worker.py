"""Worker-side job execution (runs inside a supervised subprocess).

:func:`execute_job` is the function every supervisor
:class:`~repro.faultinject.executor.Worker` is forked with; a worker
runs it once per attempt, for as many attempts as it survives, so an
attempt must not depend on what its worker ran before (the process-wide
memos jobs fill, such as the Barnes-Hut profile, are read-only).  Its
contract keeps the failure semantics sharp:

* it returns a JSON-safe *record body* — ``{"ok": True, "payload":
  ...}`` on success, ``{"ok": False, "error_code": ..., "error": ...,
  "diagnostics": [...]}`` for every exception in
  :data:`DETERMINISTIC_EXCEPTIONS` (Aspen syntax/semantic/evaluation
  errors, pattern/estimator errors, cache-engine contract violations,
  scenario mistakes, arithmetic overflow or division by zero on the
  job's inputs) — these are deterministic facts about the job,
  so the record is final and the supervisor dead-letters it without
  retry;
* anything else escaping — a segfault, OOM kill, ``os._exit``, an
  unexpected exception (which the worker prints and converts to a
  nonzero exit) — ends the worker and surfaces as
  :class:`~repro.faultinject.errors.WorkerLost`, which the supervisor
  treats as transient and retries with backoff on a fresh worker.

An Aspen job runs in the ``mode`` its spec names, on every attempt, so
a job's outcome depends on the job alone.
"""

from __future__ import annotations

import os
import signal
import time

from repro.aspen.errors import AspenError
from repro.cachesim.engine import CacheEngineError
from repro.patterns.base import PatternError
from repro.service.scenario import JobSpec, ScenarioError, _unit_interval

#: Exception families whose recurrence is a property of the *job*, not
#: the worker: they become structured failure records (→ dead letter),
#: never retries.
DETERMINISTIC_EXCEPTIONS: tuple[type[BaseException], ...] = (
    AspenError,
    PatternError,
    CacheEngineError,
    ScenarioError,
    ValueError,
    TypeError,
    KeyError,
    ArithmeticError,
)


def execute_job(spec: JobSpec, attempt: int, degraded: bool) -> dict:
    """Run one job attempt; returns the JSON-safe record body.

    ``degraded`` is ignored; the supervisor always passes ``False``.
    The benchmark harness (``perfbench/tracer.py`` and
    ``perfbench/pin.py``) still calls this with three arguments.
    """
    try:
        if spec.kind == "aspen":
            return _run_aspen(spec)
        if spec.kind == "kernel":
            return _run_kernel(spec)
        if spec.kind == "probe":
            return _run_probe(spec, attempt)
        raise ScenarioError(f"job {spec.id!r}: unknown kind {spec.kind!r}")
    except DETERMINISTIC_EXCEPTIONS as exc:
        record = {
            "ok": False,
            "error_code": type(exc).__name__,
            "error": str(exc),
        }
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics:
            record["diagnostics"] = [d.to_dict() for d in diagnostics]
        elif getattr(exc, "code", None):
            # Aspen strict-mode exceptions carry one coded finding
            # (code/span/hint) instead of a sink; ship it structured.
            from repro.diagnostics import Diagnostic

            record["diagnostics"] = [
                Diagnostic(
                    severity="error",
                    code=str(exc.code),
                    message=str(exc),
                    span=getattr(exc, "span", None),
                    hint=getattr(exc, "hint", None),
                ).to_dict()
            ]
        return record


def _run_aspen(spec: JobSpec) -> dict:
    """Evaluate an Aspen source into a ``DVFReport`` payload."""
    from repro.experiments.aspen_batch import evaluate_source

    options = spec.options
    mode = str(options.get("mode", "strict"))
    entry = evaluate_source(
        str(options.get("label", spec.id)),
        str(options["source"]),
        machine=options.get("machine"),
        mode=mode,
        params=options.get("params"),
    )
    if entry.ok:
        return {
            "ok": True,
            "payload": entry.report.to_payload(),
            "mode": mode,
        }
    # Lenient evaluation found nothing usable at all: that is a
    # deterministic property of the source, not worker trouble.
    return {
        "ok": False,
        "error_code": "AspenEvaluationError",
        "error": entry.error or "model could not be evaluated",
        "diagnostics": [d.to_dict() for d in entry.diagnostics],
    }


def _run_kernel(spec: JobSpec) -> dict:
    """Analytical DVF for a registered kernel + workload + geometry."""
    from repro.cachesim.configs import PAPER_CACHES
    from repro.core.analyzer import DVFAnalyzer
    from repro.core.machine import MachineModel
    from repro.experiments.configs import WORKLOADS
    from repro.kernels.base import Workload
    from repro.kernels.registry import KERNELS

    options = spec.options
    name = str(options["kernel"]).upper()
    kernel = KERNELS.get(name)
    if kernel is None:
        raise ScenarioError(
            f"job {spec.id!r}: unknown kernel {name!r}; "
            f"available: {sorted(KERNELS)}"
        )
    if "params" in options:
        workload = Workload("service", dict(options["params"]))
    else:
        tier = str(options.get("tier", "test"))
        if tier not in WORKLOADS:
            raise ScenarioError(
                f"job {spec.id!r}: unknown workload tier {tier!r}; "
                f"available: {sorted(WORKLOADS)}"
            )
        workload = WORKLOADS[tier][name]
    geometry_key = str(options.get("geometry", "8MB"))
    if geometry_key not in PAPER_CACHES:
        raise ScenarioError(
            f"job {spec.id!r}: unknown cache geometry {geometry_key!r}; "
            f"available: {sorted(PAPER_CACHES)}"
        )
    analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES[geometry_key]))
    report = analyzer.analyze(kernel, workload)
    return {"ok": True, "payload": report.to_payload()}


def _run_probe(spec: JobSpec, attempt: int) -> dict:
    """Service self-test jobs with scriptable failure modes.

    ``crash``/``flaky`` kill the worker process itself (SIGKILL / a
    chosen exit code), exercising the supervisor's WorkerLost → retry
    path exactly the way an OOM-killed analysis would; ``flaky``
    recovers once ``attempt`` exceeds ``fail_attempts`` (and can also
    roll a deterministic per-attempt ``kill_probability``).  Success
    payloads never mention the attempt number, so a chaos-disturbed run
    converges to the same results file as an undisturbed one.
    """
    options = spec.options
    behavior = str(options.get("behavior", "ok"))
    if behavior == "error":
        raise ScenarioError(
            str(options.get("message", f"probe job {spec.id!r} failing "
                                       f"deterministically as configured"))
        )
    if behavior == "crash":
        exitcode = options.get("exitcode")
        if exitcode is None:
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(int(exitcode))
    if behavior == "flaky":
        fail_attempts = int(options.get("fail_attempts", 1))
        if attempt <= fail_attempts:
            os.kill(os.getpid(), signal.SIGKILL)
        p = float(options.get("kill_probability", 0.0))
        if p > 0.0 and _unit_interval(spec.id, attempt) < p:
            os.kill(os.getpid(), signal.SIGKILL)
    if behavior == "sleep":
        time.sleep(float(options.get("seconds", 0.0)))
    payload: dict = {"probe": behavior}
    if "value" in options:
        payload["value"] = options["value"]
    return {"ok": True, "payload": payload}
