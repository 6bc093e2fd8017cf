"""Declarative DVF job scenarios (YAML/JSON).

A *scenario* replaces a pile of one-off CLI invocations with one
reviewable, reproducible file: it names the campaign, sets service-level
failure-handling knobs (worker pool size, retry/backoff, timeouts) and
lists the *jobs* — each an independent DVF
analysis the supervisor runs on a crash-isolated worker.

Schema (YAML shown; JSON is isomorphic)::

    name: nightly-sweep
    defaults:              # per-job fields applied when a job omits them
      machine: small
      mode: lenient
      timeout: 120
    service:
      jobs: 4              # worker pool size
      timeout: 300         # default per-job wall-clock budget (seconds)
      retry:
        max_attempts: 3
        base_delay: 0.5    # exponential backoff: base * 2^(attempt-1)
        max_delay: 30.0
        jitter: 0.5        # +[0, jitter] * delay, deterministic per (job, attempt)
    jobs:
      - id: vm-dsl         # [A-Za-z0-9._-]+, unique within the queue
        kind: aspen        # evaluate an Aspen source into a DVFReport
        source: |          # inline source, or `file:` relative to the scenario
          model vm { ... }
        machine: small     # machine model name (optional if source has one)
        mode: strict       # strict | lenient
      - id: mc-8mb
        kind: kernel       # analytical DVF for a registered kernel
        kernel: MC
        tier: test         # workload tier, or explicit `params: {...}`
        geometry: 8MB      # PAPER_CACHES key
      - id: selftest
        kind: probe        # service self-test jobs (docs: EXPERIMENTS.md)
        behavior: ok       # ok | sleep | crash | flaky | error
        timeout: 5         # per-job override of service.timeout

YAML support is optional: the loader uses PyYAML when importable and
otherwise still reads ``.json`` scenarios, failing with an actionable
:class:`ScenarioError` only when a ``.yaml`` file is given without the
dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

try:  # optional dependency — JSON scenarios work without it
    import yaml as _yaml
except ImportError:  # pragma: no cover - environment-dependent
    _yaml = None

#: Bumped on incompatible scenario/job schema changes; part of every
#: job's content hash, so journals from an older schema refuse to merge.
SCENARIO_SCHEMA_VERSION = 1

_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")

JOB_KINDS = ("aspen", "kernel", "probe")
PROBE_BEHAVIORS = ("ok", "sleep", "crash", "flaky", "error")

#: Recognised option keys per job kind (beyond the common ones).
_JOB_OPTION_KEYS = {
    "aspen": {"source", "file", "machine", "mode", "params", "label"},
    "kernel": {"kernel", "tier", "params", "geometry"},
    "probe": {
        "behavior", "seconds", "exitcode", "fail_attempts",
        "kill_probability", "message", "value",
    },
}
_JOB_COMMON_KEYS = {"id", "kind", "timeout", "max_attempts"}
_DEFAULTABLE_KEYS = {"machine", "mode", "tier", "geometry", "timeout"}


class ScenarioError(ValueError):
    """A scenario file is structurally or semantically invalid.

    Deterministic by construction — re-submitting the same file fails
    the same way — so a job whose worker raises it is dead-lettered
    without retry.
    """


def _unit_interval(job_id: str, attempt: int) -> float:
    """Deterministic pseudo-uniform in [0, 1) keyed on (job, attempt)."""
    digest = hashlib.sha256(f"{job_id}#{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryConfig:
    """Bounded retry with exponential backoff and deterministic jitter.

    The supervisor retries only failures it observes itself (a timeout,
    a lost worker); a failure record the worker returns is final.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    jitter: float = 0.5

    def delay(self, job_id: str, attempt: int) -> float:
        """Backoff before retrying ``job_id`` after failed ``attempt``.

        ``base_delay * 2^(attempt-1)`` capped at ``max_delay``, then
        stretched by ``+[0, jitter]`` — jitter decorrelates a thundering
        herd of retries, and keying it on ``(job, attempt)`` rather than
        wall-clock entropy keeps resumed schedules identical to
        undisturbed ones.
        """
        base = min(
            self.max_delay, self.base_delay * 2.0 ** max(0, attempt - 1)
        )
        if self.jitter <= 0.0:
            return base
        return base * (1.0 + self.jitter * _unit_interval(job_id, attempt))


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level execution settings for one scenario."""

    jobs: int = 1
    timeout: float | None = None
    retry: RetryConfig = field(default_factory=RetryConfig)


@dataclass(frozen=True)
class JobSpec:
    """One queued DVF analysis job.

    ``options`` holds the kind-specific, JSON-safe fields; ``timeout``
    and ``max_attempts`` override the scenario's service settings for
    this job only.
    """

    id: str
    kind: str
    options: dict
    timeout: float | None = None
    max_attempts: int | None = None

    def to_dict(self) -> dict:
        out: dict = {"id": self.id, "kind": self.kind, "options": self.options}
        if self.timeout is not None:
            out["timeout"] = self.timeout
        if self.max_attempts is not None:
            out["max_attempts"] = self.max_attempts
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            id=str(data["id"]),
            kind=str(data["kind"]),
            options=dict(data.get("options", {})),
            timeout=data.get("timeout"),
            max_attempts=data.get("max_attempts"),
        )

    @property
    def content_hash(self) -> str:
        """Stable identity of this job's *work* (schema-versioned).

        Two specs with equal hashes would produce equivalent results;
        the journal refuses to merge records whose hash disagrees with
        the queued spec (the job was edited between runs).
        """
        payload = json.dumps(
            {**self.to_dict(), "schema": SCENARIO_SCHEMA_VERSION},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated scenario file."""

    name: str
    service: ServiceConfig
    jobs: tuple[JobSpec, ...]


def _require_mapping(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: dict, allowed: set[str], what: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioError(
            f"{what} has unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _positive_int(value, what: str, minimum: int = 1) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must be an integer, got {value!r}") from None
    if out < minimum:
        raise ScenarioError(f"{what} must be >= {minimum}, got {out}")
    return out


def _nonneg_float(value, what: str):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None
    if out < 0:
        raise ScenarioError(f"{what} must be >= 0, got {out}")
    return out


def _parse_service(data: dict) -> ServiceConfig:
    _check_keys(data, {"jobs", "timeout", "retry"}, "service")
    retry_data = _require_mapping(data.get("retry", {}), "service.retry")
    _check_keys(
        retry_data,
        {"max_attempts", "base_delay", "max_delay", "jitter"},
        "service.retry",
    )
    retry = RetryConfig(
        max_attempts=_positive_int(
            retry_data.get("max_attempts", 3), "retry.max_attempts"
        ),
        base_delay=_nonneg_float(
            retry_data.get("base_delay", 0.5), "retry.base_delay"
        ),
        max_delay=_nonneg_float(
            retry_data.get("max_delay", 30.0), "retry.max_delay"
        ),
        jitter=_nonneg_float(retry_data.get("jitter", 0.5), "retry.jitter"),
    )
    timeout = data.get("timeout")
    return ServiceConfig(
        jobs=_positive_int(data.get("jobs", 1), "service.jobs"),
        timeout=None if timeout is None else _nonneg_float(
            timeout, "service.timeout"
        ),
        retry=retry,
    )


def _parse_job(
    data: dict, defaults: dict, base_dir: Path | None, index: int
) -> JobSpec:
    what = f"jobs[{index}]"
    _require_mapping(data, what)
    job_id = data.get("id")
    if not isinstance(job_id, str) or not _ID_RE.match(job_id):
        raise ScenarioError(
            f"{what}: 'id' must match [A-Za-z0-9._-]+, got {job_id!r}"
        )
    kind = data.get("kind")
    if kind not in JOB_KINDS:
        raise ScenarioError(
            f"{what} ({job_id}): 'kind' must be one of {JOB_KINDS}, "
            f"got {kind!r}"
        )
    allowed = _JOB_COMMON_KEYS | _JOB_OPTION_KEYS[kind]
    _check_keys(data, allowed, f"{what} ({job_id}, kind={kind})")

    options = {
        k: v for k, v in data.items() if k in _JOB_OPTION_KEYS[kind]
    }
    # Apply scenario defaults for fields the job (and its kind) accepts.
    for key, value in defaults.items():
        if key in _JOB_OPTION_KEYS[kind] and key not in options:
            options[key] = value

    if kind == "aspen":
        has_source = "source" in options
        has_file = "file" in options
        if has_source == has_file:
            raise ScenarioError(
                f"{what} ({job_id}): aspen jobs need exactly one of "
                f"'source' (inline) or 'file' (path)"
            )
        if has_file:
            rel = Path(str(options.pop("file")))
            path = rel if rel.is_absolute() or base_dir is None \
                else base_dir / rel
            try:
                options["source"] = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise ScenarioError(
                    f"{what} ({job_id}): cannot read source file "
                    f"{str(path)!r}: {exc}"
                ) from None
        options.setdefault("label", job_id)
    elif kind == "kernel":
        if not isinstance(options.get("kernel"), str):
            raise ScenarioError(
                f"{what} ({job_id}): kernel jobs need a 'kernel' name"
            )
        if "tier" in options and "params" in options:
            raise ScenarioError(
                f"{what} ({job_id}): give either 'tier' or explicit "
                f"'params', not both"
            )
    elif kind == "probe":
        behavior = options.get("behavior", "ok")
        if behavior not in PROBE_BEHAVIORS:
            raise ScenarioError(
                f"{what} ({job_id}): probe behavior must be one of "
                f"{PROBE_BEHAVIORS}, got {behavior!r}"
            )
        options["behavior"] = behavior

    timeout = data.get("timeout", defaults.get("timeout"))
    max_attempts = data.get("max_attempts")
    return JobSpec(
        id=job_id,
        kind=kind,
        options=options,
        timeout=None if timeout is None else _nonneg_float(
            timeout, f"{what}.timeout"
        ),
        max_attempts=None if max_attempts is None else _positive_int(
            max_attempts, f"{what}.max_attempts"
        ),
    )


def parse_scenario(data: dict, base_dir: Path | None = None) -> Scenario:
    """Validate a decoded scenario mapping into a :class:`Scenario`."""
    _require_mapping(data, "scenario")
    _check_keys(data, {"name", "defaults", "service", "jobs"}, "scenario")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("scenario needs a non-empty 'name'")
    defaults = _require_mapping(data.get("defaults", {}), "defaults")
    _check_keys(defaults, _DEFAULTABLE_KEYS, "defaults")
    service = _parse_service(
        _require_mapping(data.get("service", {}), "service")
    )
    raw_jobs = data.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ScenarioError("scenario needs a non-empty 'jobs' list")
    jobs = [
        _parse_job(job, defaults, base_dir, i)
        for i, job in enumerate(raw_jobs)
    ]
    seen: set[str] = set()
    for job in jobs:
        if job.id in seen:
            raise ScenarioError(f"duplicate job id {job.id!r}")
        seen.add(job.id)
    return Scenario(name=name, service=service, jobs=tuple(jobs))


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Read and validate a scenario file (``.yaml``/``.yml``/``.json``)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {str(path)!r}: {exc}") \
            from None
    suffix = path.suffix.lower()
    if suffix in (".yaml", ".yml"):
        if _yaml is None:
            raise ScenarioError(
                f"{path}: YAML scenarios need PyYAML, which is not "
                f"installed; re-encode the scenario as JSON or install "
                f"pyyaml"
            )
        try:
            data = _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: invalid YAML: {exc}") from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
    return parse_scenario(data, base_dir=path.parent)
