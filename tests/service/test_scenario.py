"""Scenario schema validation and loading."""

import json

import pytest

from repro.service.scenario import (
    JobSpec,
    RetryConfig,
    ScenarioError,
    ServiceConfig,
    _yaml,
    load_scenario,
    parse_scenario,
)


NAN = float("nan")
INF = float("inf")


def _aspen(**options):
    return {"id": "a", "kind": "aspen", "source": "model m { }", **options}


def _kernel(**options):
    return {"id": "k", "kind": "kernel", "kernel": "CG", **options}


def _minimal(**overrides):
    data = {
        "name": "t",
        "jobs": [{"id": "j1", "kind": "probe", "behavior": "ok"}],
    }
    data.update(overrides)
    return data


class TestSettingsCheckThemselves:
    """The settings types hold the rules; scenario files reach them too."""

    @pytest.mark.parametrize("kwargs,field", [
        (dict(base_delay=NAN), "retry.base_delay"),
        (dict(jitter=-0.5), "retry.jitter"),
        (dict(max_delay=INF), "retry.max_delay"),
        (dict(max_attempts=0), "retry.max_attempts"),
        (dict(max_attempts=True), "retry.max_attempts"),
        (dict(max_attempts=2.0), "retry.max_attempts"),
    ])
    def test_retry_config_refuses(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            RetryConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(jobs=0), "service.jobs"),
        (dict(jobs=1.5), "service.jobs"),
        (dict(timeout=NAN), "service.timeout"),
        (dict(timeout=INF), "service.timeout"),
        (dict(timeout=0), "service.timeout"),
    ])
    def test_service_config_refuses(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**kwargs)

    def test_edge_values_accepted(self):
        RetryConfig(max_attempts=1, base_delay=0, max_delay=0.0, jitter=0)
        ServiceConfig(jobs=1, timeout=None)
        ServiceConfig(timeout=1e-3)

    def test_scenario_reports_the_types_rules(self):
        with pytest.raises(ScenarioError, match="retry.jitter"):
            parse_scenario(_minimal(service={"retry": {"jitter": -1}}))
        with pytest.raises(ScenarioError, match="service.jobs"):
            parse_scenario(_minimal(service={"jobs": 0}))


class TestParseScenario:
    def test_minimal_scenario(self):
        scenario = parse_scenario(_minimal())
        assert scenario.name == "t"
        assert [j.id for j in scenario.jobs] == ["j1"]
        assert scenario.service.jobs == 1
        assert scenario.service.retry.max_attempts == 3

    def test_service_knobs(self):
        scenario = parse_scenario(_minimal(service={
            "jobs": 4,
            "timeout": 30,
            "retry": {"max_attempts": 5, "base_delay": 0.1,
                      "max_delay": 2.0, "jitter": 0.0},
        }))
        service = scenario.service
        assert service.jobs == 4
        assert service.timeout == 30.0
        assert service.retry.max_attempts == 5
        assert service.retry.jitter == 0.0

    def test_defaults_flow_into_jobs(self):
        scenario = parse_scenario({
            "name": "t",
            "defaults": {"machine": "small", "mode": "lenient",
                         "timeout": 7},
            "jobs": [
                {"id": "a", "kind": "aspen", "source": "model x {}"},
                {"id": "b", "kind": "aspen", "source": "model y {}",
                 "mode": "strict", "timeout": 1},
            ],
        })
        a, b = scenario.jobs
        assert a.options["machine"] == "small"
        assert a.options["mode"] == "lenient"
        assert a.timeout == 7.0
        assert b.options["mode"] == "strict"  # job wins over default
        assert b.timeout == 1.0

    def test_defaults_only_apply_to_matching_kinds(self):
        scenario = parse_scenario({
            "name": "t",
            "defaults": {"machine": "small", "geometry": "8MB"},
            "jobs": [
                {"id": "p", "kind": "probe"},
                {"id": "k", "kind": "kernel", "kernel": "MC"},
            ],
        })
        probe, kernel = scenario.jobs
        assert "machine" not in probe.options
        assert kernel.options["geometry"] == "8MB"
        assert "machine" not in kernel.options

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.pop("name"), "name"),
        (lambda d: d.update(jobs=[]), "jobs"),
        (lambda d: d.update(extra=1), "unknown key"),
        (lambda d: d["jobs"][0].update(kind="nope"), "kind"),
        (lambda d: d["jobs"][0].update(id="sp ace"), "id"),
        (lambda d: d["jobs"][0].update(frobnicate=1), "unknown key"),
        (lambda d: d.update(service={"retry": {"max_attempts": 0}}),
         "max_attempts"),
        (lambda d: d.update(service={"retry": {"base_delay": -1}}),
         "base_delay"),
        # Delays are finite and >= 0; timeouts finite and > 0.
        (lambda d: d.update(service={"retry": {"base_delay": NAN}}),
         "retry.base_delay"),
        (lambda d: d.update(service={"retry": {"max_delay": INF}}),
         "max_delay"),
        (lambda d: d.update(service={"retry": {"jitter": INF}}), "jitter"),
        (lambda d: d.update(service={"timeout": NAN}), "service.timeout"),
        (lambda d: d.update(service={"timeout": INF}), "service.timeout"),
        (lambda d: d.update(service={"timeout": 0}), "service.timeout"),
        (lambda d: d["jobs"][0].update(timeout=NAN), r"jobs\[0\]\.timeout"),
        (lambda d: d["jobs"][0].update(timeout=0), r"jobs\[0\]\.timeout"),
        (lambda d: d.update(defaults={"timeout": INF}), "defaults.timeout"),
        (lambda d: d.update(defaults={"timeout": 0}), "defaults.timeout"),
        # Numbers are taken as written: no truncation, no parsing.
        (lambda d: d.update(service={"jobs": 2.7}), "service.jobs"),
        (lambda d: d.update(service={"jobs": "2"}), "service.jobs"),
        (lambda d: d.update(service={"retry": {"max_attempts": True}}),
         "retry.max_attempts"),
        (lambda d: d["jobs"][0].update(max_attempts=1.9),
         r"jobs\[0\]\.max_attempts"),
        (lambda d: d.update(service={"timeout": "30"}), "service.timeout"),
        (lambda d: d.update(service={"timeout": True}), "service.timeout"),
        (lambda d: d.update(service={"retry": {"base_delay": "0.5"}}),
         r"retry\.base_delay"),
        (lambda d: d.update(defaults={"timeout": True}), "defaults.timeout"),
        (lambda d: d.update(service={"timeout": 10**400}), "service.timeout"),
        # The circuit breaker and its knobs are gone.
        (lambda d: d.update(service={"breaker": {"threshold": 3}}),
         "unknown key"),
        # Params are taken as written: an aspen job's map names to
        # finite numbers, a kernel job's hold no bools.
        (lambda d: d.update(jobs=[_aspen(params="n=3")]),
         r"jobs\[0\] \(a\): 'params' must be a mapping"),
        (lambda d: d.update(jobs=[_aspen(params={"n": [3]})]),
         r"jobs\[0\] \(a\): params\.n must be a number"),
        (lambda d: d.update(jobs=[_aspen(params={"n": "7"})]),
         r"jobs\[0\] \(a\): params\.n must be a number"),
        (lambda d: d.update(jobs=[_aspen(params={"n": True})]),
         r"jobs\[0\] \(a\): params\.n must be a number"),
        (lambda d: d.update(jobs=[_aspen(params={"n": NAN})]),
         r"jobs\[0\] \(a\): params\.n must be a finite number"),
        (lambda d: d.update(jobs=[_aspen(params={"n": 10**400})]),
         r"jobs\[0\] \(a\): params\.n must be a finite number"),
        (lambda d: d.update(jobs=[_kernel(params={"n": True})]),
         r"jobs\[0\] \(k\): params\.n must not be a bool"),
        (lambda d: d.update(jobs=[_kernel(params=["n", 3])]),
         r"jobs\[0\] \(k\): 'params' must be a mapping"),
    ])
    def test_rejects_malformed(self, mutate, match):
        data = _minimal()
        mutate(data)
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(data)

    def test_params_taken_as_written(self):
        scenario = parse_scenario(_minimal(jobs=[
            _aspen(params={"n": 3, "m": 2.5}),
            _kernel(params={"n": 10, "variant": "pcg"}),
        ]))
        aspen, kernel = scenario.jobs
        assert aspen.options["params"] == {"n": 3, "m": 2.5}
        assert kernel.options["params"] == {"n": 10, "variant": "pcg"}

    def test_kernel_job_engine_rejected(self):
        # Kernel jobs run the analytical path; no replay engine applies.
        data = _minimal()
        data["jobs"] = [
            {"id": "k", "kind": "kernel", "kernel": "MC", "engine": "auto"}
        ]
        with pytest.raises(ScenarioError, match="engine"):
            parse_scenario(data)

    def test_engine_default_rejected(self):
        data = _minimal()
        data["defaults"] = {"engine": "reference"}
        with pytest.raises(ScenarioError, match="engine"):
            parse_scenario(data)

    def test_duplicate_job_ids_rejected(self):
        data = _minimal()
        data["jobs"] = [
            {"id": "x", "kind": "probe"},
            {"id": "x", "kind": "probe"},
        ]
        with pytest.raises(ScenarioError, match="duplicate job id"):
            parse_scenario(data)

    def test_aspen_needs_source_xor_file(self):
        for options in ({}, {"source": "m", "file": "f"}):
            data = _minimal()
            data["jobs"] = [{"id": "a", "kind": "aspen", **options}]
            with pytest.raises(ScenarioError, match="exactly one"):
                parse_scenario(data)

    def test_kernel_tier_xor_params(self):
        data = _minimal()
        data["jobs"] = [{"id": "k", "kind": "kernel", "kernel": "MC",
                         "tier": "test", "params": {"n": 10}}]
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario(data)

    def test_probe_behavior_validated(self):
        data = _minimal()
        data["jobs"][0]["behavior"] = "explode"
        with pytest.raises(ScenarioError, match="behavior"):
            parse_scenario(data)


class TestContentHash:
    def test_stable_across_processes(self):
        spec = JobSpec(id="a", kind="probe", options={"behavior": "ok"})
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert spec.content_hash == again.content_hash

    def test_changes_with_work(self):
        a = JobSpec(id="a", kind="probe", options={"behavior": "ok"})
        b = JobSpec(id="a", kind="probe", options={"behavior": "sleep"})
        c = JobSpec(id="a", kind="probe", options={"behavior": "ok"},
                    timeout=5.0)
        assert len({a.content_hash, b.content_hash, c.content_hash}) == 3


class TestLoadScenario:
    def test_json_scenario(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_minimal()))
        assert load_scenario(path).name == "t"

    def test_file_source_resolved_relative_to_scenario(self, tmp_path):
        (tmp_path / "model.aspen").write_text("model m {}")
        data = _minimal()
        data["jobs"] = [{"id": "a", "kind": "aspen", "file": "model.aspen"}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        scenario = load_scenario(path)
        assert scenario.jobs[0].options["source"] == "model m {}"
        assert scenario.jobs[0].options["label"] == "a"

    def test_missing_source_file_is_scenario_error(self, tmp_path):
        data = _minimal()
        data["jobs"] = [{"id": "a", "kind": "aspen", "file": "absent.aspen"}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="cannot read source file"):
            load_scenario(path)

    def test_invalid_json_is_scenario_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    def test_missing_file_is_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario"):
            load_scenario(tmp_path / "absent.json")

    @pytest.mark.skipif(_yaml is None, reason="PyYAML not installed")
    def test_yaml_scenario(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(
            "name: y\n"
            "service:\n  jobs: 2\n"
            "jobs:\n  - id: p\n    kind: probe\n    behavior: ok\n"
        )
        scenario = load_scenario(path)
        assert scenario.name == "y"
        assert scenario.service.jobs == 2

    def test_yaml_without_pyyaml_is_actionable(self, tmp_path, monkeypatch):
        import repro.service.scenario as scenario_mod

        monkeypatch.setattr(scenario_mod, "_yaml", None)
        path = tmp_path / "s.yaml"
        path.write_text("name: y\n")
        with pytest.raises(ScenarioError, match="PyYAML"):
            load_scenario(path)
