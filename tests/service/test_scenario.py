"""Scenario schema validation and loading."""

import json

import pytest

from repro.service.scenario import (
    JobSpec,
    ScenarioError,
    _yaml,
    load_scenario,
    parse_scenario,
)


def _minimal(**overrides):
    data = {
        "name": "t",
        "jobs": [{"id": "j1", "kind": "probe", "behavior": "ok"}],
    }
    data.update(overrides)
    return data


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
        # The circuit breaker and its knobs are gone.
        (lambda d: d.update(service={"breaker": {"threshold": 3}}),
         "unknown key"),
    ])
    def test_rejects_malformed(self, mutate, match):
        data = _minimal()
        mutate(data)
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(data)

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
