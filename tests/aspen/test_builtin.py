"""Tests for the built-in Aspen model library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aspen.builtin import DSL_KERNELS, MACHINE_LIBRARY, builtin_source
from repro.aspen.compiler import compile_source
from repro.aspen.machine import from_decl
from repro.aspen.parser import parse
from repro.cachesim.configs import PAPER_CACHES
from repro.core.machine import MachineModel
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS

SRC = Path(__file__).resolve().parents[2] / "src"


class TestBuiltinSources:
    @pytest.mark.parametrize("name", DSL_KERNELS)
    def test_source_parses(self, name):
        program = parse(builtin_source(name, "test"))
        assert len(program.models) == 1

    @pytest.mark.parametrize("name", DSL_KERNELS)
    def test_compiles_against_every_paper_cache(self, name):
        source = builtin_source(name, "test")
        for cache in PAPER_CACHES.values():
            machine = MachineModel.from_geometry(cache)
            compiled = compile_source(source, machine=machine)
            assert compiled.nha_total() > 0

    @pytest.mark.parametrize("name", ["VM", "CG"])
    def test_dsl_matches_direct_model(self, name):
        """The DSL path and the direct estimator path must agree."""
        kernel = KERNELS[name]
        workload = TEST_WORKLOADS[name]
        geometry = PAPER_CACHES["small"]
        machine = MachineModel.from_geometry(geometry)
        compiled = compile_source(kernel.aspen_source(workload), machine=machine)
        direct = kernel.estimate_nha(workload, geometry)[0]
        for structure, value in compiled.nha_by_structure().items():
            assert value == pytest.approx(direct[structure], rel=1e-6), (
                name,
                structure,
            )

    def test_mc_dsl_close_to_direct_model(self):
        """MC's DSL form uses the paper's k=1 grid model (the DSL cannot
        carry per-element visit-frequency arrays); it tracks the direct
        working-set model closely but not exactly."""
        kernel = KERNELS["MC"]
        workload = TEST_WORKLOADS["MC"]
        geometry = PAPER_CACHES["small"]
        machine = MachineModel.from_geometry(geometry)
        compiled = compile_source(kernel.aspen_source(workload), machine=machine)
        direct = kernel.estimate_nha(workload, geometry)[0]
        dsl = compiled.nha_by_structure()
        assert dsl["E"] == pytest.approx(direct["E"], rel=1e-6)
        assert dsl["G"] == pytest.approx(direct["G"], rel=0.5)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            builtin_source("XX")


class TestMachineLibrary:
    def test_library_parses(self):
        program = parse(MACHINE_LIBRARY)
        assert len(program.machines) == len(PAPER_CACHES)

    def test_machines_match_geometries(self):
        program = parse(MACHINE_LIBRARY)
        machine = from_decl(program.machine("small"))
        assert machine.cache.capacity == PAPER_CACHES["small"].capacity
        # The library spells out the defaults every machine is built with.
        assert machine == MachineModel.from_geometry(machine.cache)

    def test_combined_source_usable(self):
        compiled = compile_source(
            builtin_source("VM", "test") + MACHINE_LIBRARY, machine="large"
        )
        assert compiled.nha_total() > 0


class TestHashSeedIndependence:
    def test_cg_payload_identical_under_two_hash_seeds(self):
        """CG's access order names four structures; their order in the
        composite model, and so the report rows and the last bits of the
        application DVF, must not follow ``PYTHONHASHSEED``."""
        script = (
            "import json\n"
            "from repro.aspen.builtin import MACHINE_LIBRARY, builtin_source\n"
            "from repro.experiments.aspen_batch import evaluate_source\n"
            "entry = evaluate_source('cg', builtin_source('CG', 'test')"
            " + MACHINE_LIBRARY, machine='cache_8mb')\n"
            "print(json.dumps(entry.report.to_payload()))\n"
        )
        payloads = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append(proc.stdout)
        assert payloads[0] == payloads[1]
