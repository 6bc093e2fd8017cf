"""Public-API smoke tests: the README's code paths must keep working."""

import pytest


class TestReadmeQuickstart:
    def test_analyzer_quickstart(self):
        from repro.cachesim import PAPER_CACHES
        from repro.core import DVFAnalyzer, MachineModel
        from repro.kernels import KERNELS, workload_for

        analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["8MB"]))
        report = analyzer.analyze(KERNELS["CG"], workload_for("CG", "test"))
        assert report.ranked()[0].name == "A"
        assert report.dvf_application > 0

    def test_dsl_quickstart(self):
        from repro.aspen import compile_source

        compiled = compile_source(
            """
            model stream {
              param n = 1000000
              data A { elements: n, element_size: 8, pattern streaming { stride: 4 } }
              kernel main { flops: 2*n, loads: 16*n, stores: 8*n }
            }
            machine node {
              cache  { associativity: 8, sets: 8192, line_size: 64 }
              memory { fit: 5000, bandwidth: 25.6e9 }
              core   { flops: 4e9 }
            }
            """
        )
        assert compiled.nha_by_structure()["A"] > 0
        assert compiled.report().dvf_by_structure()["A"] > 0


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    @pytest.mark.parametrize(
        "module,names",
        [
            ("repro.core", ["DVFAnalyzer", "MachineModel", "dvf_data",
                            "n_error", "NO_ECC",
                            "plan_protection", "analyze_cache_dvf",
                            "cg_vs_pcg_sweep", "ecc_tradeoff_sweep",
                            "validate_kernel"]),
            ("repro.patterns", ["StreamingAccess", "RandomAccess",
                                "TemplateAccess", "ReuseAccess",
                                "CompositeAccessModel",
                                "WorkingSetRandomAccess"]),
            ("repro.aspen", ["parse", "compile_source",
                             "builtin_source", "MachineModel"]),
            ("repro.cachesim", ["CacheGeometry", "SetAssociativeCache",
                                "CacheSimulator", "simulate_trace",
                                "PAPER_CACHES"]),
            ("repro.trace", ["TraceRecorder", "ReferenceTrace",
                             "AddressSpace"]),
            ("repro.kernels", ["KERNELS", "get_kernel", "workload_for"]),
            ("repro.faultinject", ["run_campaign", "rank_agreement",
                                   "flip_bit"]),
            ("repro.experiments", ["run_fig4", "run_fig5", "run_fig6",
                                   "run_fig7"]),
            ("repro.service", ["load_scenario", "JobSupervisor",
                               "run_service", "ServiceRun", "RetryConfig",
                               "JobJournal", "load_journal"]),
        ],
    )
    def test_documented_exports_exist(self, module, names):
        import importlib

        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_every_public_callable_has_docstring(self):
        """Documentation on every public item (deliverable e)."""
        import importlib
        import inspect

        modules = [
            "repro.core", "repro.patterns", "repro.aspen",
            "repro.cachesim", "repro.trace", "repro.kernels",
            "repro.faultinject", "repro.service",
        ]
        undocumented = []
        for module_name in modules:
            mod = importlib.import_module(module_name)
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{module_name}.{name}")
        assert not undocumented, undocumented

    def test_cli_entry_point_importable(self):
        from repro.experiments.runner import main

        assert callable(main)
