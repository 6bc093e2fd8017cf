"""Public-API smoke tests: the README's code paths must keep working."""

import pytest


class TestReadmeQuickstart:
    def test_analyzer_quickstart(self):
        from repro.cachesim.configs import PAPER_CACHES
        from repro.core.analyzer import DVFAnalyzer
        from repro.core.machine import MachineModel
        from repro.kernels.registry import KERNELS
        from repro.kernels.workloads import workload_for

        analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["8MB"]))
        report = analyzer.analyze(KERNELS["CG"], workload_for("CG", "test"))
        assert report.ranked()[0].name == "A"
        assert report.dvf_application > 0

    def test_dsl_quickstart(self):
        from repro.aspen.compiler import compile_source

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
        "package,names",
        [
            ("repro.core", ["repro.core.analyzer.DVFAnalyzer",
                            "repro.core.machine.MachineModel",
                            "repro.core.dvf.DVFReport",
                            "repro.core.dvf.StructureDVF",
                            "repro.core.dvf.build_report",
                            "repro.core.dvf.dvf_data",
                            "repro.core.dvf.n_error",
                            "repro.core.fit.NO_ECC",
                            "repro.core.protection.plan_protection",
                            "repro.core.cache_dvf.analyze_cache_dvf",
                            "repro.core.tradeoff.cg_vs_pcg_sweep",
                            "repro.core.tradeoff.ecc_tradeoff_sweep",
                            "repro.core.validation.validate_kernel"]),
            ("repro.patterns", ["repro.patterns.streaming.StreamingAccess",
                                "repro.patterns.random_access.RandomAccess",
                                "repro.patterns.template.TemplateAccess",
                                "repro.patterns.reuse.ReuseAccess",
                                "repro.patterns.composite.CompositeAccessModel",
                                "repro.patterns.random_access."
                                "WorkingSetRandomAccess"]),
            ("repro.aspen", ["repro.aspen.parser.parse",
                             "repro.aspen.compiler.compile_source",
                             "repro.aspen.builtin.builtin_source",
                             "repro.core.machine.MachineModel"]),
            ("repro.cachesim", ["repro.cachesim.configs.CacheGeometry",
                                "repro.cachesim.cache.SetAssociativeCache",
                                "repro.cachesim.simulator.CacheSimulator",
                                "repro.cachesim.simulator.simulate_trace",
                                "repro.cachesim.configs.PAPER_CACHES"]),
            ("repro.trace", ["repro.trace.recorder.TraceRecorder",
                             "repro.trace.reference.ReferenceTrace",
                             "repro.trace.address_space.AddressSpace"]),
            ("repro.kernels", ["repro.kernels.registry.KERNELS",
                               "repro.kernels.registry.get_kernel",
                               "repro.kernels.workloads.workload_for"]),
            ("repro.faultinject", ["repro.faultinject.campaign.run_campaign",
                                   "repro.faultinject.compare.rank_agreement",
                                   "repro.faultinject.flips.flip_bit"]),
            ("repro.experiments", [
                "repro.experiments.fig4_verification.run_fig4",
                "repro.experiments.fig5_profiling.run_fig5",
                "repro.experiments.fig6_cg_pcg.run_fig6",
                "repro.experiments.fig7_ecc.run_fig7"]),
            ("repro.service", ["repro.service.scenario.load_scenario",
                               "repro.service.supervisor.JobSupervisor",
                               "repro.service.supervisor.run_service",
                               "repro.service.supervisor.ServiceRun",
                               "repro.service.scenario.RetryConfig",
                               "repro.service.journal.JobJournal",
                               "repro.service.journal.load_journal"]),
        ],
    )
    def test_documented_exports_exist(self, package, names):
        """Each documented name is importable from the one module that
        defines it (the Aspen front end's machine is core's)."""
        import importlib
        import inspect

        for path in names:
            module_name, _, name = path.rpartition(".")
            mod = importlib.import_module(module_name)
            assert hasattr(mod, name), f"{path} missing"
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module_name, (path, obj.__module__)

    def test_every_public_callable_has_docstring(self):
        """Documentation on every public item (deliverable e): each public
        class and function a module of these packages defines."""
        import importlib
        import inspect
        import pkgutil

        packages = [
            "repro.core", "repro.patterns", "repro.aspen",
            "repro.cachesim", "repro.trace", "repro.kernels",
            "repro.faultinject", "repro.service",
        ]
        checked, undocumented = 0, []
        for package in packages:
            path = importlib.import_module(package).__path__
            for info in pkgutil.walk_packages(path, f"{package}."):
                mod = importlib.import_module(info.name)
                for name, obj in vars(mod).items():
                    if name.startswith("_"):
                        continue
                    if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                        continue
                    if obj.__module__ != info.name:
                        continue  # imported here, checked where defined
                    checked += 1
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{info.name}.{name}")
        assert checked > 100, checked
        assert not undocumented, undocumented

    def test_cli_entry_point_importable(self):
        from repro.experiments.runner import main

        assert callable(main)
