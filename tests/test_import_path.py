"""The package's import path, analytical figures and job service stay
free of scipy.stats, and importing a module loads only what it uses."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_scipy_stats_not_imported(tmp_path):
    """Importing ``scipy.stats`` takes longer than a whole fig5 run, and
    only a few rarely used estimator paths need it, so they import it
    where they call it.  The script imports the Aspen front end, the
    service's Aspen-job path, the figure drivers and the core and
    fault-injection modules they use by name: a package ``__init__``
    imports nothing, so only a named module is checked."""
    script = textwrap.dedent(
        """
        import sys

        import repro.aspen.builtin
        import repro.aspen.compiler
        import repro.core.cache_dvf
        import repro.core.protection
        import repro.core.tradeoff
        import repro.core.validation
        import repro.experiments.aspen_batch
        import repro.experiments.fig4_verification
        import repro.experiments.fig5_profiling
        import repro.experiments.fig6_cg_pcg
        import repro.experiments.fig7_ecc
        import repro.faultinject.campaign
        import repro.faultinject.compare
        from repro.experiments.fig4_verification import run_fig4
        from repro.experiments.fig5_profiling import run_fig5
        from repro.service.scenario import parse_scenario
        from repro.service.supervisor import run_service

        run_fig5(tier="test")
        run_fig4(tier="test")
        scenario = parse_scenario({
            "name": "import-path",
            "service": {"jobs": 1},
            "jobs": [
                {"id": k, "kind": "kernel", "kernel": k, "tier": "test",
                 "geometry": "16KB"}
                for k in ("MG", "FT")
            ],
        })
        assert run_service(sys.argv[1], scenario).exit_code == 0
        loaded = sorted(m for m in sys.modules if m.startswith("scipy.stats"))
        assert not loaded, loaded
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "service")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_figures_and_replay_never_load_aspen(tmp_path):
    """Fig 4, Fig 5 and a trace-cache replay run on the kernels' own
    models, so none of them imports the Aspen front end, nor the job
    service, whose worker imports ``repro.aspen.errors``."""
    script = textwrap.dedent(
        """
        import sys

        from repro.cachesim.configs import PAPER_CACHES
        from repro.core.validation import ground_truth_stats
        from repro.experiments.fig4_verification import run_fig4
        from repro.experiments.fig5_profiling import run_fig5
        from repro.kernels.registry import KERNELS
        from repro.kernels.workloads import workload_for
        from repro.trace.cache import TraceCache

        run_fig5(tier="test")
        run_fig4(tier="test")
        cache = TraceCache(sys.argv[1])
        for _ in range(2):  # the first replay fills the cache, the second reads it
            for name in ("VM", "CG"):
                ground_truth_stats(
                    KERNELS[name], workload_for(name, "test"),
                    PAPER_CACHES["small"], trace_cache=cache,
                )
        assert cache.hits == 2, (cache.hits, cache.misses)
        assert "repro.service" not in sys.modules
        loaded = sorted(m for m in sys.modules if m.startswith("repro.aspen"))
        assert not loaded, loaded
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "traces")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_service_workers_fork_with_job_modules_loaded(tmp_path):
    """``import repro.service.supervisor`` loads no job module, but
    ``JobSupervisor.run`` imports them before it forks, so a worker's
    first Aspen or kernel job imports no ``repro`` module, and its time
    budget pays for the job alone."""
    script = textwrap.dedent(
        """
        import json
        import sys

        import repro.service.supervisor as supervisor
        from repro.service.scenario import parse_scenario

        smoke = json.loads(open(sys.argv[1], encoding="utf-8").read())
        scenario = parse_scenario({
            "name": "first-job",
            "service": {"jobs": 1},
            "jobs": [
                next(j for j in smoke["jobs"] if j["id"] == "vm-healthy"),
                {"id": "mg", "kind": "kernel", "kernel": "MG",
                 "tier": "test", "geometry": "16KB"},
            ],
        })
        execute_job = supervisor.execute_job


        def job(spec, attempt, degraded):
            before = set(sys.modules)
            body = execute_job(spec, attempt, degraded)
            new = sorted(m for m in set(sys.modules) - before
                         if m.startswith("repro"))
            with open(sys.argv[2], "a", encoding="utf-8") as out:
                out.write(" ".join([spec.id, *new]) + "\\n")
            return body


        supervisor.execute_job = job  # the worker inherits it at the fork
        run = supervisor.JobSupervisor(jobs=1).run(list(scenario.jobs))
        assert run.counts["succeeded"] == 2, run.records
        """
    )
    smoke = Path(__file__).resolve().parents[1] / "examples" / "scenarios"
    loaded = tmp_path / "loaded.txt"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(smoke / "service_smoke.json"),
         str(loaded)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    lines = loaded.read_text(encoding="utf-8").splitlines()
    assert lines == ["vm-healthy", "mg"], lines


def _loaded_by(module):
    """The modules a fresh interpreter holds after ``import module``."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(' '.join(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_only_what_the_module_uses():
    """A package ``__init__`` imports nothing, so importing a module
    loads its own imports and no sibling it does not use."""
    supervisor = _loaded_by("repro.service.supervisor")
    aspen = {m for m in supervisor if m.split(".")[:2] == ["repro", "aspen"]}
    assert aspen <= {"repro.aspen", "repro.aspen.errors"}, sorted(aspen)

    fig5 = _loaded_by("repro.experiments.fig5_profiling")
    unused = {
        "repro.cachesim.simulator", "repro.cachesim.sharding",
        "repro.cachesim.pool", "repro.core.validation",
        "repro.experiments.fig4_verification", "concurrent.futures",
    }
    assert not fig5 & unused, sorted(fig5 & unused)

    runner = _loaded_by("repro.experiments.runner")
    own = {m for m in runner if m.split(".")[0] == "repro"}
    assert own <= {
        "repro", "repro.experiments", "repro.experiments.runner",
        "repro.cli_types",
    }, sorted(own)


def test_package_inits_import_nothing():
    """Each name has one import path, the module that defines it: no
    package ``__init__`` imports (and so re-exports) anything."""
    importing = []
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        importing += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    assert not importing, importing
