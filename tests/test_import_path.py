"""The package's import path, analytical figures and job service stay
free of scipy.stats."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_scipy_stats_not_imported(tmp_path):
    """Importing ``scipy.stats`` takes longer than a whole fig5 run, and
    only a few rarely used estimator paths need it, so they import it
    where they call it."""
    script = textwrap.dedent(
        """
        import sys

        import repro.core.validation
        import repro.experiments
        import repro.experiments.fig4_verification
        import repro.experiments.fig5_profiling
        import repro.service
        from repro.experiments.fig4_verification import run_fig4
        from repro.experiments.fig5_profiling import run_fig5
        from repro.service import parse_scenario, run_service

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
    models, so none of them imports the Aspen front end (``repro.service``
    does, through its worker, so this interpreter never imports it)."""
    script = textwrap.dedent(
        """
        import sys

        from repro.cachesim import PAPER_CACHES
        from repro.core.validation import ground_truth_stats
        from repro.experiments.fig4_verification import run_fig4
        from repro.experiments.fig5_profiling import run_fig5
        from repro.kernels import KERNELS, workload_for
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
