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
