"""The public API surface: imports, __all__ hygiene, version."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.bandit",
    "repro.boosting",
    "repro.core",
    "repro.crowd",
    "repro.data",
    "repro.eval",
    "repro.eval.experiments",
    "repro.metrics",
    "repro.models",
    "repro.nn",
    "repro.truth",
    "repro.utils",
    "repro.vision",
]


class TestPublicApi:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_imports(self, package):
        importlib.import_module(package)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_top_level_convenience(self):
        import repro

        assert callable(repro.build_dataset)
        assert callable(repro.train_test_split)
        assert repro.CrowdLearnConfig().n_cycles == 40
        assert hasattr(repro.CrowdLearnSystem, "build")

    def test_no_heavy_framework_dependencies(self):
        """The reproduction must stay numpy-only."""
        import repro.core.system  # noqa: F401 - force full import chain
        import repro.eval.runner  # noqa: F401

        for forbidden in ("torch", "sklearn", "xgboost", "tensorflow"):
            assert forbidden not in sys.modules

    def test_runtime_never_imports_scipy(self):
        """numpy is the only runtime dependency; scipy is a test oracle.

        Checked in a fresh interpreter, since this test process may already
        have imported scipy through the oracle tests.
        """
        script = textwrap.dedent(
            """
            import sys

            import repro.core.system
            from repro.eval.runner import build_crowdlearn, prepare

            setup = prepare(seed=0, fast=True)
            system = build_crowdlearn(setup)
            system.run_cycle(setup.make_stream("scipy-probe").cycle(0))
            leaked = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not leaked, leaked[:5]
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
