"""Tests of the public package surface and error hierarchy."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    ControlError,
    ExperimentError,
    ProfileError,
    ReproError,
    SimulationError,
    WorkloadError,
)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_exposed(self):
        assert repro.Machine
        assert repro.DirigentRuntime
        assert repro.OfflineProfiler
        assert repro.CompletionTimePredictor
        assert len(repro.PAPER_POLICIES) == 5

    def test_subpackage_all_names_resolve(self):
        import repro.core
        import repro.experiments
        import repro.sim
        import repro.workloads

        for module in (repro.core, repro.experiments, repro.sim,
                       repro.workloads):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            SimulationError,
            WorkloadError,
            ProfileError,
            ControlError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise WorkloadError("x")


class TestSimLayering:
    """``repro.sim`` sits at the bottom: it imports only itself,
    ``repro.workloads`` and ``repro.errors``."""

    ALLOWED = ("repro.errors", "repro.sim", "repro.workloads")

    @staticmethod
    def _repro_imports(path):
        """``(line, module)`` of every ``repro`` import, at any depth."""
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # Relative imports resolve against ``repro.sim``.
                base = ["repro", "sim"][:3 - node.level] if node.level else []
                module = ".".join(base + [node.module or ""]).strip(".")
                # ``from repro import errors`` imports ``repro.errors``.
                names = (
                    [module + "." + alias.name for alias in node.names]
                    if module == "repro" else [module]
                )
            else:
                continue
            for name in names:
                if name == "repro" or name.startswith("repro."):
                    yield node.lineno, name

    def test_sim_imports_nothing_above_it(self):
        sim_dir = Path(repro.__file__).resolve().parent / "sim"
        modules = sorted(sim_dir.glob("*.py"))
        assert modules
        upward = [
            "%s:%d imports %s" % (path.name, line, name)
            for path in modules
            for line, name in self._repro_imports(path)
            if not any(name == allowed or name.startswith(allowed + ".")
                       for allowed in self.ALLOWED)
        ]
        assert upward == []


class TestNoNumpy:
    def test_cli_chaos_and_control_plane_never_look_numpy_up(self):
        # A meta-path finder that records every numpy lookup and then
        # declines it, so the check means the same with or without
        # numpy installed.
        script = textwrap.dedent("""\
            import sys

            lookups = []

            class Recorder:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        lookups.append(name)
                    return None

            sys.meta_path.insert(0, Recorder())
            import repro.__main__
            import repro.experiments.chaos
            import repro.cluster.control
            print(",".join(lookups))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""


class TestColdStart:
    def test_figures_import_loads_no_pool_or_fault_injection(self):
        # A process that renders figures never creates a worker pool or
        # applies a fault plan, so it must not pay for importing them.
        script = textwrap.dedent("""\
            import sys

            import repro.experiments.figures

            print(",".join(sorted(
                name for name in sys.modules
                if name.startswith(("concurrent.futures", "multiprocessing",
                                    "repro.faults"))
            )))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""
