"""Tests of the public package surface and error hierarchy."""

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
