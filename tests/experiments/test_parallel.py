"""Parallel sweep engine: coverage, timings, and serial equivalence.

The load-bearing property: a multi-worker sweep must reproduce the
serial sweep *exactly* — every cell derives its randomness from
``(config.seed, mix.name, seed)`` alone, and workers coordinate only
through the content-addressed disk cache.
"""

import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policies import BASELINE, DIRIGENT, STATIC_FREQ
from repro.errors import ExperimentError
from repro.experiments import harness
from repro.experiments import parallel as parallel_mod
from repro.experiments.mixes import mix_by_name
from repro.experiments.parallel import (
    SweepResult,
    default_workers,
    run_grid,
)
from repro.sim.config import ENV_CELL_TIMEOUT_S

MIXES = ["ferret bwaves", "raytrace rs", "bodytrack pca"]

#: Worker fakes must be monkeypatched onto the parallel module *and*
#: visible to forked workers, so they live at test-module top level
#: (picklable by qualified name) and the tests skip on platforms whose
#: default start method re-imports a pristine module instead of
#: inheriting the patched one.
_FORK = multiprocessing.get_start_method() == "fork"
fork_only = pytest.mark.skipif(
    not _FORK, reason="worker monkeypatching needs the fork start method"
)

#: The fakes misbehave only in a pool worker; in the test process (the
#: serial retry) they compute the real cell.
_TEST_PID = os.getpid()
_REAL_PREPARE = parallel_mod._prepare_cell
_REAL_POLICY = parallel_mod._policy_cell


def _in_worker():
    return os.getpid() != _TEST_PID


def _exit_cell(cell):
    """Worker fake: die abruptly, breaking the process pool."""
    if _in_worker():
        os._exit(1)
    return _REAL_POLICY(cell)


def _exit_or_raise_cell(cell):
    """Worker fake: break the pool, then fail the serial retry too."""
    if _in_worker():
        os._exit(1)
    raise ExperimentError("synthetic cell failure")


def _stall_cell(cell):
    """Worker fake: blow any sub-second per-cell budget, then finish."""
    if _in_worker():
        time.sleep(3.0)
    return _REAL_POLICY(cell)


def _stall_one_cell(cell):
    """Worker fake: only the first mix's StaticFreq cell stalls."""
    if cell[-1] == (MIXES[0], STATIC_FREQ.name):
        return _stall_cell(cell)
    return _REAL_POLICY(cell)


def _stall_one_prepare(args):
    """Worker fake: the first mix's prepare cell hangs for 10 s."""
    if _in_worker() and args[0].name == MIXES[0]:
        # Long after the sweep has dropped it; compute nothing then.
        time.sleep(10.0)
        return None
    return _REAL_PREPARE(args)


@pytest.fixture(autouse=True)
def fresh_caches():
    # Discard any retained warm pool: these tests monkeypatch worker
    # callables and env knobs, and a pool forked before the patch would
    # serve stale code.
    parallel_mod.shutdown_pool()
    harness.clear_caches()
    yield
    parallel_mod.shutdown_pool()
    harness.clear_caches()


def _snapshot(sweep: SweepResult) -> dict:
    return {key: repr(result) for key, result in sweep.results.items()}


class TestRunGrid:
    def test_serial_covers_every_cell(self):
        mixes = [mix_by_name(name) for name in MIXES[:2]]
        policies = [BASELINE, STATIC_FREQ]
        sweep = run_grid(mixes, policies, executions=2, warmup=1, workers=1)
        assert sweep.mode == "serial"
        assert set(sweep.results) == {
            (m.name, p.name) for m in mixes for p in policies
        }
        assert set(sweep.cell_timings) == set(sweep.results)
        assert all(t >= 0 for t in sweep.cell_timings.values())
        assert sweep.elapsed_s > 0

    def test_parallel_matches_serial_exactly(self):
        mixes = [mix_by_name(name) for name in MIXES]
        policies = [BASELINE, DIRIGENT]
        serial = run_grid(mixes, policies, executions=2, warmup=1, workers=1)
        harness.clear_caches()
        parallel = run_grid(
            mixes, policies, executions=2, warmup=1, workers=2
        )
        assert parallel.mode == "parallel"
        assert _snapshot(serial) == _snapshot(parallel)

    def test_warm_cache_hits_are_fast(self):
        mixes = [mix_by_name(MIXES[0])]
        policies = [BASELINE, STATIC_FREQ]
        cold = run_grid(mixes, policies, executions=2, warmup=1, workers=1)
        warm = run_grid(mixes, policies, executions=2, warmup=1, workers=1)
        assert _snapshot(cold) == _snapshot(warm)
        assert warm.elapsed_s < cold.elapsed_s

    def test_serial_sweep_draws_each_mix_jitter_once(self, monkeypatch):
        # One jitter scope around the mix's cells: every machine of the
        # sweep (Baseline, partition sweep, profile, policy runs) reads
        # tapes, one per (seed, core), and nothing draws in-kernel.
        from repro.core.policies import PAPER_POLICIES
        from repro.sim import machine as machine_mod
        from repro.sim.jitter import JitterTape

        mix = mix_by_name(MIXES[0])
        tapes = []
        tape_init = JitterTape.__init__

        def init(tape, seed, core, sigma):
            tapes.append((seed, core, sigma))
            tape_init(tape, seed, core, sigma)

        own_draws = []
        derive = machine_mod.derive_rng

        def derive_rng(seed, stream):
            if stream.startswith("jitter-core-"):
                own_draws.append((seed, stream))
            return derive(seed, stream)

        monkeypatch.setattr(JitterTape, "__init__", init)
        monkeypatch.setattr(machine_mod, "derive_rng", derive_rng)
        scoped = run_grid([mix], PAPER_POLICIES, executions=2, warmup=1,
                          workers=1)
        assert tapes and len(tapes) == len(set(tapes))
        assert own_draws == []
        monkeypatch.undo()
        harness.clear_caches()
        cells = {}
        for policy in PAPER_POLICIES:
            cells.update(_snapshot(run_grid(
                [mix], [policy], executions=2, warmup=1, workers=1
            )))
        assert _snapshot(scoped) == cells

    def test_sweep_result_get_accessor(self):
        mix = mix_by_name(MIXES[0])
        sweep = run_grid([mix], [BASELINE], executions=2, warmup=1, workers=1)
        assert sweep.get(mix, BASELINE).policy_name == BASELINE.name


class TestDegradedDispatch:
    """Lost cells are retried serially; dead pools degrade loudly."""

    @staticmethod
    def _grid(workers=2, **kwargs):
        mixes = [mix_by_name(name) for name in MIXES[:2]]
        policies = [BASELINE]
        sweep = run_grid(mixes, policies, executions=2, warmup=1,
                         workers=workers, **kwargs)
        expected = {(m.name, p.name) for m in mixes for p in policies}
        return sweep, expected

    @fork_only
    def test_timed_out_cell_is_retried_serially(self, monkeypatch):
        monkeypatch.setenv(ENV_CELL_TIMEOUT_S, "0.2")
        monkeypatch.setattr(parallel_mod, "_policy_cell", _stall_cell)
        sweep, expected = self._grid()
        assert sweep.mode == "parallel"
        assert set(sweep.results) == expected
        assert sweep.retried == len(expected)
        assert sweep.failed == 0
        assert sweep.fallback_reason is None

    @fork_only
    def test_only_the_slow_cell_is_retried(self, monkeypatch):
        mixes = [mix_by_name(name) for name in MIXES[:2]]
        policies = [BASELINE, STATIC_FREQ]
        serial = run_grid(mixes, policies, executions=2, warmup=1,
                          workers=1)
        harness.clear_caches()
        monkeypatch.setenv(ENV_CELL_TIMEOUT_S, "0.5")
        monkeypatch.setattr(parallel_mod, "_policy_cell", _stall_one_cell)
        sweep = run_grid(mixes, policies, executions=2, warmup=1,
                         workers=2)
        assert sweep.mode == "parallel"
        assert sweep.retried == 1
        assert sweep.failed == 0
        assert _snapshot(sweep) == _snapshot(serial)

    @fork_only
    def test_cell_budget_bounds_the_prepare_phase(self, monkeypatch):
        mixes = [mix_by_name(name) for name in MIXES[:2]]
        policies = [BASELINE, STATIC_FREQ]
        serial = run_grid(mixes, policies, executions=2, warmup=1,
                          workers=1)
        harness.clear_caches()
        monkeypatch.setenv(ENV_CELL_TIMEOUT_S, "1.0")
        monkeypatch.setattr(parallel_mod, "_prepare_cell",
                            _stall_one_prepare)
        sweep = run_grid(mixes, policies, executions=2, warmup=1,
                         workers=2)
        assert sweep.elapsed_s < 5.0
        assert sweep.mode == "parallel"
        assert sweep.failed == 0
        assert set(sweep.results) == set(serial.results)
        assert _snapshot(sweep) == _snapshot(serial)

    @fork_only
    def test_wedged_worker_does_not_hold_process_exit(self, tmp_path):
        # Two Baseline cells sleep 6 s in their workers under a 0.5 s
        # budget: the sweep retries both serially and returns, and the
        # process must exit then too, not when the workers wake up.
        probe = textwrap.dedent("""
            import os, time
            from repro.core.policies import BASELINE
            from repro.experiments import parallel
            from repro.experiments.mixes import mix_by_name

            PARENT = os.getpid()
            REAL = parallel._policy_cell

            def wedged(cell):
                if os.getpid() != PARENT:
                    time.sleep(6.0)
                return REAL(cell)

            parallel._policy_cell = wedged
            sweep = parallel.run_grid(
                [mix_by_name("ferret bwaves"), mix_by_name("raytrace rs")],
                [BASELINE], executions=2, warmup=1, workers=2,
            )
            print(sweep.retried, sweep.failed)
        """)
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env.update({
            ENV_CELL_TIMEOUT_S: "0.5",
            "REPRO_CACHE_DIR": str(tmp_path),
            "PYTHONPATH": str(Path(parallel_mod.__file__).parents[2]),
        })
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=30,
        )
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2", "0"]
        assert elapsed < 3.0, elapsed

    @fork_only
    def test_no_timeout_waits_for_slow_workers(self, monkeypatch):
        monkeypatch.delenv(ENV_CELL_TIMEOUT_S, raising=False)
        monkeypatch.setattr(parallel_mod, "_policy_cell", _stall_cell)
        sweep, expected = self._grid()
        assert sweep.mode == "parallel"
        assert set(sweep.results) == expected
        assert sweep.retried == 0

    @fork_only
    def test_broken_pool_cells_are_retried_serially(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_policy_cell", _exit_cell)
        sweep, expected = self._grid()
        assert sweep.mode == "parallel"
        assert set(sweep.results) == expected
        assert sweep.retried == len(expected)
        assert sweep.failed == 0

    @fork_only
    def test_unrecoverable_cells_are_counted_not_raised(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(parallel_mod, "_policy_cell",
                            _exit_or_raise_cell)
        with caplog.at_level(logging.WARNING,
                             logger="repro.experiments.parallel"):
            sweep, expected = self._grid()
        assert sweep.mode == "parallel"
        assert sweep.results == {}
        assert sweep.retried == 0
        assert sweep.failed == len(expected)
        assert {(mix, policy) for mix, policy, _ in sweep.failures} \
            == expected
        assert all("synthetic cell failure" in reason
                   for _, _, reason in sweep.failures)
        assert "failed on serial retry" in caplog.text

    def test_pool_creation_failure_surfaces_reason(
        self, monkeypatch, caplog
    ):
        def _no_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        # The pool class is looked up where the pool is created.
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _no_pool)
        with caplog.at_level(logging.WARNING,
                             logger="repro.experiments.parallel"):
            sweep, expected = self._grid()
        assert sweep.mode == "serial"
        assert sweep.workers == 1
        assert set(sweep.results) == expected
        assert sweep.fallback_reason == "OSError: no semaphores here"
        assert "running serially" in caplog.text

    def test_healthy_sweep_reports_no_degradation(self):
        sweep, expected = self._grid(workers=1)
        assert sweep.retried == 0
        assert sweep.failed == 0
        assert sweep.failures == []
        assert sweep.fallback_reason is None


class TestWorkerDefaults:
    def test_env_variable_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert default_workers() == 5
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert default_workers() >= 1


class TestDeterminismGuard:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_two_worker_sweep_reproduces_serial(self, seed):
        """Property: parallel(2) == serial for any experiment seed."""
        mixes = [mix_by_name(name) for name in MIXES]
        policies = [BASELINE, DIRIGENT]
        harness.clear_caches()
        serial = run_grid(
            mixes, policies, executions=2, warmup=1, seed=seed, workers=1
        )
        harness.clear_caches()
        parallel = run_grid(
            mixes, policies, executions=2, warmup=1, seed=seed, workers=2
        )
        harness.clear_caches()
        assert _snapshot(serial) == _snapshot(parallel)
