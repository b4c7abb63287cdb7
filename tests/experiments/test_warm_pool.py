"""Warm-worker determinism: pool reuse must never change results.

Pool reuse is pure mechanism — every leg here pins the same property
from a different angle: a sweep's results are a function of ``(mixes,
policies, executions, warmup, seed)`` alone, never of which pool ran it
or how cells were scheduled.
"""

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policies import BASELINE, DIRIGENT
from repro.experiments import harness
from repro.experiments.mixes import mix_by_name
from repro.experiments.parallel import (
    SweepResult,
    run_grid,
    shutdown_pool,
)

MIXES = ["ferret bwaves", "raytrace rs"]

_FORK = multiprocessing.get_start_method() == "fork"
fork_only = pytest.mark.skipif(
    not _FORK, reason="pool tests rely on the fork start method"
)


@pytest.fixture(autouse=True)
def fresh_state():
    shutdown_pool()
    harness.clear_caches()
    yield
    shutdown_pool()
    harness.clear_caches()


def _snapshot(sweep: SweepResult) -> dict:
    return {key: repr(result) for key, result in sweep.results.items()}


def _grid(workers, **kwargs):
    mixes = [mix_by_name(name) for name in MIXES]
    policies = [BASELINE, DIRIGENT]
    return run_grid(
        mixes, policies, executions=2, warmup=1, workers=workers, **kwargs
    )


class TestWarmPoolDeterminism:
    @fork_only
    def test_cold_and_warm_pools_match_serial(self):
        serial = _grid(workers=1)
        assert serial.mode == "serial"
        assert serial.warm_starts == 0

        harness.clear_caches()
        shutdown_pool()
        cold = _grid(workers=2)
        assert cold.mode == "parallel"
        assert cold.warm_starts == 0

        harness.clear_caches()
        warm = _grid(workers=2)
        assert warm.mode == "parallel"
        assert warm.warm_starts == 1

        # More workers than the grid's four cells: some never get one.
        harness.clear_caches()
        wide = _grid(workers=5)
        assert wide.mode == "parallel"
        assert wide.warm_starts == 0

        assert (_snapshot(serial) == _snapshot(cold) == _snapshot(warm)
                == _snapshot(wide))


class TestWarmPoolSeedSweep:
    @fork_only
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_reused_pool_reproduces_serial_for_any_seed(self, seed):
        """Property: a pool warmed by earlier seeds stays bit-exact."""
        harness.clear_caches()
        serial = _grid(workers=1, seed=seed)
        harness.clear_caches()
        warm = _grid(workers=2, seed=seed)
        harness.clear_caches()
        assert _snapshot(serial) == _snapshot(warm)
