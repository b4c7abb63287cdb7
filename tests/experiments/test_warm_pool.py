"""Warm-worker determinism: pool reuse must never change results.

The warm-worker layer (persistent kernel cache, pool reuse, work
stealing, columnar transport) is pure mechanism — every leg here pins
the same property from a different angle: a sweep's results are a
function of ``(mixes, policies, executions, warmup, seed)`` alone,
never of which pool ran it, how packs were scheduled, or where kernel
sources came from.
"""

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policies import BASELINE, DIRIGENT
from repro.experiments import harness
from repro.experiments import parallel as parallel_mod
from repro.experiments.diskcache import get_kernel_cache
from repro.experiments.mixes import mix_by_name
from repro.experiments.parallel import (
    ENV_PACK_CELLS,
    SweepResult,
    run_grid,
    shutdown_pool,
)
from repro.sim import spanplan
from repro.sim.config import (
    ENV_KERNEL_DISK_CACHE,
    ENV_POOL_REUSE,
    ENV_STEAL,
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
    get_kernel_cache().clear()
    spanplan.consume_kernel_cache_stats()
    yield
    shutdown_pool()
    harness.clear_caches()
    get_kernel_cache().clear()
    spanplan.consume_kernel_cache_stats()


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
    def test_cold_and_warm_pools_match_serial(self, monkeypatch):
        monkeypatch.setenv(ENV_POOL_REUSE, "1")
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

        assert _snapshot(serial) == _snapshot(cold) == _snapshot(warm)
        assert cold.ipc_bytes > 0
        assert warm.ipc_bytes == cold.ipc_bytes

    @fork_only
    def test_reuse_kill_switch_restores_cold_pools(self, monkeypatch):
        monkeypatch.setenv(ENV_POOL_REUSE, "0")
        serial = _grid(workers=1)
        harness.clear_caches()
        first = _grid(workers=2)
        harness.clear_caches()
        second = _grid(workers=2)
        assert first.warm_starts == 0
        assert second.warm_starts == 0
        assert _snapshot(serial) == _snapshot(first) == _snapshot(second)

    @fork_only
    def test_kernel_cache_kill_switch(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL_DISK_CACHE, "0")
        serial = _grid(workers=1)
        harness.clear_caches()
        sweep = _grid(workers=2)
        assert sweep.kernel_disk_hits == 0
        assert get_kernel_cache().stats()["entries"] == 0
        assert _snapshot(serial) == _snapshot(sweep)

    @fork_only
    def test_steal_kill_switch(self, monkeypatch):
        monkeypatch.setenv(ENV_STEAL, "0")
        monkeypatch.setenv(ENV_PACK_CELLS, "1")
        serial = _grid(workers=1)
        harness.clear_caches()
        sweep = _grid(workers=2)
        assert sweep.mode == "parallel"
        assert sweep.steals == 0
        assert sweep.packs_split == 0
        assert _snapshot(serial) == _snapshot(sweep)

    @fork_only
    def test_stealing_dispatch_matches_serial(self, monkeypatch):
        # One cell per pack and more packs than workers: the deque is
        # actually contended, so steals happen (first `workers` packs
        # are seeds, the rest are steals).
        monkeypatch.setenv(ENV_STEAL, "1")
        monkeypatch.setenv(ENV_PACK_CELLS, "1")
        serial = _grid(workers=1)
        harness.clear_caches()
        sweep = _grid(workers=2)
        assert sweep.mode == "parallel"
        assert sweep.steals >= 1
        assert _snapshot(serial) == _snapshot(sweep)

    @fork_only
    def test_idle_workers_split_packs(self, monkeypatch):
        # More workers than packs: the dispatcher must split the big
        # pack (at its midpoint) to occupy idle workers, and the result
        # must not move.
        monkeypatch.setenv(ENV_STEAL, "1")
        monkeypatch.setenv(ENV_PACK_CELLS, "4")
        serial = _grid(workers=1)
        harness.clear_caches()
        sweep = _grid(workers=4)
        assert sweep.mode == "parallel"
        assert sweep.packs_split >= 1
        assert _snapshot(serial) == _snapshot(sweep)

    @fork_only
    def test_warm_pool_serves_kernels_from_disk(self, monkeypatch):
        monkeypatch.setenv(ENV_POOL_REUSE, "1")
        monkeypatch.setenv(ENV_KERNEL_DISK_CACHE, "1")
        first = _grid(workers=2)
        assert first.mode == "parallel"
        # Workers persisted their generated kernels for the next pool.
        assert get_kernel_cache().stats()["entries"] >= 1
        harness.clear_caches()
        shutdown_pool()
        second = _grid(workers=2)
        assert second.kernels_preloaded >= 1
        assert second.kernel_disk_hits >= 1
        assert _snapshot(first) == _snapshot(second)


class TestWarmPoolSeedSweep:
    @fork_only
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_reused_pool_reproduces_serial_for_any_seed(
        self, monkeypatch, seed
    ):
        """Property: a pool warmed by earlier seeds stays bit-exact."""
        monkeypatch.setenv(ENV_POOL_REUSE, "1")
        harness.clear_caches()
        serial = _grid(workers=1, seed=seed)
        harness.clear_caches()
        warm = _grid(workers=2, seed=seed)
        harness.clear_caches()
        assert _snapshot(serial) == _snapshot(warm)


class TestKernelDiskCacheIntegrity:
    def _shape(self):
        return spanplan.template_shapes()[0]

    def test_torn_write_is_dropped_and_recompiled(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL_DISK_CACHE, "1")
        cache = get_kernel_cache()
        shape = self._shape()
        source = spanplan.generate_kernel_source(shape)
        cache.store(shape, source)
        path = cache._path(shape)
        assert path.exists()
        # Tear the entry mid-file: the digest check must reject it.
        data = path.read_text(encoding="utf-8")
        path.write_text(data[: len(data) // 2], encoding="utf-8")
        drops = cache.corrupt_drops
        assert cache.load(shape) is None
        assert cache.corrupt_drops == drops + 1
        assert not path.exists()
        # The engine regenerates and re-persists transparently.
        assert spanplan._kernel_source(shape) == source
        assert get_kernel_cache().load(shape) == source

    def test_doctored_entry_fails_gen003_audit(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL_DISK_CACHE, "1")
        import hashlib
        import json

        cache = get_kernel_cache()
        shape = self._shape()
        cache.store(shape, spanplan.generate_kernel_source(shape))
        path = cache._path(shape)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["source"] += "\n# doctored\n"
        entry["sha256"] = hashlib.sha256(
            entry["source"].encode("utf-8")
        ).hexdigest()
        path.write_text(json.dumps(entry), encoding="utf-8")

        import ast
        from pathlib import Path

        from repro.analysis.core import SourceModule
        from repro.analysis.rules_gen import KernelDiskCacheAudit

        # The rule only runs when spanplan is among the analyzed
        # modules (that is how `repro lint` scopes it).
        spanplan_path = Path(spanplan.__file__)
        text = spanplan_path.read_text(encoding="utf-8")
        module = SourceModule(
            spanplan_path, "repro/sim/spanplan.py", text, ast.parse(text)
        )
        findings = list(KernelDiskCacheAudit().check_project([module]))
        assert any("diverges" in f.message for f in findings)

    def test_stale_tag_entries_are_invisible(self, tmp_path):
        import hashlib
        import json

        from repro.experiments.diskcache import KernelDiskCache

        cache = KernelDiskCache(root=tmp_path)
        shape = self._shape()
        # An entry left behind by another code version: valid JSON and
        # digest, but a tag the current version will never look up.
        source = "def k(): pass"
        stale_entry = {
            "shape": repr(shape),
            "tag": "0" * 16,
            "sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
            "source": source,
        }
        cache._dir().mkdir(parents=True)
        stale = cache._dir() / ("0" * 64 + ".json")
        stale.write_text(json.dumps(stale_entry), encoding="utf-8")
        assert cache.load(shape) is None
        assert list(cache.entries()) == []
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["stale_entries"] == 1
        assert cache.corrupt_drops == 0
