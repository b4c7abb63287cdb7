"""Persistent result cache: key correctness, durability, invalidation."""

import os
import pickle

import pytest

from repro.core.policies import BASELINE, DIRIGENT
from repro.experiments import harness
from repro.experiments.diskcache import (
    DiskCache,
    cache_key,
    clear_memo,
    code_version_tag,
    get_cache,
)
from repro.experiments.mixes import Mix
from repro.sim.config import MachineConfig


@pytest.fixture
def cache(tmp_path):
    return DiskCache(tmp_path / "cache")


def _mix(**overrides):
    fields = dict(
        name="ferret bwaves", fg_name="ferret", fg_count=1,
        bg_name="bwaves",
    )
    fields.update(overrides)
    return Mix(**fields)


class TestCacheKeys:
    def test_same_parts_same_key(self):
        parts = (_mix(), MachineConfig(), 8, 2, 0)
        assert cache_key("run", parts) == cache_key("run", parts)

    def test_seed_changes_key(self):
        config = MachineConfig()
        one = cache_key("run", (_mix(), config, 8, 2, 0))
        two = cache_key("run", (_mix(), config, 8, 2, 1))
        assert one != two

    def test_config_seed_changes_key(self):
        one = cache_key("run", (_mix(), MachineConfig(seed=0), 8, 2, 0))
        two = cache_key("run", (_mix(), MachineConfig(seed=1), 8, 2, 0))
        assert one != two

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mem_peak_gbps", 21.0),
            ("llc_ways", 12),
            ("num_cores", 4),
            ("os_jitter_sigma", 0.0),
            ("tick_s", 2e-3),
        ],
    )
    def test_single_config_field_changes_key(self, field, value):
        base = MachineConfig()
        changed = MachineConfig(**{field: value})
        assert getattr(base, field) != getattr(changed, field)
        one = cache_key("run", (_mix(), base, 8, 2, 0))
        two = cache_key("run", (_mix(), changed, 8, 2, 0))
        assert one != two

    def test_mix_and_policy_change_key(self):
        config = MachineConfig()
        base = cache_key("run", (_mix(), BASELINE, config, 8, 2, 0))
        other_mix = cache_key(
            "run", (_mix(bg_name="lbm"), BASELINE, config, 8, 2, 0)
        )
        other_policy = cache_key(
            "run", (_mix(), DIRIGENT, config, 8, 2, 0)
        )
        assert len({base, other_mix, other_policy}) == 3

    def test_kind_namespaces_keys(self):
        parts = (_mix(), MachineConfig(), 8, 2, 0)
        assert cache_key("run", parts) != cache_key("baseline", parts)

    def test_code_version_tag_is_stable(self):
        assert code_version_tag() == code_version_tag()
        assert len(code_version_tag()) == 16


class TestDiskCacheStore:
    def test_roundtrip(self, cache):
        parts = ("ferret", MachineConfig(), 5)
        assert cache.get("standalone", parts) == (False, None)
        cache.put("standalone", parts, {"answer": 42})
        hit, value = cache.get("standalone", parts)
        assert hit and value == {"answer": 42}

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        parts = ("ferret", 0)
        cache.put("run", parts, [1, 2, 3])
        path = cache._path("run", cache_key("run", parts))
        path.write_bytes(b"not a pickle")
        hit, value = cache.get("run", parts)
        assert not hit and value is None
        assert not path.exists()

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = DiskCache(tmp_path / "off", enabled=False)
        cache.put("run", ("x",), 1)
        assert cache.get("run", ("x",)) == (False, None)
        assert not (tmp_path / "off").exists()

    def test_clear_removes_entries(self, cache):
        cache.put("run", ("a",), 1)
        cache.put("baseline", ("b",), 2)
        assert cache.stats()["total_entries"] == 2
        assert cache.clear() == 2
        assert cache.stats()["total_entries"] == 0

    def test_clear_removes_kernel_sources_of_earlier_versions(self, cache):
        # Earlier versions kept span-kernel sources as kernels/*.json;
        # nothing reads them now, and clear must not leave them behind.
        kernels = cache.root / "kernels"
        kernels.mkdir(parents=True)
        for i in range(16):
            (kernels / ("%064x.json" % i)).write_text('{"source": ""}')
        cache.put("run", ("a",), 1)
        assert cache.clear() == 17
        assert not cache.root.exists()

    def test_stats_counts_hits_and_misses(self, cache):
        cache.get("run", ("nope",))
        cache.put("run", ("yes",), 3)
        cache.get("run", ("yes",))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"]["run"] == 1


class TestHarnessIntegration:
    def test_get_cache_honors_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert str(get_cache().root) == str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not get_cache().enabled

    def test_clear_caches_purges_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "purge"))
        disk = get_cache()
        disk.put("run", ("cell",), 1)
        disk.put("profile", ("prof",), 2)
        assert disk.stats()["total_entries"] == 2
        harness.clear_caches()
        assert get_cache().stats()["total_entries"] == 0

    def test_results_survive_process_memory(self, tmp_path, monkeypatch):
        """A fresh in-memory cache still hits the persisted result."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "persist"))
        from repro.experiments.mixes import mix_by_name

        mix = mix_by_name("ferret bwaves")
        first = harness.measure_baseline(mix, executions=2, warmup=1)
        # Drop only the in-memory layer; keep disk.
        clear_memo()
        disk = get_cache()
        hits_before = disk.hits
        second = harness.measure_baseline(mix, executions=2, warmup=1)
        assert disk.hits == hits_before + 1
        assert first is not second
        assert repr(first) == repr(second)


class TestTornWriteRecovery:
    """A writer killed mid-write must never wedge or poison the cache."""

    def test_writer_killed_midway_publishes_nothing(
        self, cache, monkeypatch
    ):
        parts = ("ferret", 4)

        def torn_dump(value, handle, *args, **kwargs):
            # Half a pickle frame hits the temp file, then the process
            # dies (a kill signal surfaces as BaseException here).
            handle.write(b"\x80\x05partial")
            handle.flush()
            raise KeyboardInterrupt

        monkeypatch.setattr(pickle, "dump", torn_dump)
        with pytest.raises(KeyboardInterrupt):
            cache.put("run", parts, list(range(100)))
        monkeypatch.undo()
        path = cache._path("run", cache_key("run", parts))
        # The atomic-replace protocol never published the torn bytes,
        # and the orphaned temp file was unlinked on the way out.
        assert not path.exists()
        assert list(path.parent.glob("*.tmp")) == []
        hit, value = cache.get("run", parts)
        assert not hit and value is None
        assert cache.stats()["corrupt_drops"] == 0  # clean miss, not torn

    def test_torn_entry_on_disk_is_dropped_then_recomputable(self, cache):
        # Defense in depth: even if torn bytes *did* land at the final
        # path (non-atomic filesystem, partial disk flush), the reader
        # drops the entry and the cell heals on the next put.
        parts = ("ferret", 5)
        cache.put("run", parts, list(range(100)))
        path = cache._path("run", cache_key("run", parts))
        path.write_bytes(path.read_bytes()[:7])
        hit, value = cache.get("run", parts)
        assert not hit and value is None
        assert cache.stats()["corrupt_drops"] == 1
        assert not path.exists()
        cache.put("run", parts, list(range(100)))
        hit, value = cache.get("run", parts)
        assert hit and value == list(range(100))


class TestCorruptDropAccounting:
    def test_corrupt_drop_counter_increments(self, cache):
        parts = ("ferret", 1)
        cache.put("run", parts, [1, 2, 3])
        path = cache._path("run", cache_key("run", parts))
        path.write_bytes(b"not a pickle")
        assert cache.stats()["corrupt_drops"] == 0
        cache.get("run", parts)
        assert cache.stats()["corrupt_drops"] == 1

    def test_clean_hits_do_not_count_as_drops(self, cache):
        parts = ("ferret", 2)
        cache.put("run", parts, {"v": 1})
        cache.get("run", parts)
        cache.get("run", ("missing",))
        assert cache.stats()["corrupt_drops"] == 0

    def test_truncated_pickle_counts(self, cache):
        parts = ("ferret", 3)
        cache.put("run", parts, list(range(100)))
        path = cache._path("run", cache_key("run", parts))
        path.write_bytes(path.read_bytes()[:10])
        hit, value = cache.get("run", parts)
        assert not hit and value is None
        assert cache.stats()["corrupt_drops"] == 1
