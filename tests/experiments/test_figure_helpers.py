"""Unit tests for the figure-driver helpers on reduced mix sets."""

import pytest

from repro.experiments import figures
from repro.experiments.figures import FigureResult
from repro.experiments.harness import clear_caches
from repro.experiments.mixes import Mix
from repro.experiments.parallel import last_sweep, shutdown_pool

EXECS = 5

REDUCED = [
    Mix(name="ferret rs", fg_name="ferret", bg_name="rs"),
    Mix(name="bodytrack bwaves", fg_name="bodytrack", bg_name="bwaves"),
]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestMixPolicyRows:
    def test_rows_cover_every_policy(self):
        rows = figures._mix_policy_rows(REDUCED, EXECS, seed=0)
        assert len(rows) == len(REDUCED) * 5
        policies = {row[1] for row in rows}
        assert policies == {
            "Baseline", "StaticFreq", "StaticBoth", "DirigentFreq",
            "Dirigent",
        }

    def test_baseline_bg_is_reference(self):
        rows = figures._mix_policy_rows(REDUCED, EXECS, seed=0)
        for mix, policy, success, bg, mean, std in rows:
            if policy == "Baseline":
                assert bg == 1.0
            assert 0.0 <= success <= 1.0
            assert mean > 0 and std >= 0


class TestSummary:
    def test_summary_structure(self):
        result = figures._summary(
            "figX", "reduced", REDUCED, EXECS, 0, "note"
        )
        assert isinstance(result, FigureResult)
        assert [row[0] for row in result.rows] == [
            "Baseline", "StaticFreq", "StaticBoth", "DirigentFreq",
            "Dirigent",
        ]
        for __, success, bg in result.rows:
            assert 0.0 <= success <= 1.0
            assert bg > 0

    def test_summary_reuses_cached_runs(self, run_calls):
        first = figures._summary("figX", "reduced", REDUCED, EXECS, 0, "note")
        run_calls.clear()
        second = figures._summary("figX", "reduced", REDUCED, EXECS, 0,
                                  "note")
        assert second == first
        assert run_calls == []

    def test_parallel_rows_equal_serial_with_the_disk_off(
        self, monkeypatch, run_calls
    ):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = figures._summary("figX", "reduced", REDUCED, 3, 0, "note")
        clear_caches()
        run_calls.clear()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        shutdown_pool()
        try:
            parallel = figures._summary("figX", "reduced", REDUCED, 3, 0,
                                        "note")
            sweep = last_sweep()
        finally:
            shutdown_pool()
        assert parallel == serial
        # With the disk off, every cell reaches the rows through the
        # sweep's results: this process simulates nothing.
        assert run_calls == []
        assert (sweep.mode, sweep.workers) == ("parallel", 2)
        assert len(sweep.results) == len(REDUCED) * 5
        assert sweep.retried == sweep.failed == 0
