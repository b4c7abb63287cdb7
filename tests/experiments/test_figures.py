"""Tests for the figure drivers (tiny execution counts).

These exercise the structure of each driver; the shape-level assertions
against the paper live in the benchmark harness, which runs with more
executions.
"""

import pytest

from repro.experiments import figures
from repro.experiments.figures import FIGURES, FigureResult
from repro.experiments.harness import clear_caches

EXECS = 6


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestRegistry:
    def test_all_paper_figures_present(self):
        expected = {
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9a", "fig9b", "fig9c", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "headline",
        }
        assert set(FIGURES) == expected

    def test_table1_structure(self):
        result = FIGURES["table1"]()
        assert isinstance(result, FigureResult)
        assert len(result.rows) == 12


class TestFig4:
    def test_rows_per_fg_benchmark(self):
        result = figures.fig4(executions=EXECS)
        assert len(result.rows) == 5
        for row in result.rows:
            name, alone, contend, mpki_a, mpki_c = row
            assert contend > alone
            assert mpki_c > mpki_a


class TestFig6:
    def test_trace_rows(self):
        result = figures.fig6(executions=10)
        assert len(result.rows) == 10
        for row in result.rows:
            assert row[3] >= 0  # error column


class TestFig8:
    def test_sweep_monotone_improvement(self):
        result = figures.fig8(
            executions=5, ways_range=(2, 6, 12), dirigent_executions=15
        )
        means = [row[1] for row in result.rows]
        assert means[-1] < means[0]  # more ways => faster streamcluster

    def test_notes_mention_convergence(self):
        result = figures.fig8(
            executions=4, ways_range=(2, 8), dirigent_executions=15
        )
        assert any("Converged" in note for note in result.notes)


class TestFig11:
    def test_density_rows_per_policy(self):
        result = figures.fig11(executions=EXECS, bins=6)
        policies = {row[0] for row in result.rows}
        assert policies == {
            "Baseline", "StaticFreq", "StaticBoth", "DirigentFreq", "Dirigent",
        }
        assert len(result.rows) == 5 * 6


class TestFig12:
    def test_probabilities_sum_to_one(self):
        result = figures.fig12(executions=EXECS)
        for policy in ("DirigentFreq", "Dirigent"):
            total = sum(row[2] for row in result.rows if row[0] == policy)
            assert total == pytest.approx(1.0, abs=0.01)


class TestFig15:
    def test_sweep_factors(self):
        result = figures.fig15(executions=EXECS, factors=(1.05, 1.15))
        assert [row[0] for row in result.rows] == ["1.05x", "1.15x"]
        # A looser target must not reduce BG throughput.
        assert result.rows[1][3] >= result.rows[0][3] - 0.05


class TestRunCache:
    def test_repeated_driver_calls_reuse_runs(self, run_calls):
        first = figures.fig12(executions=EXECS)
        run_calls.clear()
        assert figures.fig12(executions=EXECS) == first
        assert run_calls == []

    def test_clear_caches_drops_the_runs(self, monkeypatch, run_calls):
        monkeypatch.setenv("REPRO_CACHE", "0")
        first = figures.fig12(executions=2)
        clear_caches()
        run_calls.clear()
        assert figures.fig12(executions=2) == first
        assert {"DirigentFreq", "Dirigent"} <= set(run_calls)

    def test_cells_of_another_backend_are_simulated(
        self, monkeypatch, run_calls
    ):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_SIM_BACKEND", "batch")
        batch = figures.fig12(executions=2)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "scalar")
        run_calls.clear()
        assert figures.fig12(executions=2) == batch
        assert {"DirigentFreq", "Dirigent"} <= set(run_calls)
