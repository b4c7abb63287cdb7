"""Structural tests for the conceptual figure drivers (fig1-fig3)."""

import pytest

from repro.experiments import figures
from repro.experiments.harness import clear_caches

EXECS = 6


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestFig1:
    def test_three_curves(self):
        result = figures.fig1(executions=EXECS, bins=8)
        curves = {row[0] for row in result.rows}
        assert curves == {"Standalone", "Contention", "Ideal(Dirigent)"}
        assert len(result.rows) == 3 * 8

    def test_densities_normalized(self):
        result = figures.fig1(executions=EXECS, bins=8)
        for curve in ("Standalone", "Contention", "Ideal(Dirigent)"):
            pts = [(t, d) for c, t, d in result.rows if c == curve]
            width = pts[1][0] - pts[0][0]
            assert sum(d * width for _, d in pts) == pytest.approx(
                1.0, rel=0.05
            )

    def test_deadline_noted(self):
        result = figures.fig1(executions=EXECS, bins=8)
        assert any("Deadline" in note for note in result.notes)


class TestFig2:
    def test_two_task_types(self):
        result = figures.fig2(executions=EXECS)
        types = [row[0] for row in result.rows]
        assert types == ["TypeA(Baseline)", "TypeB(Dirigent)"]

    def test_reservations_positive(self):
        result = figures.fig2(executions=EXECS)
        for row in result.rows:
            assert row[1] > 0
            assert row[2] >= 0


class TestFig3:
    def test_deterministic(self):
        a = figures.fig3()
        b = figures.fig3()
        assert a.rows == b.rows

    def test_equation1_identity(self):
        result = figures.fig3()
        for row in result.rows:
            __, profiled, measured, alpha, penalty = row
            assert penalty == pytest.approx(
                (alpha - 1.0) * profiled, abs=1e-3
            )
