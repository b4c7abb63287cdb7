"""Integration tests for the experiment harness (small run counts)."""

import math

import pytest

from repro.core.policies import BASELINE, DIRIGENT, STATIC_FREQ, Policy
from repro.errors import ExperimentError
from repro.experiments.harness import (
    build_machine,
    clear_caches,
    deadlines_for,
    fg_cores_of,
    find_static_partition,
    bg_cores_of,
    get_profile,
    measure_baseline,
    measure_standalone,
    run_policy,
)
from repro.experiments.mixes import Mix, mix_by_name
from repro.sim.config import MachineConfig

EXECS = 6
WARMUP = 2


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def mix():
    return mix_by_name("ferret rs")


class TestBuildMachine:
    def test_single_fg_layout(self, mix):
        machine, fg, bg = build_machine(mix, MachineConfig())
        assert [p.core for p in fg] == [0]
        assert [p.core for p in bg] == [1, 2, 3, 4, 5]
        assert all(p.spec.name == "rs" for p in bg)

    def test_multi_fg_layout(self):
        mix = mix_by_name("raytrace x2 rs")
        machine, fg, bg = build_machine(mix, MachineConfig())
        assert [p.core for p in fg] == [0, 1]
        assert len(bg) == 4

    def test_rotate_layout(self):
        mix = mix_by_name("ferret lbm+namd")
        machine, fg, bg = build_machine(mix, MachineConfig())
        names = {p.spec.name for p in bg}
        assert names <= {"lbm", "namd"}

    def test_core_helpers(self, mix):
        config = MachineConfig()
        assert fg_cores_of(mix, config) == [0]
        assert bg_cores_of(mix, config) == [1, 2, 3, 4, 5]

    def test_too_many_fg_rejected(self):
        mix = Mix(name="x", fg_name="ferret", fg_count=6, bg_name="rs")
        with pytest.raises(ExperimentError):
            fg_cores_of(mix, MachineConfig())


class TestProfiles:
    def test_profile_cached(self):
        one = get_profile("ferret")
        two = get_profile("ferret")
        assert one is two

    def test_profile_has_many_segments(self):
        # The paper's 5ms sampling gives 100+ segments per FG task.
        profile = get_profile("ferret")
        assert profile.num_segments >= 100


class TestBaselineAndDeadlines:
    def test_baseline_success_near_62_percent(self, mix):
        # With deadline = mu + 0.3 sigma, a roughly symmetric completion
        # distribution yields ~62% success; the paper reports ~60%.
        base = measure_baseline(mix, executions=30, warmup=WARMUP)
        assert 0.4 < base.fg_success_ratio < 0.85

    def test_baseline_cached(self, mix):
        one = measure_baseline(mix, executions=EXECS, warmup=WARMUP)
        two = measure_baseline(mix, executions=EXECS, warmup=WARMUP)
        assert one is two

    def test_baseline_keys_on_the_mix_not_its_name(self, monkeypatch):
        # With the result cache off only the in-memory memo answers:
        # two mixes that share a display name get their own Baselines.
        monkeypatch.setenv("REPRO_CACHE", "0")
        first = Mix(name="custom", fg_name="ferret", bg_name="rs")
        second = Mix(name="custom", fg_name="raytrace", bg_name="bwaves")
        one = measure_baseline(first, executions=2, warmup=1)
        two = measure_baseline(second, executions=2, warmup=1)
        assert one.mix == first
        assert two.mix == second
        assert two.deadlines_s != one.deadlines_s

    def test_deadlines_match_baseline_stats(self, mix):
        base = measure_baseline(mix, executions=EXECS, warmup=WARMUP)
        deadlines = deadlines_for(mix, executions=EXECS, warmup=WARMUP)
        assert deadlines == base.deadlines_s
        stats = base.fg_stats
        assert deadlines[0] == pytest.approx(stats.mean_s + 0.3 * stats.std_s)


class TestRunPolicy:
    def test_result_shape(self, mix):
        result = run_policy(mix, BASELINE, executions=EXECS, warmup=WARMUP)
        assert result.policy_name == "Baseline"
        assert len(result.durations_s) == 1
        assert len(result.durations_s[0]) == EXECS
        assert result.elapsed_s > 0
        assert result.bg_instr_per_s > 0
        assert result.fg_instr > 0

    def test_static_freq_uses_baseline_deadlines(self, mix):
        base = measure_baseline(mix, executions=EXECS, warmup=WARMUP)
        result = run_policy(mix, STATIC_FREQ, executions=EXECS, warmup=WARMUP)
        assert result.deadlines_s == base.deadlines_s

    def test_static_partition_requires_ways_or_sweep(self, mix):
        policy = Policy(name="P", static_partition=True, static_bg_grade=0)
        result = run_policy(
            mix, policy, deadlines_s=(math.inf,), executions=EXECS,
            warmup=WARMUP, static_fg_ways=6,
        )
        assert result.fg_stats.mean_s > 0

    def test_dirigent_produces_runtime_artifacts(self, mix):
        result = run_policy(mix, DIRIGENT, executions=EXECS, warmup=WARMUP)
        assert result.partition_history  # coarse controller ran
        assert result.bg_grade_histogram  # sampled BG grades
        assert result.prediction_logs and result.prediction_logs[0]

    def test_observe_mode_records_predictions_without_control(self, mix):
        result = run_policy(
            mix, BASELINE, executions=EXECS, warmup=WARMUP,
            observe_predictor=True,
        )
        assert result.prediction_logs[0]
        assert not result.partition_history

    def test_multi_fg_runs_all_tasks(self):
        mix = mix_by_name("raytrace x2 rs")
        result = run_policy(mix, BASELINE, executions=EXECS, warmup=WARMUP)
        assert len(result.durations_s) == 2
        assert all(len(task) == EXECS for task in result.durations_s)
        assert len(result.deadlines_s) == 2

    def test_invalid_executions_rejected(self, mix):
        with pytest.raises(ExperimentError):
            run_policy(mix, BASELINE, executions=0)

    def test_seed_changes_trajectory(self, mix):
        a = run_policy(mix, BASELINE, executions=EXECS, warmup=WARMUP, seed=0)
        b = run_policy(mix, BASELINE, executions=EXECS, warmup=WARMUP, seed=1)
        assert a.durations_s != b.durations_s

    def test_same_seed_reproducible(self, mix):
        a = run_policy(mix, BASELINE, executions=EXECS, warmup=WARMUP)
        b = run_policy(mix, BASELINE, executions=EXECS, warmup=WARMUP)
        assert a.durations_s == b.durations_s


class TestStandalone:
    def test_standalone_faster_than_contended(self, mix):
        alone = measure_standalone("ferret", executions=EXECS, warmup=WARMUP)
        base = measure_baseline(mix, executions=EXECS, warmup=WARMUP)
        assert alone.stats.mean_s < base.fg_stats.mean_s

    def test_standalone_cached(self):
        one = measure_standalone("ferret", executions=EXECS, warmup=WARMUP)
        two = measure_standalone("ferret", executions=EXECS, warmup=WARMUP)
        assert one is two

    def test_standalone_mpki_positive(self):
        alone = measure_standalone("ferret", executions=EXECS, warmup=WARMUP)
        assert alone.mpki > 0


class TestStaticPartition:
    def test_memo_keys_on_every_sweep_parameter(self, mix, monkeypatch):
        # With the result cache off only the in-memory memo answers:
        # a second sweep over other candidates must not be served the
        # first sweep's partition.
        monkeypatch.setenv("REPRO_CACHE", "0")
        first = find_static_partition(
            mix, candidates=[2, 4], executions=2, warmup=1
        )
        second = find_static_partition(
            mix, candidates=[12, 14], executions=2, warmup=1
        )
        assert first in (2, 4)
        assert second in (12, 14)
        assert find_static_partition(
            mix, candidates=(2, 4), executions=2, warmup=1
        ) == first
