"""End-to-end chaos runs: bit-identity, reproducibility, and the
hardening acceptance criterion.

These run the full harness (machine + runtime + metrics) under fault
plans.  The two load-bearing properties:

* a zero-fault plan is *bit-identical* to running with no plan at all
  (the harness installs no wrapper for it), and
* under the documented ``sensor-degraded`` rates the hardened runtime
  keeps FG QoS high while the unhardened one (kill switch thrown)
  demonstrably misses more deadlines.

A hypothesis sweep over random plans adds the properties every plan
must keep: no exception, same plan ==> same result, and the
degraded-mode ladder (safe mode only after degraded mode).
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fine import FineGrainController
from repro.core.policies import DIRIGENT
from repro.experiments.chaos import (
    DEFAULT_CHAOS_MIXES,
    run_chaos,
    run_chaos_cell,
)
from repro.experiments.harness import bg_cores_of, clear_caches, run_policy
from repro.experiments.mixes import mix_by_name
from repro.faults import SCENARIO_NAMES, ZERO_FAULTS, FaultPlan, scenario
from repro.faults.injector import FaultySystem
from repro.sim.config import ENV_DEGRADED_MODE, MachineConfig


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestZeroFaultIdentity:
    def test_zero_plan_bit_identical_to_no_plan(self):
        mix = mix_by_name("ferret rs")
        plain = run_policy(mix, DIRIGENT, executions=3, warmup=1)
        clear_caches()
        zeroed = run_policy(
            mix, DIRIGENT, executions=3, warmup=1, fault_plan=ZERO_FAULTS
        )
        assert plain.durations_s == zeroed.durations_s
        assert plain.deadlines_s == zeroed.deadlines_s
        assert plain.bg_grade_histogram == zeroed.bg_grade_histogram
        assert plain.elapsed_s == zeroed.elapsed_s
        # The control row still carries a report — an empty one.
        assert plain.fault_report is None
        report = zeroed.fault_report
        assert report is not None
        assert report.total_injected == 0
        assert report.event_signature == ()
        assert report.degraded_entries == 0
        assert report.safe_entries == 0


#: Grid every random plan draws each rate and sigma from.
GRID = st.sampled_from([0.0, 0.3, 1.0])


class TestRandomFaultPlans:
    """Random single-node plans: no raise, reproducible, ladder holds."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        drop=GRID, noise=GRID, glitch=GRID, delay=GRID, miss=GRID,
        actuation=GRID, beat_loss=GRID, beat_dup=GRID, profile=GRID,
    )
    @example(seed=0, drop=0.0, noise=0.0, glitch=0.0, delay=0.0, miss=0.0,
             actuation=0.0, beat_loss=0.0, beat_dup=0.0, profile=0.0)
    @settings(max_examples=10, deadline=None)
    def test_plan_properties(
        self, seed, drop, noise, glitch, delay, miss, actuation,
        beat_loss, beat_dup, profile,
    ):
        plan = FaultPlan(
            scenario="random", seed=seed, counter_drop_rate=drop,
            counter_noise_sigma=noise, counter_glitch_rate=glitch,
            wakeup_delay_rate=delay, wakeup_miss_rate=miss,
            actuation_fail_rate=actuation, heartbeat_loss_rate=beat_loss,
            heartbeat_dup_rate=beat_dup, profile_noise_sigma=profile,
        )
        mix = mix_by_name("ferret rs")

        def run(fault_plan):
            return run_policy(
                mix, DIRIGENT, executions=2, warmup=1, fault_plan=fault_plan
            )

        clear_caches()
        first = run(plan)
        second = run(plan)
        assert first == second
        assert repr(first) == repr(second)
        report = first.fault_report
        if plan.is_zero:
            assert report.total_injected == 0
            assert report.event_signature == ()
            plain = run(None)
            assert replace(first, fault_report=None) == plain
            assert repr(replace(first, fault_report=None)) == repr(plain)
        # The ladder: safe mode is entered only from degraded mode, and
        # degraded time includes the time spent safe.
        if report.safe_entries > 0:
            assert report.degraded_entries > 0
        assert report.safe_time_s <= report.degraded_time_s
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv(ENV_DEGRADED_MODE, "0")
            unhardened = run(plan).fault_report
        assert not unhardened.hardening_enabled
        assert unhardened.degraded_entries == 0
        assert unhardened.safe_entries == 0


class TestFaultedReproducibility:
    def test_same_plan_same_run(self):
        mix = mix_by_name("ferret rs")
        plan = scenario("sensor-degraded", seed=3)
        first = run_policy(
            mix, DIRIGENT, executions=3, warmup=1, fault_plan=plan
        )
        second = run_policy(
            mix, DIRIGENT, executions=3, warmup=1, fault_plan=plan
        )
        assert first.durations_s == second.durations_s
        assert first.fault_report.event_signature \
            == second.fault_report.event_signature
        assert first.fault_report.event_signature  # faults actually fired
        assert first.fault_report.injected == second.fault_report.injected

    def test_fault_seed_changes_the_stream(self):
        mix = mix_by_name("ferret rs")
        first = run_policy(
            mix, DIRIGENT, executions=3, warmup=1,
            fault_plan=scenario("sensor-degraded", seed=3),
        )
        other = run_policy(
            mix, DIRIGENT, executions=3, warmup=1,
            fault_plan=scenario("sensor-degraded", seed=4),
        )
        assert first.fault_report.event_signature \
            != other.fault_report.event_signature

    def test_deadlines_come_from_the_clean_baseline(self):
        mix = mix_by_name("ferret rs")
        clean = run_policy(mix, DIRIGENT, executions=3, warmup=1)
        faulted = run_policy(
            mix, DIRIGENT, executions=3, warmup=1,
            fault_plan=scenario("sensor-degraded", seed=3),
        )
        # Faults corrupt the controller's view, never the goalposts.
        assert faulted.deadlines_s == clean.deadlines_s


class TestFaultedDecisionReads:
    """The BG intrusiveness a decision sees passes the counter filter."""

    def test_decisions_read_what_one_filtered_read_per_core_gives(
        self, monkeypatch
    ):
        # Each BG core's misses must cost exactly one filtered counter
        # read, in core order: the filter draws from the injector's RNG
        # and keeps each core's last read, so a read that skipped it, or
        # filtered twice, shifts every later fault.
        plan = FaultPlan(
            scenario="counters", seed=11, counter_drop_rate=0.2,
            counter_glitch_rate=0.05, counter_noise_sigma=0.1,
        )
        mix = mix_by_name("ferret rs")
        decide = FineGrainController.decide

        def run():
            seen = []

            def recording(self, statuses, bg_intrusiveness=None):
                seen.append(dict(bg_intrusiveness))
                return decide(self, statuses, bg_intrusiveness)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(FineGrainController, "decide", recording)
                clear_caches()
                result = run_policy(
                    mix, DIRIGENT, executions=3, warmup=1, fault_plan=plan
                )
            return result, seen

        result, seen = run()

        def one_filtered_read(self, core):
            return self.read_counters(core).llc_misses

        monkeypatch.setattr(FaultySystem, "read_llc_misses", one_filtered_read)
        reference, reference_seen = run()
        assert seen and all(seen)
        assert seen == reference_seen
        assert result == reference
        assert repr(result) == repr(reference)
        signature = result.fault_report.event_signature
        kinds = {kind for _, _, kind, _ in signature}
        assert {"counter-drop", "counter-glitch"} <= kinds
        # BG cores' reads are among the faulted ones.
        faulted_cores = {
            int(detail.split("=")[1]) for _, surface, _, detail in signature
            if surface == "counters"
        }
        assert faulted_cores & set(bg_cores_of(mix, MachineConfig()))


class TestHardeningAcceptance:
    """ISSUE acceptance: >=90% FG deadlines hardened, unhardened worse."""

    def test_hardened_meets_qos_where_unhardened_fails(self, monkeypatch):
        mix = mix_by_name("bodytrack bwaves")
        plan = scenario("sensor-degraded", seed=7)
        monkeypatch.delenv("REPRO_DEGRADED_MODE", raising=False)
        hardened = run_policy(
            mix, DIRIGENT, executions=12, warmup=3, seed=7, fault_plan=plan
        )
        monkeypatch.setenv("REPRO_DEGRADED_MODE", "0")
        unhardened = run_policy(
            mix, DIRIGENT, executions=12, warmup=3, seed=7, fault_plan=plan
        )
        assert hardened.fault_report.hardening_enabled
        assert not unhardened.fault_report.hardening_enabled
        assert hardened.fg_success_ratio >= 0.9
        assert unhardened.fg_success_ratio < hardened.fg_success_ratio
        # The hardened run detected the fault storm and degraded.
        assert hardened.fault_report.degraded_entries >= 1
        assert hardened.fault_report.rejected_samples > 0
        assert unhardened.fault_report.degraded_entries == 0


class TestChaosSuite:
    def test_cell_runs_one_scenario(self):
        result = run_chaos_cell(
            mix_by_name("ferret rs"), "actuator-flaky", executions=3,
            warmup=1,
        )
        report = result.fault_report
        assert report.scenario == "actuator-flaky"
        assert report.actuations_retried > 0

    def test_suite_covers_mixes_by_scenarios(self):
        figure = run_chaos(
            mixes=("ferret rs",), scenarios=("none", "wakeup-storm"),
            executions=2, warmup=1,
        )
        assert figure.name == "chaos"
        assert len(figure.rows) == 2
        scenarios = [row[1] for row in figure.rows]
        assert scenarios == ["none", "wakeup-storm"]
        assert len(figure.headers) == len(figure.rows[0])

    def test_default_suite_shape(self):
        assert len(DEFAULT_CHAOS_MIXES) == 2
        assert "none" in SCENARIO_NAMES
