"""Unit tests for the Dirigent runtime loop (on the FakeSystem)."""

import pytest

from repro.core.profile import ExecutionProfile, ProfileSegment
from repro.core.runtime import DirigentRuntime, ManagedTask, RuntimeOptions
from repro.errors import ControlError
from tests.core.fakes import FakeSystem


def profile(segments=10, duration=0.005, progress=1e7):
    return ExecutionProfile(
        "synthetic",
        duration,
        tuple(ProfileSegment(duration, progress) for _ in range(segments)),
    )


def build(enable_fine=True, enable_coarse=False, **opt_kwargs):
    system = FakeSystem(pid_to_core={1: 0, 11: 1, 12: 2})
    task = ManagedTask(
        pid=1, core=0, profile=profile(), deadline_s=0.08, ema_weight=0.2
    )
    options = RuntimeOptions(
        enable_fine=enable_fine,
        enable_coarse=enable_coarse,
        **opt_kwargs,
    )
    runtime = DirigentRuntime(system, [task], [11, 12], options=options)
    return system, task, runtime


class TestOptionsValidation:
    def test_invalid_sampling_period(self):
        with pytest.raises(ControlError):
            RuntimeOptions(sampling_period_s=0.0)

    def test_invalid_decision_every(self):
        with pytest.raises(ControlError):
            RuntimeOptions(decision_every=0)

    def test_invalid_overhead(self):
        with pytest.raises(ControlError):
            RuntimeOptions(invocation_overhead_s=-1.0)

    def test_managed_task_needs_positive_deadline(self):
        with pytest.raises(ControlError):
            ManagedTask(pid=1, core=0, profile=profile(), deadline_s=0.0,
                        ema_weight=0.2)

    def test_runtime_needs_tasks(self):
        system = FakeSystem(pid_to_core={11: 1})
        with pytest.raises(ControlError):
            DirigentRuntime(system, [], [11])


class TestSamplingLoop:
    def test_start_schedules_wakeup(self):
        system, task, runtime = build()
        runtime.start()
        assert len(system.wakeups) == 1

    def test_start_twice_rejected(self):
        system, task, runtime = build()
        runtime.start()
        with pytest.raises(ControlError):
            runtime.start()

    def test_wakeup_reschedules_itself(self):
        system, task, runtime = build()
        runtime.start()
        system.fire_next_wakeup()
        assert len(system.wakeups) == 1
        assert runtime.invocations == 1

    def test_stop_halts_rescheduling(self):
        system, task, runtime = build()
        runtime.start()
        runtime.stop()
        system.fire_next_wakeup()
        assert len(system.wakeups) == 0

    def test_overhead_charged_to_bg_core(self):
        system, task, runtime = build(invocation_overhead_s=100e-6)
        runtime.start()
        system.fire_next_wakeup()
        assert system.overhead == [(1, 100e-6)]  # core of pid 11

    def test_progress_feeds_predictor(self):
        system, task, runtime = build()
        runtime.start()
        system.set_counters(0, instructions=2.5e7)
        system.fire_next_wakeup()
        assert task.predictor.segments_completed == 2

    def test_midpoint_prediction_recorded(self):
        system, task, runtime = build()
        runtime.start()
        # Reach 60% of the profile over two samples (a single-sample
        # jump would exceed the predictor's physical-rate band).
        system.set_counters(0, instructions=3e7)
        system.fire_next_wakeup()
        system.set_counters(0, instructions=6e7)
        system.fire_next_wakeup()
        assert task.midpoint_prediction is not None

    def test_no_midpoint_before_half(self):
        system, task, runtime = build()
        runtime.start()
        system.set_counters(0, instructions=2e7)
        system.fire_next_wakeup()
        assert task.midpoint_prediction is None

    def test_grade_histogram_samples_bg_cores(self):
        system, task, runtime = build()
        runtime.start()
        system.grades[1] = 2
        system.fire_next_wakeup()
        system.fire_next_wakeup()
        assert runtime.bg_grade_histogram[2] == 2  # pid 11's core twice
        assert runtime.bg_grade_histogram[4] == 2  # pid 12's core twice

    def test_paused_bg_excluded_from_histogram(self):
        system, task, runtime = build()
        runtime.start()
        system.pause(11)
        system.fire_next_wakeup()
        assert sum(runtime.bg_grade_histogram.values()) == 1


class TestFineDecisions:
    def test_decision_every_n_samples(self):
        system, task, runtime = build(decision_every=3)
        runtime.start()
        for i in range(1, 7):
            system.set_counters(0, instructions=1.1e7 * i)
            system.fire_next_wakeup()
        assert len(runtime.fine_controller.decisions) == 2

    def test_no_fine_controller_when_disabled(self):
        system, task, runtime = build(enable_fine=False)
        assert runtime.fine_controller is None

    def test_behind_task_triggers_bg_throttle(self):
        # Deadline 0.08 but profile takes 0.05 => running at half speed
        # the predictor forecasts ~0.1 > 0.08: FG at max => clamp BG.
        system, task, runtime = build(decision_every=1)
        runtime.start()
        for i in range(1, 4):
            system.set_counters(0, instructions=0.5e7 * i)
            system.fire_next_wakeup()
        assert system.grades[1] == 0
        assert system.grades[2] == 0

    def test_ahead_task_releases_resources(self):
        system, task, runtime = build(decision_every=1)
        system.grades[1] = 0
        runtime.start()
        for i in range(1, 4):
            system.set_counters(0, instructions=2.0e7 * i)  # 2x faster
            system.fire_next_wakeup()
        assert system.grades[1] > 0


class TestCompletionHandling:
    def test_completion_finalizes_and_restarts(self):
        system, task, runtime = build()
        runtime.start()
        system.set_counters(0, instructions=3e7)
        system.fire_next_wakeup()
        system.set_counters(0, instructions=6e7)
        system.fire_next_wakeup()
        runtime.on_fg_completion(
            pid=1, end_s=0.06, duration_s=0.06, instructions=1e8,
            llc_misses=5e5,
        )
        assert task.execution_index == 1
        assert task.instruction_base == 1e8
        assert task.predictor.in_execution  # restarted
        assert len(task.prediction_log) == 1
        assert task.prediction_log[0].actual_total_s == 0.06

    def test_unknown_pid_ignored(self):
        system, task, runtime = build()
        runtime.start()
        runtime.on_fg_completion(
            pid=99, end_s=0.06, duration_s=0.06, instructions=1e8,
            llc_misses=0.0,
        )
        assert task.execution_index == 0

    def test_coarse_controller_fed_on_completion(self):
        system, task, runtime = build(
            enable_coarse=True, coarse_decision_every=2, coarse_window=4,
            initial_fg_ways=3,
        )
        runtime.start()
        assert system.partition == ((0,), 3)
        for i in range(4):
            runtime.on_fg_completion(
                pid=1, end_s=0.06 * (i + 1), duration_s=0.06,
                instructions=1e8, llc_misses=1e5,
            )
        # Two coarse decisions happened (every 2 executions).
        assert len(runtime.coarse_controller.partition_history) >= 3

    def test_prediction_error_property(self):
        system, task, runtime = build()
        runtime.start()
        system.set_counters(0, instructions=3e7)
        system.fire_next_wakeup()
        system.set_counters(0, instructions=6e7)
        system.fire_next_wakeup()
        runtime.on_fg_completion(
            pid=1, end_s=0.1, duration_s=0.1, instructions=1e8, llc_misses=0.0
        )
        record = task.prediction_log[0]
        assert record.relative_error == pytest.approx(
            abs(record.predicted_total_s - 0.1) / 0.1
        )

    def test_stopped_runtime_does_not_restart_predictor(self):
        system, task, runtime = build()
        runtime.start()
        runtime.stop()
        runtime.on_fg_completion(
            pid=1, end_s=0.06, duration_s=0.06, instructions=1e8,
            llc_misses=0.0,
        )
        assert not task.predictor.in_execution


class _AttachingSystem(FakeSystem):
    """A FakeSystem that, like the simulator, accepts a sampler."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.samplers = []

    def attach_sampler(self, sampler):
        self.samplers.append(sampler)


class TestInKernelSampling:
    """The sampler side of in-kernel wakeups (Machine.attach_sampler)."""

    def test_budget_counts_down_to_each_decision(self):
        system, task, runtime = build(decision_every=5)
        runtime.start()
        budgets = []
        for i in range(1, 11):
            budgets.append(runtime.sample_budget())
            system.set_counters(0, instructions=1.1e7 * i)
            system.fire_next_wakeup()
        assert budgets == [4, 3, 2, 1, 0, 4, 3, 2, 1, 0]

    def test_nothing_taken_outside_normal_mode_or_once_stopped(self):
        system, task, runtime = build()
        runtime.start()
        assert runtime.sample_budget() == 4
        for mode in ("degraded", "safe"):
            runtime.mode = mode
            assert runtime.sample_budget() == 0
        runtime.mode = "normal"
        runtime.stop()
        assert runtime.sample_budget() == 0

    def test_suspects_near_the_safe_threshold_shrink_the_budget(self):
        # Window 40, safe threshold 0.35 = 14 suspects: even if every
        # sample taken in-kernel were suspect, the window must stay
        # below it (entering safe mode actuates).
        system, task, runtime = build(hardening=True)
        runtime.start()
        for suspects, budget in ((0, 4), (10, 3), (12, 1), (13, 0),
                                 (14, 0)):
            runtime._suspects.clear()
            runtime._suspects.extend([1] * suspects + [0] * (40 - suspects))
            assert runtime.sample_budget() == budget, suspects
        unhardened = build(hardening=False)[2]
        unhardened.start()
        unhardened._suspects.extend([1] * 40)
        assert unhardened.sample_budget() == 4

    def test_attaches_only_to_systems_that_accept_samplers(self):
        system, task, runtime = build()
        runtime.start()  # a FakeSystem (or FaultySystem) has no hook
        attaching = _AttachingSystem(pid_to_core={1: 0, 11: 1, 12: 2})
        task = ManagedTask(pid=1, core=0, profile=profile(),
                           deadline_s=0.08, ema_weight=0.2)
        runtime = DirigentRuntime(attaching, [task], [11, 12])
        runtime.start()
        assert attaching.samplers == [runtime]
        assert runtime.sample_terms == (
            runtime.options.sampling_period_s, 1,
            runtime.options.invocation_overhead_s, (0,),
        )
        # The scheduled callback is the very object the runtime names.
        assert attaching.wakeups[-1][1] is runtime.sample_wakeup

    def test_progress_fn_tasks_never_attach(self):
        system = _AttachingSystem(pid_to_core={1: 0, 11: 1})
        task = ManagedTask(pid=1, core=0, profile=profile(),
                           deadline_s=0.08, ema_weight=0.2,
                           progress_fn=lambda: 0.0)
        runtime = DirigentRuntime(system, [task], [11])
        runtime.start()
        assert system.samplers == []

    def test_replayed_samples_match_live_wakeups(self):
        # The same counter reads, taken live by one runtime and replayed
        # by another, leave every observable in the same state.
        live_sys, live_task, live = build(hardening=True)
        replay_sys, replay_task, replayed = build(hardening=True)
        live.start()
        replayed.start()
        replay_sys.grades[1] = 2
        live_sys.grades[1] = 2
        rows = []
        for i in range(1, 5):  # the sample-only wakeups before a decision
            live_sys.set_counters(0, instructions=1.2e7 * i)
            live_sys.fire_next_wakeup()
            rows.append((live_sys.time_s, 1.2e7 * i))
        replayed.replay_samples(rows)
        for attr in ("invocations", "negative_progress_samples",
                     "late_wakeups", "suspect_samples", "health_samples",
                     "bg_grade_histogram", "mode"):
            assert getattr(replayed, attr) == getattr(live, attr), attr
        assert (replay_task.predictor.expected_penalties()
                == live_task.predictor.expected_penalties())
        assert (replay_task.predictor.segments_completed
                == live_task.predictor.segments_completed)
        assert replay_task.midpoint_prediction == live_task.midpoint_prediction
        assert replayed.sample_budget() == live.sample_budget() == 0
