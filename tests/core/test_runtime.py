"""Unit tests for the Dirigent runtime loop (on the FakeSystem)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import ExecutionProfile, ProfileSegment
from repro.core.runtime import (
    DirigentRuntime,
    ManagedTask,
    RuntimeOptions,
    SuspectWindow,
)
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
        # stop() drops the queued wakeup, and one already firing when
        # it stopped does not reschedule.
        assert len(system.wakeups) == 0
        runtime.sample_wakeup()
        assert len(system.wakeups) == 0
        assert runtime.invocations == 0

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
        # Each grant runs up to and including the next decision.
        assert budgets == [5, 4, 3, 2, 1, 5, 4, 3, 2, 1]

    def test_nothing_taken_outside_normal_mode_or_once_stopped(self):
        system, task, runtime = build()
        runtime.start()
        assert runtime.sample_budget() == 5
        for mode in ("degraded", "safe"):
            runtime.mode = mode
            assert runtime.sample_budget() == 0
        runtime.mode = "normal"
        runtime.stop()
        assert runtime.sample_budget() == 0

    def test_suspects_near_the_safe_threshold_shrink_the_budget(self):
        # Window 40, safe threshold 0.35 = 14 suspects: even if every
        # sample taken in-kernel before the last granted one were
        # suspect, the window must stay below it (entering safe mode
        # actuates), so the last one is the first that could reach it.
        system, task, runtime = build(hardening=True)
        runtime.start()
        for suspects, budget in ((0, 5), (10, 4), (12, 2), (13, 1),
                                 (14, 1)):
            window = runtime._suspects
            window.clear()
            for flag in [1] * suspects + [0] * (40 - suspects):
                window.push(flag)
            assert window.count == sum(window) == suspects
            assert runtime.sample_budget() == budget, suspects
        unhardened = build(hardening=False)[2]
        unhardened.start()
        for flag in [1] * 40:
            unhardened._suspects.push(flag)
        assert unhardened.sample_budget() == 5

    def test_suspect_window_counts_what_it_holds(self):
        window = SuspectWindow(3)
        pushed = []
        for flag in (1, 0, 1, 1, 0, 0, 0, 1):
            window.push(flag)
            pushed.append(flag)
            assert list(window) == pushed[-3:]
            assert window.count == sum(pushed[-3:])
            assert len(window) == min(len(pushed), 3)
        for k in (2, 3):
            window.push_zeros(k)
            pushed.extend([0] * k)
            assert list(window) == pushed[-3:]
            assert window.count == sum(pushed[-3:])
        window.clear()
        assert list(window) == [] and window.count == 0

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
        # The scheduled callback is the one the runtime names: a binding
        # of the same method to the same runtime.
        assert attaching.wakeups[-1][1] == runtime.sample_wakeup

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
        # by another, leave every observable in the same state.  Three
        # FG tasks; more samples than the 40-wakeup health window, with
        # zero-delta, stale and outlier reads among them, so the window
        # fills and the mode is evaluated (and degrades) inside a replay.
        def build_three():
            system = FakeSystem(
                pid_to_core={1: 0, 2: 1, 3: 2, 11: 3, 12: 4}
            )
            tasks = [
                ManagedTask(pid=pid, core=pid - 1, profile=profile(),
                            deadline_s=0.08, ema_weight=0.2)
                for pid in (1, 2, 3)
            ]
            runtime = DirigentRuntime(
                system, tasks, [11, 12],
                options=RuntimeOptions(hardening=True, decision_every=64),
            )
            system.grades[3] = 2
            runtime.start()
            return system, tasks, runtime

        live_sys, live_tasks, live = build_three()
        _, replay_tasks, replayed = build_three()
        # Per-sample instruction steps of each task (2.2-2.6e6 per 5 ms,
        # about 1.2 of the profiled rate) and the reads that go wrong.
        steps = (2.2e6, 2.4e6, 2.6e6)
        anomalies = {
            8: (0, "zero"), 14: (1, "stale"), 20: (2, "outlier"),
            26: (1, "zero"), 32: (0, "stale"), 38: (1, "outlier"),
        }
        counts = [0.0, 0.0, 0.0]
        rows = []
        for k in range(1, 46):
            reads = []
            for i, step in enumerate(steps):
                kind = anomalies.get(k, (None, None))
                kind = kind[1] if kind[0] == i else None
                if kind == "zero":
                    read = counts[i]
                elif kind == "stale":
                    read = counts[i] - 5e5
                elif kind == "outlier":
                    read = counts[i] + 1e9
                else:
                    counts[i] += step * (1.0 + 0.01 * (k % 7))
                    read = counts[i]
                reads.append(read)
                live_sys.set_counters(i, instructions=read)
            live_sys.fire_next_wakeup()
            rows.append((live_sys.time_s,) + tuple(reads))
        # Replayed as the span kernel hands them over: several spans.
        for start in range(0, len(rows), 7):
            replayed.replay_samples(rows[start:start + 7])
        # And as k one-row folds.
        _, single_tasks, single = build_three()
        for row in rows:
            single.replay_samples([row])
        assert _fold_state(single) == _fold_state(replayed)

        assert len(live._suspects) == 40
        assert live.degraded_entries == 1
        for attr in ("invocations", "negative_progress_samples",
                     "late_wakeups", "suspect_samples", "health_samples",
                     "bg_grade_histogram", "mode", "degraded_entries",
                     "safe_entries"):
            assert getattr(replayed, attr) == getattr(live, attr), attr
        assert list(replayed._suspects) == list(live._suspects)
        assert replayed._suspects.count == live._suspects.count == 6
        assert replayed.sensor_anomalies() == live.sensor_anomalies()
        for replay_task, live_task in zip(replay_tasks, live_tasks):
            replay_p = replay_task.predictor
            live_p = live_task.predictor
            for attr in ("stale_samples", "zero_delta_samples",
                         "rejected_samples", "segments_completed",
                         "hold_penalty_updates"):
                assert getattr(replay_p, attr) == getattr(live_p, attr), attr
            assert replay_p._alpha_ma.value == live_p._alpha_ma.value
            assert replay_p._rate_ma.value == live_p._rate_ma.value
            assert (replay_p.expected_penalties()
                    == live_p.expected_penalties())
            assert (replay_task.midpoint_prediction
                    == live_task.midpoint_prediction)
            assert replay_task.midpoint_prediction is not None
        assert sum(t.predictor.stale_samples for t in live_tasks) == 2
        assert sum(t.predictor.zero_delta_samples for t in live_tasks) == 2
        assert sum(t.predictor.rejected_samples for t in live_tasks) == 2
        assert replayed.sample_budget() == live.sample_budget() == 0


def _fold_state(runtime):
    """Everything a fold of samples leaves behind, task by task."""
    tasks = []
    for task in runtime.tasks:
        p = task.predictor
        tasks.append((
            p._last_t, p._last_progress, p._segment_index,
            p._segment_entry_t, p._alpha_ma.value, p._rate_ma.value,
            list(p._measured), p.stale_samples, p.zero_delta_samples,
            p.rejected_samples, p.hold_penalty_updates,
            task.midpoint_prediction,
        ))
    fine = runtime.fine_controller
    return (
        tasks, runtime.invocations, runtime._sample_count, runtime.mode,
        list(runtime._suspects), runtime._suspects.count,
        runtime._failures_counted, runtime._last_wakeup_s,
        runtime.sensor_anomalies(), runtime.suspect_samples,
        runtime.health_samples, runtime.degraded_entries,
        runtime.safe_entries, list(runtime.bg_grade_histogram.items()),
        runtime.sample_budget(),
        None if fine is None else list(fine.decisions),
        runtime._sys.actions, dict(runtime._sys.grades),
        dict(runtime._sys.paused),
    )


_READ_KINDS = st.sampled_from(
    [None] * 8 + ["zero", "stale", "outlier", "negative"]
)


class TestFold:
    """A fold of k sample rows against k one-row folds."""

    @staticmethod
    def _runtime():
        system = FakeSystem(pid_to_core={1: 0, 2: 1, 11: 3, 12: 4})
        tasks = [
            ManagedTask(pid=pid, core=pid - 1, profile=profile(),
                        deadline_s=0.06, ema_weight=0.2)
            for pid in (1, 2)
        ]
        runtime = DirigentRuntime(
            system, tasks, [11, 12],
            options=RuntimeOptions(hardening=True, health_window=12),
        )
        runtime.start()
        return runtime

    def test_a_healthy_span_pushes_zero_flags(self):
        # No anomaly, no late wakeup, normal mode below the degraded
        # density: the span's flags are all 0, and old flags leave.
        runtime = self._runtime()
        window = runtime._suspects
        for flag in [1] + [0] * 11:
            window.push(flag)
        period = RuntimeOptions().sampling_period_s
        rows = [(k * period, 2.4e6 * k, 2.5e6 * k) for k in (1, 2, 3)]
        runtime.replay_samples(rows)
        assert list(window) == [0] * 12 and window.count == 0
        assert runtime.health_samples == 3
        assert runtime.suspect_samples == runtime.late_wakeups == 0
        assert runtime.mode == "normal"
        assert runtime._last_wakeup_s == rows[-1][0]

    @settings(max_examples=60, deadline=None)
    @given(
        reads=st.lists(st.tuples(_READ_KINDS, _READ_KINDS),
                       min_size=10, max_size=70),
        gaps=st.lists(st.sampled_from([1.0] * 6 + [1.6, 3.0]),
                      min_size=70, max_size=70),
        spans=st.lists(st.integers(min_value=1, max_value=5),
                       min_size=70, max_size=70),
    )
    def test_a_fold_of_k_rows_equals_k_one_row_folds(
        self, reads, gaps, spans
    ):
        # Stale, zero-delta, outlier, negative and late reads drive the
        # window, so the mode degrades (and reaches safe mode) inside
        # folds, and decisions actuate.  Each fold takes at most what
        # sample_budget() grants (one row once it is 0), as a span
        # kernel does.
        period = RuntimeOptions().sampling_period_s
        counts = [0.0, 0.0]
        now = 0.0
        rows = []
        for k, kinds in enumerate(reads):
            now += gaps[k] * period
            row = [now]
            for i, kind in enumerate(kinds):
                if kind == "zero":
                    value = counts[i]
                elif kind == "stale":
                    value = counts[i] - 5e5
                elif kind == "outlier":
                    value = counts[i] + 1e9
                elif kind == "negative":
                    value = -1e6
                else:
                    counts[i] += 2.4e6 * gaps[k] * (1.0 + 0.05 * i)
                    value = counts[i]
                row.append(value)
            rows.append(tuple(row))

        single = self._runtime()
        for row in rows:
            single.replay_samples([row])
        spanned = self._runtime()
        start = 0
        for span in spans:
            if start == len(rows):
                break
            span = min(span, max(1, spanned.sample_budget()))
            spanned.replay_samples(rows[start:start + span])
            start += span
        assert start == len(rows)
        assert _fold_state(spanned) == _fold_state(single)
