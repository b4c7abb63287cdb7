"""Unit tests for the completion-time predictor (Equations 1 and 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import ALPHA_CLAMP, CompletionTimePredictor
from repro.core.profile import ExecutionProfile, ProfileSegment
from repro.errors import ProfileError


def uniform_profile(segments=10, duration=0.005, progress=1e7):
    return ExecutionProfile(
        workload_name="synthetic",
        sampling_period_s=duration,
        segments=tuple(
            ProfileSegment(duration_s=duration, progress=progress)
            for _ in range(segments)
        ),
    )


def drive(predictor, slowdown=1.0, sample_period=0.005, rate=None):
    """Simulate one full execution at a uniform slowdown; returns end time.

    Mirrors production semantics: samples are observed strictly before
    completion and the in-flight tail is closed by finish_execution.
    """
    profile = predictor.profile
    total = profile.total_progress
    base_rate = profile.segments[0].rate
    actual_rate = (base_rate / slowdown) if rate is None else rate
    end = total / actual_rate
    predictor.start_execution(0.0)
    t = sample_period
    while t < end:
        predictor.observe(t, actual_rate * t)
        t += sample_period
    predictor.finish_execution(end)
    return end


class TestTracking:
    def test_uncontended_prediction_matches_profile(self):
        predictor = CompletionTimePredictor(uniform_profile())
        predictor.start_execution(0.0)
        rate = predictor.profile.segments[0].rate
        predictor.observe(0.005, rate * 0.005)
        predicted = predictor.predict(0.005)
        assert predicted == pytest.approx(0.05, rel=0.01)

    def test_uniform_slowdown_predicted_first_execution(self):
        # Execution runs 1.5x slower than the profile throughout; after a
        # few segments the predictor should forecast ~1.5x total time.
        predictor = CompletionTimePredictor(uniform_profile())
        predictor.start_execution(0.0)
        rate = predictor.profile.segments[0].rate / 1.5
        t = 0.0
        for _ in range(6):
            t += 0.005
            predictor.observe(t, rate * t)
        assert predictor.predict(t) == pytest.approx(0.075, rel=0.05)

    def test_progress_fraction(self):
        predictor = CompletionTimePredictor(uniform_profile())
        predictor.start_execution(0.0)
        predictor.observe(0.01, predictor.profile.total_progress / 2)
        assert predictor.progress_fraction == pytest.approx(0.5)

    def test_segments_completed_counts_crossings(self):
        predictor = CompletionTimePredictor(uniform_profile(segments=4))
        predictor.start_execution(0.0)
        predictor.observe(0.01, 2.5e7)  # crosses 2 boundaries
        assert predictor.segments_completed == 2


class TestPenaltyLearning:
    def test_penalties_learned_after_one_execution(self):
        predictor = CompletionTimePredictor(uniform_profile())
        drive(predictor, slowdown=2.0)
        penalties = predictor.expected_penalties()
        # Each 5ms profiled segment took 10ms => penalty ~5ms (Equation 1).
        for penalty in penalties:
            assert penalty == pytest.approx(0.005, rel=0.1)

    def test_penalty_ema_weight(self):
        predictor = CompletionTimePredictor(uniform_profile(), ema_weight=0.2)
        drive(predictor, slowdown=2.0)
        first = predictor.expected_penalties()[2]
        drive(predictor, slowdown=1.0)
        second = predictor.expected_penalties()[2]
        # new = 0.2*0 + 0.8*first
        assert second == pytest.approx(0.8 * first, rel=0.15)

    def test_second_execution_prediction_uses_history(self):
        predictor = CompletionTimePredictor(uniform_profile())
        drive(predictor, slowdown=1.6)
        predictor.start_execution(0.0)
        rate = predictor.profile.segments[0].rate / 1.6
        t = 0.0
        for _ in range(3):
            t += 0.005
            predictor.observe(t, rate * t)
        assert predictor.predict(t) == pytest.approx(0.08, rel=0.05)

    def test_speedup_is_also_tracked(self):
        predictor = CompletionTimePredictor(uniform_profile())
        drive(predictor, slowdown=0.8)  # faster than profile
        penalties = predictor.expected_penalties()
        assert all(p < 0 for p in penalties if p is not None)


class TestScalingModes:
    def test_penalty_ratio_converges_at_steady_contention(self):
        predictor = CompletionTimePredictor(
            uniform_profile(), scaling="penalty-ratio"
        )
        for _ in range(4):
            end = drive(predictor, slowdown=1.5)
        predictor.start_execution(0.0)
        rate = predictor.profile.segments[0].rate / 1.5
        t = 0.0
        for _ in range(5):
            t += 0.005
            predictor.observe(t, rate * t)
        assert predictor.predict(t) == pytest.approx(end, rel=0.03)

    def test_alpha_mode_overshoots_at_steady_contention(self):
        # The literal Equation 2 scales the *absolute* penalties by the
        # absolute rate factor, double-counting steady contention; this is
        # the documented reason penalty-ratio is the default.
        predictor = CompletionTimePredictor(uniform_profile(), scaling="alpha")
        for _ in range(4):
            end = drive(predictor, slowdown=1.5)
        predictor.start_execution(0.0)
        rate = predictor.profile.segments[0].rate / 1.5
        t = 0.0
        for _ in range(5):
            t += 0.005
            predictor.observe(t, rate * t)
        predicted = predictor.predict(t)
        assert end < predicted < end * 1.25

    def test_penalty_ratio_handles_contention_shift(self):
        # History at 2.0x slowdown; current execution at 1.0x: the
        # penalty-ratio mode scales typical durations down.
        predictor = CompletionTimePredictor(
            uniform_profile(), scaling="penalty-ratio"
        )
        for _ in range(3):
            drive(predictor, slowdown=2.0)
        predictor.start_execution(0.0)
        rate = predictor.profile.segments[0].rate
        t = 0.0
        for _ in range(5):
            t += 0.005
            predictor.observe(t, rate * t)
        predicted = predictor.predict(t)
        assert predicted < 0.075  # much less than the historical 0.1

    def test_invalid_scaling_rejected(self):
        with pytest.raises(ProfileError):
            CompletionTimePredictor(uniform_profile(), scaling="bogus")


class TestEdgeCases:
    def test_observe_outside_execution_rejected(self):
        predictor = CompletionTimePredictor(uniform_profile())
        with pytest.raises(ProfileError):
            predictor.observe(0.0, 0.0)

    def test_predict_outside_execution_rejected(self):
        predictor = CompletionTimePredictor(uniform_profile())
        with pytest.raises(ProfileError):
            predictor.predict(0.0)

    def test_finish_outside_execution_rejected(self):
        predictor = CompletionTimePredictor(uniform_profile())
        with pytest.raises(ProfileError):
            predictor.finish_execution(0.0)

    def test_stale_sample_ignored(self):
        predictor = CompletionTimePredictor(uniform_profile())
        predictor.start_execution(0.0)
        predictor.observe(0.01, 2e7)
        predictor.observe(0.005, 1e7)  # stale; must not corrupt state
        assert predictor.segments_completed == 2

    def test_zero_progress_sample_ignored(self):
        predictor = CompletionTimePredictor(uniform_profile())
        predictor.start_execution(0.0)
        predictor.observe(0.005, 0.0)
        assert predictor.segments_completed == 0

    def test_progress_past_profile_predicts_elapsed(self):
        predictor = CompletionTimePredictor(uniform_profile(segments=3))
        predictor.start_execution(0.0)
        predictor.observe(0.02, predictor.profile.total_progress * 1.1)
        assert predictor.predict(0.02) == pytest.approx(0.02)

    def test_multiple_boundaries_in_one_sample(self):
        predictor = CompletionTimePredictor(uniform_profile(segments=10))
        predictor.start_execution(0.0)
        predictor.observe(0.01, 4.5e7)  # 4 boundaries at once
        assert predictor.segments_completed == 4

    def test_alpha_clamped(self):
        predictor = CompletionTimePredictor(uniform_profile())
        # This test deliberately feeds a physically impossible rate to
        # exercise the alpha clamp, so bypass the outlier rejection that
        # would otherwise discard the sample before it reaches the clamp.
        predictor.reject_outliers = False
        predictor.start_execution(0.0)
        # Absurdly fast: crosses all boundaries almost instantly.
        predictor.observe(1e-7, predictor.profile.total_progress * 0.99)
        predictor.observe(2e-7, predictor.profile.total_progress)
        predictor.finish_execution(2e-7)
        for penalty in predictor.expected_penalties():
            if penalty is not None:
                implied_alpha = (penalty + 0.005) / 0.005
                assert implied_alpha >= ALPHA_CLAMP[0] - 1e-9

    def test_in_execution_flag(self):
        predictor = CompletionTimePredictor(uniform_profile())
        assert not predictor.in_execution
        predictor.start_execution(0.0)
        assert predictor.in_execution
        drive_end = drive  # silence lint: reuse helper below
        predictor.observe(0.005, 1e7)
        predictor.finish_execution(0.05)
        assert not predictor.in_execution


class TestPropertyBased:
    @given(slowdown=st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_learned_penalty_matches_slowdown(self, slowdown):
        predictor = CompletionTimePredictor(uniform_profile(segments=6))
        drive(predictor, slowdown=slowdown)
        for penalty in predictor.expected_penalties()[:5]:
            assert penalty == pytest.approx((slowdown - 1.0) * 0.005, abs=5e-4)

    @given(
        slowdowns=st.lists(
            st.floats(min_value=0.8, max_value=3.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_prediction_positive_and_finite(self, slowdowns):
        predictor = CompletionTimePredictor(uniform_profile(segments=6))
        for slowdown in slowdowns:
            drive(predictor, slowdown=slowdown)
        predictor.start_execution(0.0)
        predictor.observe(0.005, 1.2e7)
        predicted = predictor.predict(0.005)
        assert 0.0 < predicted < 10.0


class TestSamplingArtifacts:
    def test_same_timestamp_progress_jump(self):
        # Two samples in the same tick (timer coalescing): progress moves
        # but time does not; crossings are assigned to the sample time.
        predictor = CompletionTimePredictor(uniform_profile())
        predictor.start_execution(0.0)
        predictor.observe(0.005, 0.6e7)
        predictor.observe(0.005, 1.4e7)
        assert predictor.segments_completed == 1
        assert predictor.predict(0.005) > 0

    def test_jittered_sample_spacing(self):
        # 5ms nominal period with occasional 6ms gaps (timer lateness):
        # for an on-profile execution the prediction stays at the
        # profiled total regardless of when the samples landed.
        predictor = CompletionTimePredictor(uniform_profile())
        predictor.start_execution(0.0)
        rate = predictor.profile.segments[0].rate
        t = 0.0
        gaps = [0.005, 0.005, 0.005, 0.006]
        i = 0
        while t + gaps[i % 4] < 0.05:
            t += gaps[i % 4]
            i += 1
            predictor.observe(t, rate * t)
        assert predictor.predict(t) == pytest.approx(0.05, rel=0.03)

    def test_progress_regression_ignored(self):
        # A counter glitch reporting lower progress must not corrupt state.
        predictor = CompletionTimePredictor(uniform_profile())
        predictor.start_execution(0.0)
        predictor.observe(0.005, 1.2e7)
        predictor.observe(0.010, 0.9e7)  # regression: ignored
        assert predictor.segments_completed == 1
        predictor.observe(0.015, 2.4e7)
        assert predictor.segments_completed == 2


def reference_predict(predictor, now_s):
    """Equation 2 summed segment by segment, left to right.

    Recomputes every segment's expected duration from the predictor's
    penalty EMAs and profiled durations, in the exact float order of
    the original per-segment formulation: any reordering of the sum
    (``math.fsum``, compensated ``sum()``, suffix sums) shows up as a
    last-bit difference against this reference.
    """
    elapsed = now_s - predictor._start_s
    k = predictor._segment_index
    durations = predictor._durations
    penalties = predictor._penalty_ema
    n = len(durations)
    if k >= n:
        return elapsed
    seg_start = predictor._bounds[k - 1] if k > 0 else 0.0
    frac_done = (predictor._last_progress - seg_start) / predictor._progress[k]
    frac_done = min(max(frac_done, 0.0), 1.0)

    def typical(i):
        penalty = penalties[i]
        if penalty is None:
            return durations[i]
        return max(durations[i] * ALPHA_CLAMP[0], durations[i] + penalty)

    if predictor._scaling == "alpha":
        ma = predictor._alpha_ma.value
        ma = 1.0 if ma is None else ma

        def expected(i):
            penalty = penalties[i]
            if penalty is None:
                return ma * durations[i]
            return durations[i] + ma * penalty
    else:
        rate = predictor._rate_ma.value
        rate = 1.0 if rate is None else rate

        def expected(i):
            return rate * typical(i)

    remaining = (1.0 - frac_done) * expected(k)
    for i in range(k + 1, n):
        remaining += expected(i)
    return elapsed + remaining


@st.composite
def random_profiles(draw):
    count = draw(st.integers(min_value=1, max_value=24))
    segments = tuple(
        ProfileSegment(
            duration_s=draw(st.floats(min_value=1e-4, max_value=2e-2)),
            progress=draw(st.floats(min_value=1e5, max_value=5e7)),
        )
        for _ in range(count)
    )
    return ExecutionProfile(
        workload_name="random", sampling_period_s=0.005, segments=segments
    )


#: One sample event: a kind and the wall-clock step it takes.
SAMPLE_EVENTS = st.tuples(
    st.sampled_from(
        ["sample", "sample", "sample", "stale", "zero", "outlier", "same"]
    ),
    st.floats(min_value=1e-4, max_value=8e-3),
)

EXECUTIONS = st.lists(
    st.tuples(
        st.floats(min_value=0.4, max_value=3.0),  # slowdown vs profile
        st.booleans(),  # hold_penalty_updates
        st.lists(SAMPLE_EVENTS, min_size=1, max_size=40),
    ),
    min_size=1, max_size=5,
)


class TestPredictBitIdentity:
    """``predict`` equals the per-segment reference exactly (``==``)."""

    @given(
        profile=random_profiles(),
        scaling=st.sampled_from(["penalty-ratio", "alpha"]),
        executions=EXECUTIONS,
    )
    @settings(max_examples=80, deadline=None)
    def test_predict_matches_segment_by_segment_sum(
        self, profile, scaling, executions
    ):
        predictor = CompletionTimePredictor(profile, scaling=scaling)
        max_rate = max(s.rate for s in profile.segments)
        t = 0.0
        for slowdown, hold, events in executions:
            predictor.hold_penalty_updates = hold
            predictor.start_execution(t)
            assert predictor.predict(t) == reference_predict(predictor, t)
            rate = max_rate / slowdown
            progress = 0.0
            for kind, step in events:
                if kind == "stale":
                    # Time regresses: ignored as a stale sample.
                    predictor.observe(t - step, progress)
                elif kind == "zero":
                    t += step
                    predictor.observe(t, progress)
                elif kind == "outlier":
                    # Far above the rejection band: dropped without
                    # advancing the sample cursor.
                    predictor.observe(
                        t + step, progress + 10.0 * max_rate * (2 * step)
                    )
                elif kind == "same":
                    # Timer coalescing: progress moves, time does not.
                    progress += rate * step
                    predictor.observe(t, progress)
                else:
                    t += step
                    progress += rate * step
                    predictor.observe(t, progress)
                for now in (t, t + step):
                    assert predictor.predict(now) == reference_predict(
                        predictor, now
                    )
            t += step
            predictor.finish_execution(t)
