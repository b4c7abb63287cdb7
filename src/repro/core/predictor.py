"""Online execution-time predictor (Section 4.2, Equations 1 and 2).

During a contended execution the predictor maps observed progress onto the
offline profile's segment boundaries.  Traversing profiled segment ``i``
in measured time ``T_i`` instead of the profiled ``dT_i`` yields the rate
factor ``alpha_i = T_i / dT_i`` (equivalently, profiled over measured
progress rate) and the time penalty::

    P_i = (alpha_i - 1) * dT_i        (Equation 1)

Penalties are smoothed per segment across executions with an exponential
moving average of weight 0.2.  The completion-time estimate at time ``T``
inside segment ``k`` projects the smoothed penalties of the remaining
segments, scaled by a moving average of the rate factors observed so far
in the *current* execution::

    T_est = T + sum_{i>k} ( MA({alpha}) * Pbar_i + dT_i )     (Equation 2)

The paper reports ~2.4% average midpoint error with these parameters.

Two interpretations of the Equation 2 scaling factor are provided:

* ``"alpha"`` — the literal formula: the remaining penalties are scaled
  by the moving average of the absolute rate factors ``alpha_i``.
* ``"penalty-ratio"`` (default) — the remaining *expected durations*
  ``dT_i + Pbar_i`` are scaled by a moving average of how much this
  execution's measured segment durations deviate from their expectation,
  ``r_j = T_j / (dT_j + Pbar_j)``.  This reads "expected penalty scaling
  factor" as *relative to the task's typical contention* rather than to
  the uncontended profile; it is substantially more accurate when average
  contention is high, and matches the accuracy the paper reports.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.profile import ExecutionProfile
from repro.core.stats import ExponentialMovingAverage
from repro.errors import ProfileError

#: The paper's EMA weight for both the per-segment penalty average and the
#: within-execution rate-factor average.
DEFAULT_EMA_WEIGHT = 0.2

#: Clamp on per-segment rate factors; guards against degenerate samples
#: (e.g. a timer firing twice in one tick).
ALPHA_CLAMP: Tuple[float, float] = (0.05, 20.0)

#: Outlier-rejection band: a progress sample implying an instantaneous
#: rate above ``band * max(profiled segment rates)`` is physically
#: impossible (profiles are measured standalone at maximum frequency, so
#: contention can only slow a task down) and is discarded as a corrupt
#: counter read.  The band absorbs every legitimate excursion — OS
#: jitter (a few percent), rate mixing across a segment boundary
#: (bounded by the max rate), and multi-period catch-up after dropped
#: samples (k consecutive drops look like a (k+1)x rate) — while still
#: catching glitches (32x).  Clean runs never trip it, which is what
#: keeps hardening-on bit-identical to the pre-hardening behavior.
OUTLIER_RATE_BAND = 4.0


class CompletionTimePredictor:
    """Per-FG-task predictor holding cross-execution penalty state."""

    def __init__(
        self,
        profile: ExecutionProfile,
        ema_weight: float = DEFAULT_EMA_WEIGHT,
        scaling: str = "penalty-ratio",
    ) -> None:
        if scaling not in ("penalty-ratio", "alpha"):
            raise ProfileError(
                "scaling must be 'penalty-ratio' or 'alpha', got %r" % scaling
            )
        self._profile = profile
        self._weight = ema_weight
        self._scaling = scaling
        n = profile.num_segments
        self._durations = [s.duration_s for s in profile.segments]
        self._progress = [s.progress for s in profile.segments]
        self._bounds = list(profile.boundaries())
        self._penalty_ema: List[Optional[float]] = [None] * n
        #: ``_typical_duration(i)`` per segment; the penalty EMAs change
        #: only in ``finish_execution``, which refreshes it.
        self._typical = list(self._durations)
        # Per-execution state.
        self._in_execution = False
        self._start_s = 0.0
        self._last_t = 0.0
        self._last_progress = 0.0
        self._segment_index = 0  # next profile boundary to cross
        self._segment_entry_t = 0.0
        self._alpha_ma = ExponentialMovingAverage(ema_weight)
        self._rate_ma = ExponentialMovingAverage(ema_weight)
        self._measured: List[Optional[float]] = [None] * n
        self._max_profiled_rate = max(s.rate for s in profile.segments)
        #: Reject physically impossible progress samples (the hardening
        #: kill switch clears this for the unhardened chaos baseline).
        self.reject_outliers = True
        #: While sensing is degraded the runtime sets this to freeze the
        #: cross-execution penalty EMAs at their last healthy values.
        self.hold_penalty_updates = False
        #: Samples ignored because time or progress regressed.
        self.stale_samples = 0
        #: Samples carrying zero progress over an advanced clock (the
        #: signature of a dropped counter read on a running task).
        self.zero_delta_samples = 0
        #: Samples rejected by the outlier band.
        self.rejected_samples = 0

    @property
    def profile(self) -> ExecutionProfile:
        """The offline profile this predictor projects against."""
        return self._profile

    @property
    def in_execution(self) -> bool:
        """True between start_execution and finish_execution."""
        return self._in_execution

    @property
    def segments_completed(self) -> int:
        """Profiled segments fully traversed in the current execution."""
        return self._segment_index

    @property
    def progress_fraction(self) -> float:
        """Fraction of profiled progress completed in this execution."""
        return min(1.0, self._last_progress / self._profile.total_progress)

    def expected_penalties(self) -> List[Optional[float]]:
        """Per-segment smoothed penalties (None until first measured)."""
        return list(self._penalty_ema)

    def start_execution(self, start_s: float) -> None:
        """Begin tracking a new execution that started at ``start_s``."""
        self._in_execution = True
        self._start_s = start_s
        self._last_t = start_s
        self._last_progress = 0.0
        self._segment_index = 0
        self._segment_entry_t = start_s
        self._alpha_ma.reset()
        self._rate_ma.reset()
        self._measured = [None] * self._profile.num_segments

    def observe(self, time_s: float, progress: float) -> None:
        """Record a progress sample (cumulative instructions since start).

        Crossing profiled segment boundaries is detected here; crossing
        times are interpolated assuming a uniform progress rate between
        samples — the paper's fixed-rate-within-segment assumption.
        """
        if not self._in_execution:
            raise ProfileError("observe() outside an execution")
        if time_s < self._last_t or progress < self._last_progress:
            # Stale or duplicate sample (timer coalescing); ignore.
            self.stale_samples += 1
            return
        delta_p = progress - self._last_progress
        if delta_p <= 0:
            self.zero_delta_samples += 1
            self._last_t = time_s
            return
        if self.reject_outliers:
            # Same-timestamp samples (timer coalescing) carry no rate
            # information and are handled by the rate==0 path below.
            dt = time_s - self._last_t
            limit = self._max_profiled_rate * OUTLIER_RATE_BAND
            if dt > 0.0 and delta_p > limit * dt:
                # Corrupt counter read: drop it without advancing the
                # sample cursor, so the next honest read supersedes it.
                self.rejected_samples += 1
                return
        rate = delta_p / (time_s - self._last_t) if time_s > self._last_t else 0.0
        while (
            self._segment_index < len(self._bounds)
            and progress >= self._bounds[self._segment_index]
        ):
            boundary = self._bounds[self._segment_index]
            if rate > 0:
                cross_t = self._last_t + (boundary - self._last_progress) / rate
            else:
                cross_t = time_s
            self._close_segment(self._segment_index, cross_t)
            self._segment_index += 1
            self._segment_entry_t = cross_t
        self._last_t = time_s
        self._last_progress = progress

    def predict(self, now_s: float) -> float:
        """Predicted *total* execution time of the current execution.

        Combines elapsed time, the remainder of the in-flight segment, and
        Equation 2's projection over the segments not yet entered.
        """
        if not self._in_execution:
            raise ProfileError("predict() outside an execution")
        elapsed = now_s - self._start_s
        k = self._segment_index
        n = self._profile.num_segments
        if k >= n:
            # Past the profiled program (input jitter); completion imminent.
            return elapsed
        # Remaining fraction of the in-flight segment.
        seg_start = self._bounds[k - 1] if k > 0 else 0.0
        frac_done = (self._last_progress - seg_start) / self._progress[k]
        frac_done = min(max(frac_done, 0.0), 1.0)
        if self._scaling == "alpha":
            remaining = (1.0 - frac_done) * self._alpha_duration(k)
            for i in range(k + 1, n):
                remaining += self._alpha_duration(i)
            return elapsed + remaining
        rate = self._rate_ma.value
        if rate is None:
            rate = 1.0
        # Segment by segment, left to right: the float additions happen
        # in exactly this order, so predictions are bit-stable.
        typical = self._typical
        remaining = (1.0 - frac_done) * (rate * typical[k])
        for duration in typical[k + 1:]:
            remaining += rate * duration
        return elapsed + remaining

    def finish_execution(self, end_s: float) -> None:
        """Finalize the execution: close the tail and update penalty EMAs."""
        if not self._in_execution:
            raise ProfileError("finish_execution() outside an execution")
        # Completion means the task reached its full progress, so every
        # profiled segment not yet crossed at the last sample was traversed
        # between that sample and end_s.  Distribute the remaining wall
        # time across them proportionally to their typical durations
        # (uniform-rate assumption within the unobserved tail).
        k = self._segment_index
        n = self._profile.num_segments
        if k < n and end_s > self._segment_entry_t:
            tail = end_s - self._segment_entry_t
            weights = self._typical[k:]
            total_weight = sum(weights)
            cursor = self._segment_entry_t
            for i, weight in zip(range(k, n), weights):
                share = tail * (weight / total_weight) if total_weight > 0 else 0.0
                cursor += share
                self._close_segment(i, cursor)
                self._segment_entry_t = cursor
        for i, measured in enumerate(self._measured):
            if self.hold_penalty_updates:
                # Sensing is degraded: the measured durations reflect
                # corrupted samples, so keep the cross-execution penalty
                # history frozen at its last healthy values.
                break
            if measured is None:
                continue
            penalty = measured - self._durations[i]
            prior = self._penalty_ema[i]
            if prior is None:
                self._penalty_ema[i] = penalty
            else:
                self._penalty_ema[i] = (
                    self._weight * penalty + (1.0 - self._weight) * prior
                )
        self._typical = [self._typical_duration(i) for i in range(n)]
        self._in_execution = False

    def _close_segment(self, index: int, cross_t: float) -> None:
        duration = cross_t - self._segment_entry_t
        profiled = self._durations[index]
        alpha = duration / profiled if profiled > 0 else 1.0
        lo, hi = ALPHA_CLAMP
        alpha = min(max(alpha, lo), hi)
        self._alpha_ma.update(alpha)
        measured = alpha * profiled
        self._measured[index] = measured
        expected = self._typical[index]
        if expected > 0:
            rate = min(max(measured / expected, lo), hi)
            self._rate_ma.update(rate)

    def _typical_duration(self, index: int) -> float:
        """Expected duration of a segment under this task's usual contention."""
        penalty = self._penalty_ema[index]
        base = self._durations[index]
        if penalty is None:
            return base
        return max(base * ALPHA_CLAMP[0], base + penalty)

    def _alpha_duration(self, index: int) -> float:
        """Expected duration of segment ``index`` under ``"alpha"`` scaling."""
        ma = self._alpha_ma.value if self._alpha_ma.initialized else 1.0
        penalty = self._penalty_ema[index]
        if penalty is None:
            # First execution: no penalty history yet; scale the
            # profiled duration by the contention observed so far.
            return ma * self._durations[index]
        return self._durations[index] + ma * penalty
