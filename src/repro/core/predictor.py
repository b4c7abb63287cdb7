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

from typing import List, Optional, Sequence, Tuple

from repro.core.profile import ExecutionProfile
from repro.core.stats import ExponentialMovingAverage
from repro.errors import ProfileError

#: The paper's EMA weight for both the per-segment penalty average and the
#: within-execution rate-factor average.
DEFAULT_EMA_WEIGHT = 0.2

#: Clamp on per-segment rate factors; guards against degenerate samples
#: (e.g. a timer firing twice in one tick).
ALPHA_CLAMP: Tuple[float, float] = (0.05, 20.0)
_ALPHA_LO, _ALPHA_HI = ALPHA_CLAMP

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
        self._total_progress = profile.total_progress
        self._penalty_ema: List[Optional[float]] = [None] * n
        #: Expected duration of each segment under this task's usual
        #: contention; the penalty EMAs change only in
        #: ``finish_execution``, which refreshes it.
        self._typical = list(self._durations)
        # Per-execution state.
        #: True between start_execution and finish_execution (read it,
        #: don't set it; a plain attribute because the runtime checks it
        #: for every task on every sample).
        self.in_execution = False
        self._start_s = 0.0
        self._last_t = 0.0
        self._last_progress = 0.0
        self._segment_index = 0  # next profile boundary to cross
        self._segment_entry_t = 0.0
        self._alpha_ma = ExponentialMovingAverage(ema_weight)
        self._rate_ma = ExponentialMovingAverage(ema_weight)
        self._measured: List[Optional[float]] = [None] * n
        self._max_profiled_rate = max(s.rate for s in profile.segments)
        self._outlier_rate = self._max_profiled_rate * OUTLIER_RATE_BAND
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
    def segments_completed(self) -> int:
        """Profiled segments fully traversed in the current execution."""
        return self._segment_index

    @property
    def progress_fraction(self) -> float:
        """Fraction of profiled progress completed in this execution."""
        return min(1.0, self._last_progress / self._total_progress)

    def past_midpoint(self) -> bool:
        """True once half the profiled progress is done
        (``progress_fraction >= 0.5``, without the cap at 1)."""
        return self._last_progress / self._total_progress >= 0.5

    def expected_penalties(self) -> List[Optional[float]]:
        """Per-segment smoothed penalties (None until first measured)."""
        return list(self._penalty_ema)

    def start_execution(self, start_s: float) -> None:
        """Begin tracking a new execution that started at ``start_s``."""
        self.in_execution = True
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

        The one-sample case of :meth:`fold`, so a negative progress read
        is left alone (the runtime counts those before they reach the
        predictor).  Crossing profiled segment boundaries is detected
        here; crossing times are interpolated assuming a uniform
        progress rate between samples — the paper's
        fixed-rate-within-segment assumption.
        """
        self.fold(((time_s, progress),))

    def fold(
        self,
        rows: Sequence[Sequence[float]],
        column: int = 1,
        base: float = 0.0,
        start: int = 0,
        midpoint: bool = False,
    ) -> int:
        """Observe samples ``start``, ``start + 1``, ... in order.

        Sample ``j`` is a counter read at ``rows[j][0]`` showing
        ``rows[j][column] - base`` progress (cumulative since the
        execution started).  The fold stops early and returns the
        sample's index at a sample the caller has to look at:

        * one whose progress is not ``>= 0``: left unobserved (the
          runtime counts it as a negative progress read);
        * one the predictor ignores, after counting it: a stale or
          duplicate read (timer coalescing), a zero-delta read, or a
          read rejected by the outlier band;
        * with ``midpoint``, the first one after which
          :meth:`past_midpoint` holds.

        Returns ``len(rows)`` when every sample was observed.
        """
        if not self.in_execution:
            raise ProfileError("observe() outside an execution")
        last_t = self._last_t
        last_progress = self._last_progress
        bounds = self._bounds
        num_bounds = len(bounds)
        index = self._segment_index
        entry_t = self._segment_entry_t
        reject = self.reject_outliers
        outlier_rate = self._outlier_rate
        total = self._total_progress
        close = self._close_segment
        end = len(rows)
        j = start
        while j < end:
            row = rows[j]
            time_s = row[0]
            value = row[column] - base
            if not value >= 0:
                break
            if time_s < last_t or value < last_progress:
                # Stale or duplicate sample (timer coalescing); ignore.
                self.stale_samples += 1
                break
            delta_p = value - last_progress
            if delta_p <= 0:
                self.zero_delta_samples += 1
                last_t = time_s
                break
            if reject:
                # Same-timestamp samples (timer coalescing) carry no
                # rate information and are handled by the rate==0 path
                # below.
                dt = time_s - last_t
                if dt > 0.0 and delta_p > outlier_rate * dt:
                    # Corrupt counter read: drop it without advancing
                    # the sample cursor, so the next honest read
                    # supersedes it.
                    self.rejected_samples += 1
                    break
            rate = delta_p / (time_s - last_t) if time_s > last_t else 0.0
            while index < num_bounds and value >= bounds[index]:
                if rate > 0:
                    cross_t = last_t + (bounds[index] - last_progress) / rate
                else:
                    cross_t = time_s
                close(index, cross_t - entry_t)
                index += 1
                entry_t = cross_t
            last_t = time_s
            last_progress = value
            if midpoint and last_progress / total >= 0.5:
                break
            j += 1
        self._segment_index = index
        self._segment_entry_t = entry_t
        self._last_t = last_t
        self._last_progress = last_progress
        return j

    def predict(self, now_s: float) -> float:
        """Predicted *total* execution time of the current execution.

        Combines elapsed time, the remainder of the in-flight segment, and
        Equation 2's projection over the segments not yet entered.
        """
        if not self.in_execution:
            raise ProfileError("predict() outside an execution")
        elapsed = now_s - self._start_s
        k = self._segment_index
        n = len(self._bounds)
        if k >= n:
            # Past the profiled program (input jitter); completion imminent.
            return elapsed
        # Remaining fraction of the in-flight segment, clamped to [0, 1]
        # (comparisons pass NaN through as min(max(...)) does).
        seg_start = self._bounds[k - 1] if k > 0 else 0.0
        frac_done = (self._last_progress - seg_start) / self._progress[k]
        if frac_done < 0.0:
            frac_done = 0.0
        elif frac_done > 1.0:
            frac_done = 1.0
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
        if not self.in_execution:
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
                self._close_segment(i, cursor - self._segment_entry_t)
                self._segment_entry_t = cursor
        # While sensing is degraded the measured durations reflect
        # corrupted samples, so the cross-execution penalty history stays
        # frozen at its last healthy values.
        if not self.hold_penalty_updates:
            w = self._weight
            emas = self._penalty_ema
            for i, (measured, base) in enumerate(
                zip(self._measured, self._durations)
            ):
                if measured is None:
                    continue
                penalty = measured - base
                prior = emas[i]
                emas[i] = (
                    penalty if prior is None
                    else w * penalty + (1.0 - w) * prior
                )
        # Each segment's expected duration under this task's usual
        # contention: the profiled one shifted by its penalty EMA, at
        # least ALPHA_CLAMP[0] of it (``max(low, shifted)`` as a
        # conditional: this runs for every segment of every execution).
        typical = []
        for base, penalty in zip(self._durations, self._penalty_ema):
            if penalty is not None:
                low = base * _ALPHA_LO
                shifted = base + penalty
                base = shifted if shifted > low else low
            typical.append(base)
        self._typical = typical
        self.in_execution = False

    def _close_segment(self, index: int, duration: float) -> None:
        """Fold segment ``index``, traversed in ``duration``, into the
        rate-factor averages (clamps and EMA updates inline: this runs
        for every boundary crossed)."""
        profiled = self._durations[index]
        alpha = duration / profiled if profiled > 0 else 1.0
        # Comparisons pass NaN through exactly as min(max(...)) does.
        if alpha < _ALPHA_LO:
            alpha = _ALPHA_LO
        elif alpha > _ALPHA_HI:
            alpha = _ALPHA_HI
        w = self._weight
        ema = self._alpha_ma
        prior = ema.value
        ema.value = alpha if prior is None else w * alpha + (1.0 - w) * prior
        measured = alpha * profiled
        self._measured[index] = measured
        expected = self._typical[index]
        if expected > 0:
            rate = measured / expected
            if rate < _ALPHA_LO:
                rate = _ALPHA_LO
            elif rate > _ALPHA_HI:
                rate = _ALPHA_HI
            ema = self._rate_ma
            prior = ema.value
            ema.value = rate if prior is None else w * rate + (1.0 - w) * prior

    def _alpha_duration(self, index: int) -> float:
        """Expected duration of segment ``index`` under ``"alpha"`` scaling."""
        ma = self._alpha_ma.value if self._alpha_ma.initialized else 1.0
        penalty = self._penalty_ema[index]
        if penalty is None:
            # First execution: no penalty history yet; scale the
            # profiled duration by the contention observed so far.
            return ma * self._durations[index]
        return self._durations[index] + ma * penalty
