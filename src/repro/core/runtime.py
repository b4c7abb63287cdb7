"""The Dirigent runtime daemon (Section 4).

Ties profiler output, the online predictor, and the two controllers into
the periodic sampling loop the paper describes: a lightweight thread
pinned to a core shared with a BG task, waking every ``dT = 5 ms`` via a
(jittered) sleep, reading performance counters, updating per-task
completion-time predictions, making a fine time scale control decision
every few segments, and invoking the coarse cache-partition controller
across executions.  Each invocation charges its (<100 us) overhead to the
core the runtime is pinned to.

The runtime only touches the machine through
:class:`repro.sim.osal.SystemInterface`; completion notifications arrive
from the application side (the paper measures task boundaries inside the
FG process via PARSEC's ROI interface) through :meth:`on_fg_completion`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.actuation import GuardedSystem
from repro.core.coarse import CoarseGrainController, ExecutionSample
from repro.core.fine import (
    DEFAULT_AHEAD_MARGIN,
    DEFAULT_DEADLINE_GUARD,
    DEFAULT_PAUSE_MARGIN,
    FgStatus,
    FineGrainController,
)
from repro.core.predictor import CompletionTimePredictor, DEFAULT_EMA_WEIGHT
from repro.core.profile import DEFAULT_SAMPLING_PERIOD_S, ExecutionProfile
from repro.errors import ControlError
from repro.sim.config import degraded_mode_enabled
from repro.sim.osal import SystemInterface

#: A wakeup arriving later than this multiple of the sampling period is
#: counted as a suspect sample.  The simulator's own timer error is at
#: most one tick late (1 ms on the 5 ms default period, a 1.2x gap), so
#: clean runs never cross the band; a missed wakeup (one full period or
#: more) always does.
LATE_WAKEUP_FACTOR = 1.5


@dataclass(frozen=True)
class RuntimeOptions:
    """Tunables of the Dirigent runtime (defaults follow the paper).

    Attributes:
        sampling_period_s: Predictor sampling period ``dT``.
        decision_every: Prediction segments per fine-grain decision.
        ema_weight: Weight of the penalty and rate-factor EMAs.
        predictor_scaling: Equation 2 scaling interpretation
            ("penalty-ratio" or the literal "alpha").
        ahead_margin: Fine controller's ahead threshold (fraction).
        pause_margin: Fine controller's pause threshold (fraction).
        deadline_guard: Safety band below the deadline the controller
            steers toward (sized to the predictor's typical error).
        invocation_overhead_s: CPU time charged to the runtime's core per
            wakeup (measured <100 us on the paper's machine).
        enable_fine: Run the fine time scale controller.
        enable_coarse: Run the coarse cache-partition controller.
        initial_fg_ways: Starting FG partition for coarse control.
        coarse_window: Execution-statistics window of the coarse
            controller.
        coarse_decision_every: FG executions per coarse invocation.
        hardening: Run the graceful-degradation machinery (outlier
            rejection, verified actuation, health monitor).  ``None``
            resolves the ``REPRO_DEGRADED_MODE`` kill switch at
            construction time; hardening is behaviorally invisible on a
            healthy machine either way.
        health_window: Wakeups over which suspect-sample density is
            evaluated.
        degraded_threshold: Suspect density entering degraded mode.
        safe_threshold: Suspect density escalating to the safe policy.
        recover_threshold: Suspect density at or below which a degraded
            or safe runtime steps back toward normal (hysteresis).
        safe_dwell_samples: Minimum wakeups spent in safe mode before
            recovery is considered (prevents oscillation).
        degraded_guard_extra: Widening of the fine controller's
            deadline guard while sensing is degraded.
        actuation_retries: Re-issues of a failed actuation before it is
            counted as failed.
    """

    sampling_period_s: float = DEFAULT_SAMPLING_PERIOD_S
    decision_every: int = 5
    ema_weight: float = DEFAULT_EMA_WEIGHT
    predictor_scaling: str = "penalty-ratio"
    ahead_margin: float = DEFAULT_AHEAD_MARGIN
    pause_margin: float = DEFAULT_PAUSE_MARGIN
    deadline_guard: float = DEFAULT_DEADLINE_GUARD
    invocation_overhead_s: float = 100e-6
    enable_fine: bool = True
    enable_coarse: bool = True
    initial_fg_ways: int = 2
    coarse_window: int = 10
    coarse_decision_every: int = 7
    hardening: Optional[bool] = None
    health_window: int = 40
    degraded_threshold: float = 0.15
    safe_threshold: float = 0.35
    recover_threshold: float = 0.05
    safe_dwell_samples: int = 100
    degraded_guard_extra: float = 0.05
    actuation_retries: int = 2

    def __post_init__(self) -> None:
        if self.sampling_period_s <= 0:
            raise ControlError("sampling_period_s must be > 0")
        if self.decision_every < 1:
            raise ControlError("decision_every must be >= 1")
        if self.invocation_overhead_s < 0:
            raise ControlError("invocation_overhead_s must be >= 0")
        if self.health_window < 1:
            raise ControlError("health_window must be >= 1")
        for name in ("degraded_threshold", "safe_threshold",
                     "recover_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ControlError("%s must be in [0, 1]" % name)
        if self.safe_threshold < self.degraded_threshold:
            raise ControlError(
                "safe_threshold must be >= degraded_threshold"
            )
        if self.recover_threshold > self.degraded_threshold:
            raise ControlError(
                "recover_threshold must be <= degraded_threshold"
            )
        if self.safe_dwell_samples < 0:
            raise ControlError("safe_dwell_samples must be >= 0")
        if not 0.0 <= self.degraded_guard_extra < 1.0:
            raise ControlError("degraded_guard_extra must be in [0, 1)")
        if self.actuation_retries < 0:
            raise ControlError("actuation_retries must be >= 0")


@dataclass(frozen=True)
class PredictionRecord:
    """Midpoint prediction vs. measured outcome of one execution.

    Attributes:
        execution_index: FG execution number.
        predicted_total_s: Total time predicted at roughly half progress.
        actual_total_s: Measured execution time.
    """

    execution_index: int
    predicted_total_s: float
    actual_total_s: float

    @property
    def relative_error(self) -> float:
        """``|predicted - actual| / actual`` (Equation 3)."""
        return abs(self.predicted_total_s - self.actual_total_s) / self.actual_total_s


class SuspectWindow:
    """The health monitor's last ``size`` suspect flags (1 or 0).

    Keeps the flags' sum as they enter and leave, so the suspect
    density costs no pass over the window on each wakeup.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        #: Sum of the flags in the window.
        self.count = 0
        #: True once the window holds ``size`` flags.
        self.full = False
        self._flags: Deque[int] = deque()

    def __len__(self) -> int:
        return len(self._flags)

    def __iter__(self) -> Iterator[int]:
        return iter(self._flags)

    def push(self, flag: int) -> None:
        """Append one wakeup's flag, dropping the oldest once full."""
        flags = self._flags
        if self.full:
            self.count -= flags.popleft()
        flags.append(flag)
        self.count += flag
        if not self.full:
            self.full = len(flags) == self.size

    def push_zeros(self, count: int) -> None:
        """Append ``count`` zero flags to a full window."""
        flags = self._flags
        for _ in range(count):
            self.count -= flags.popleft()
            flags.append(0)

    def clear(self) -> None:
        """Empty the window."""
        self._flags.clear()
        self.count = 0
        self.full = False


class ManagedTask:
    """Per-FG-task runtime state.

    Args:
        pid: Process id of the FG task.
        core: Core the task is pinned to.
        profile: Offline (or online) execution profile.
        deadline_s: Target completion time.
        ema_weight: Predictor EMA weight.
        progress_fn: Optional alternative progress source (e.g. an
            Application Heartbeats bridge) returning progress within the
            current execution; when None, per-core instruction counters
            are used, as in the paper.
    """

    def __init__(
        self,
        pid: int,
        core: int,
        profile: ExecutionProfile,
        deadline_s: float,
        ema_weight: float,
        progress_fn: Optional[Callable[[], float]] = None,
        predictor_scaling: str = "penalty-ratio",
    ) -> None:
        if deadline_s <= 0:
            raise ControlError("deadline must be positive")
        self.pid = pid
        self.core = core
        self.deadline_s = deadline_s
        self.predictor = CompletionTimePredictor(
            profile, ema_weight=ema_weight, scaling=predictor_scaling
        )
        self.progress_fn = progress_fn
        self.instruction_base = 0.0
        self.execution_index = 0
        self.midpoint_prediction: Optional[float] = None
        self.prediction_log: List[PredictionRecord] = []


class DirigentRuntime:
    """The periodic monitoring and control loop."""

    def __init__(
        self,
        system: SystemInterface,
        tasks: Sequence[ManagedTask],
        bg_pids: Sequence[int],
        options: Optional[RuntimeOptions] = None,
    ) -> None:
        if not tasks:
            raise ControlError("DirigentRuntime needs at least one FG task")
        self._sys = system
        self._tasks = list(tasks)
        self._tasks_by_pid = {task.pid: task for task in self._tasks}
        # ``(column, task)``: where each task's count sits in a replayed
        # sample row (see replay_samples).
        self._sample_columns = list(enumerate(self._tasks, 1))
        self._bg_pids = list(bg_pids)
        # ``(pid, core)`` per BG task, resolved once: a process's core is
        # fixed at spawn and the fault wrappers pass ``core_of`` through.
        self._bg_cores = [
            (pid, system.core_of(pid)) for pid in self._bg_pids
        ]
        self._opts = options or RuntimeOptions()
        # A per-sample constant, read once (the options are frozen).
        self._late_band = LATE_WAKEUP_FACTOR * self._opts.sampling_period_s
        # The runtime thread is pinned to a core shared with a BG task.
        self._pinned_core = self._bg_cores[0][1] if self._bg_cores else 0
        # Graceful-degradation machinery.  When hardened, controllers
        # actuate through a GuardedSystem (verify + bounded retry) and
        # predictors reject physically impossible samples; on a healthy
        # machine neither changes behavior, so clean runs stay
        # bit-identical with hardening on or off.
        self._hardening = (
            degraded_mode_enabled()
            if self._opts.hardening is None
            else self._opts.hardening
        )
        self.guarded: Optional[GuardedSystem] = None
        actuator: SystemInterface = system
        if self._hardening:
            self.guarded = GuardedSystem(
                system,
                retries=self._opts.actuation_retries,
                overhead_core=self._pinned_core,
            )
            actuator = self.guarded
        self._act = actuator
        for task in self._tasks:
            task.predictor.reject_outliers = self._hardening
        self._fine: Optional[FineGrainController] = None
        if self._opts.enable_fine:
            self._fine = FineGrainController(
                actuator,
                bg_pids,
                ahead_margin=self._opts.ahead_margin,
                pause_margin=self._opts.pause_margin,
                deadline_guard=self._opts.deadline_guard,
            )
        self._coarse: Optional[CoarseGrainController] = None
        if self._opts.enable_coarse:
            self._coarse = CoarseGrainController(
                actuator,
                fg_cores=[task.core for task in self._tasks],
                initial_fg_ways=self._opts.initial_fg_ways,
                window=self._opts.coarse_window,
                decision_every=self._opts.coarse_decision_every,
            )
        self._running = False
        self._sample_count = 0
        self._decisions_at_last_coarse = 0
        self._bg_miss_base: Dict[int, float] = {}
        #: Histogram of BG core DVFS grades observed at each sample
        #: (paused cores are excluded), for Figure 12.
        self.bg_grade_histogram: Dict[int, int] = {}
        self.invocations = 0
        # Health-monitor state (see _monitor).
        self._suspects = SuspectWindow(self._opts.health_window)
        self._failures_counted = 0
        self._last_wakeup_s: Optional[float] = None
        self._mode_entered_s = 0.0
        self._safe_entered_sample = 0
        #: Current operating mode: "normal", "degraded", or "safe".
        self.mode = "normal"
        #: Progress reads below the execution's instruction base (the
        #: signature of a counter sample frozen across a completion).
        self.negative_progress_samples = 0
        #: Wakeups arriving later than LATE_WAKEUP_FACTOR periods.
        self.late_wakeups = 0
        #: Wakeups flagged suspect by the health monitor.
        self.suspect_samples = 0
        #: Wakeups evaluated by the health monitor.
        self.health_samples = 0
        #: Transitions into degraded and safe mode.
        self.degraded_entries = 0
        self.safe_entries = 0
        self._degraded_time_acc = 0.0
        self._safe_time_acc = 0.0

    @property
    def options(self) -> RuntimeOptions:
        """The runtime's configuration."""
        return self._opts

    @property
    def tasks(self) -> List[ManagedTask]:
        """Managed FG tasks."""
        return list(self._tasks)

    @property
    def fine_controller(self) -> Optional[FineGrainController]:
        """The fine time scale controller, when enabled."""
        return self._fine

    @property
    def coarse_controller(self) -> Optional[CoarseGrainController]:
        """The coarse time scale controller, when enabled."""
        return self._coarse

    @property
    def hardening_enabled(self) -> bool:
        """True when the graceful-degradation machinery is active."""
        return self._hardening

    def degraded_time_s(self, now_s: float) -> float:
        """Total time spent in degraded mode up to ``now_s``."""
        acc = self._degraded_time_acc
        if self.mode == "degraded":
            acc += now_s - self._mode_entered_s
        return acc

    def safe_time_s(self, now_s: float) -> float:
        """Total time spent in the static safe policy up to ``now_s``."""
        acc = self._safe_time_acc
        if self.mode == "safe":
            acc += now_s - self._mode_entered_s
        return acc

    def sensor_anomalies(self) -> Dict[str, int]:
        """Aggregate sensing-anomaly counters across all FG predictors."""
        totals = {
            "stale": 0, "zero_delta": 0, "rejected": 0,
            "negative_progress": self.negative_progress_samples,
            "late_wakeups": self.late_wakeups,
        }
        for task in self._tasks:
            totals["stale"] += task.predictor.stale_samples
            totals["zero_delta"] += task.predictor.zero_delta_samples
            totals["rejected"] += task.predictor.rejected_samples
        return totals

    def start(self) -> None:
        """Begin the sampling loop."""
        if self._running:
            raise ControlError("runtime already started")
        self._running = True
        now = self._sys.now()
        for task in self._tasks:
            task.instruction_base = self._sys.read_counters(
                task.core
            ).instructions
            task.predictor.start_execution(now)
        for pid, core in self._bg_cores:
            self._bg_miss_base[pid] = self._sys.read_llc_misses(core)
        self._last_wakeup_s = now
        self._sys.schedule_wakeup(
            self._opts.sampling_period_s, self._on_wakeup
        )
        # A simulator may take the sample-only wakeups inside its span
        # kernel.  It must be driven directly (a fault-injecting wrapper
        # has no attach_sampler), and every sample must come from
        # hardware counters.
        attach = getattr(self._sys, "attach_sampler", None)
        if attach is not None and all(
            task.progress_fn is None for task in self._tasks
        ):
            attach(self)

    def stop(self) -> None:
        """Stop the sampling loop and drop its queued wakeup."""
        self._running = False
        self._sys.cancel_wakeup(self._on_wakeup)

    # ------------------------------------------------------------------
    # Periodic sampling
    # ------------------------------------------------------------------

    def _on_wakeup(self) -> None:
        if not self._running:
            return
        system = self._sys
        system.charge_overhead(
            self._pinned_core, self._opts.invocation_overhead_s
        )
        now = system.now()
        read = system.read_counters
        reads = []
        for task in self._tasks:
            snap = read(task.core)
            if task.progress_fn is not None:
                reads.append((((snap.time_s, task.progress_fn()),), 1, 0.0))
            else:
                reads.append((((snap.time_s, snap.instructions),), 1,
                              task.instruction_base))
        self._fold((now,), reads)
        system.schedule_wakeup(
            self._opts.sampling_period_s, self._on_wakeup
        )

    def _fold(
        self,
        nows: Sequence[float],
        reads: Sequence[Tuple[Sequence[Sequence[float]], int, float]],
    ) -> None:
        """Fold samples into the runtime, then run the decision tail.

        Every sample goes through here: a live wakeup's as a fold of
        one, the rows a span kernel took as one fold per span
        (:meth:`replay_samples`).  ``nows[j]`` is the time of sample
        ``j``; ``reads`` holds, for each task in task order, ``(rows,
        column, base)``: sample ``j`` read the task's counters at
        ``rows[j][0]`` (a faulty read may be older than the sample),
        and they show ``rows[j][column] - base`` progress (see
        :meth:`CompletionTimePredictor.fold`).

        First task by task: the task's predictor folds its reads in
        order (:meth:`CompletionTimePredictor.fold`), and the runtime
        counts negative progress reads and makes the midpoint
        prediction at the sample that crosses the midpoint.  Then sample
        by sample, the health monitor (:meth:`_monitor`).  Folding task
        by task is the order of one wakeup per sample because a
        sample's observes are independent across tasks, and a mode
        change touches nothing they read.  Last, when the last sample
        completes a decision period, the decision: the safe-policy
        assert, or predictions plus a fine-grain decision.
        """
        count = len(nows)
        # Sample index of every sensing anomaly a read shows.
        marks: List[int] = []
        for task, (rows, column, base) in zip(self._tasks, reads):
            predictor = task.predictor
            if not predictor.in_execution:
                for j, row in enumerate(rows):
                    if row[column] - base < 0:
                        self.negative_progress_samples += 1
                        marks.append(j)
                continue
            midpoint = task.midpoint_prediction is None
            zeros = predictor.zero_delta_samples
            j = predictor.fold(rows, column, base, 0, midpoint)
            while j < count:
                value = rows[j][column] - base
                if value >= 0:
                    if midpoint and predictor.past_midpoint():
                        task.midpoint_prediction = predictor.predict(nows[j])
                        midpoint = False
                    elif (task.progress_fn is None
                          or predictor.zero_delta_samples == zeros):
                        # A read the predictor ignored.  Zero-delta is
                        # anomalous only for hardware counters (a
                        # running core always retires instructions);
                        # heartbeat progress legitimately stalls
                        # between beats.
                        marks.append(j)
                    else:
                        zeros = predictor.zero_delta_samples
                elif value < 0:
                    self.negative_progress_samples += 1
                    marks.append(j)
                j = predictor.fold(rows, column, base, j + 1, midpoint)
        self.invocations += count
        self._sample_count += count
        self._record_bg_grades(count)
        if self._hardening:
            self._monitor(nows, marks)
        if self._sample_count % self._opts.decision_every:
            return
        now = nows[-1]
        if self.mode == "safe":
            # Decisions are suspended under the static safe policy; just
            # re-assert it against drift (a faulty actuator may have
            # silently dropped the original writes).
            self._assert_safe_policy()
        elif self._fine is not None:
            statuses = [
                FgStatus(
                    pid=task.pid,
                    core=task.core,
                    predicted_total_s=task.predictor.predict(now),
                    deadline_s=task.deadline_s,
                )
                for task in self._tasks
                if task.predictor.in_execution
            ]
            if statuses:
                self._fine.decide(statuses, self._bg_intrusiveness())

    def _monitor(self, nows: Sequence[float], marks: List[int]) -> None:
        """Fold the samples just observed into the suspect window.

        ``marks`` holds the sample index of each sensing anomaly the
        fold's reads showed.

        A sample is *suspect* when any sensing or actuation anomaly was
        observed since the previous one: a read the predictor ignored
        (stale, zero-delta on a hardware-counter task, or rejected as
        physically impossible), a negative progress read, an actuation
        whose verification never passed, or the wakeup itself arriving
        grossly late.  On a healthy machine none of these occur, so the
        window holds only zeros and the mode never leaves "normal".
        """
        band = self._late_band
        last = self._last_wakeup_s
        window = self._suspects
        guarded = self.guarded  # present whenever hardened
        counted = self._failures_counted
        if (not marks and guarded.actuations_failed == counted
                and self.mode == "normal" and window.full
                and window.count / window.size
                < self._opts.degraded_threshold):
            # A healthy span: unless a wakeup came late, every flag is
            # 0, so the density cannot rise and the mode stays normal.
            for now in nows:
                if now - last > band:
                    break
                last = now
            else:
                window.push_zeros(len(nows))
                self.health_samples += len(nows)
                self._last_wakeup_s = last
                return
            last = self._last_wakeup_s
        for j, now in enumerate(nows):
            # Actuations that failed since the previous sample closed
            # (decisions, completions, a mode change) count here.
            failed = guarded.actuations_failed
            anomalies = failed - counted
            counted = failed
            if last is not None and now - last > band:
                self.late_wakeups += 1
                anomalies += 1
            last = now
            if marks:
                anomalies += marks.count(j)
            suspect = 1 if anomalies else 0
            window.push(suspect)
            self.health_samples += 1
            self.suspect_samples += suspect
            if window.full:
                self._evaluate_mode(now)
        self._last_wakeup_s = last
        self._failures_counted = counted

    # ------------------------------------------------------------------
    # In-kernel sampling (see Machine.attach_sampler)
    # ------------------------------------------------------------------

    @property
    def sample_wakeup(self) -> Callable[[], None]:
        """The callback every sampling wakeup is scheduled with.

        A fresh binding of :meth:`_on_wakeup` on every access: it
        compares equal to the scheduled ones, and the runtime keeps no
        reference to its own bound method (that would be a reference
        cycle through the runtime).
        """
        return self._on_wakeup

    @property
    def sample_terms(self) -> tuple:
        """``(sampling_period_s, pinned_core, invocation_overhead_s,
        task cores)``: what a sample-only wakeup does to the machine."""
        return (
            self._opts.sampling_period_s,
            self._pinned_core,
            self._opts.invocation_overhead_s,
            tuple(task.core for task in self._tasks),
        )

    def sample_budget(self) -> int:
        """How many upcoming wakeups a simulator may take in its kernel.

        Every wakeup up to the next one that may act, that one
        included.  A wakeup can act when it decides (every
        ``decision_every`` samples) or when its health update moves the
        runtime into or out of safe mode.  So the budget is 0 outside
        "normal" mode; otherwise it ends at the next decision, or at the
        first wakeup whose health update could reach the safe threshold
        even if every sample before it were suspect, whichever comes
        first.  The simulator takes each granted wakeup like a live one
        (overhead charged, counters read, next wakeup scheduled), ends
        its span at the acting one, before that tick runs, and hands
        the rows to :meth:`replay_samples`.
        """
        if not self._running or self.mode != "normal":
            return 0
        opts = self._opts
        every = opts.decision_every
        budget = every - 1 - self._sample_count % every
        if self._hardening and budget:
            window = self._suspects.size
            suspects = self._suspects.count
            while budget and (
                (suspects + budget) / window >= opts.safe_threshold
            ):
                budget -= 1
        return budget + 1

    def replay_samples(self, samples: Sequence[Sequence[float]]) -> None:
        """Fold the wakeups a simulator took inside one span kernel.

        Each sample is ``(time_s, instructions of each task in task
        order)``, read at a wakeup granted by :meth:`sample_budget`; the
        simulator has already charged its overhead and rescheduled the
        next wakeup.  They go through the routine a live wakeup runs
        (:meth:`_fold`), so when the last one is the acting wakeup, its
        decision runs here, at its tick, before the tick's model.  The
        BG-grade histogram is recorded once, weighted by the count:
        inside one span nothing can pause, resume or re-grade a BG task
        (only timer callbacks and completion listeners actuate, and an
        acting wakeup ends the span), so every sample would record the
        same grades.
        """
        self._fold([sample[0] for sample in samples], [
            (samples, column, task.instruction_base)
            for column, task in self._sample_columns
        ])

    def _record_bg_grades(self, weight: int) -> None:
        """Count each running BG core's grade ``weight`` times."""
        histogram = self.bg_grade_histogram
        is_paused = self._sys.is_paused
        grade_of = self._sys.frequency_grade
        for pid, core in self._bg_cores:
            if is_paused(pid):
                continue
            grade = grade_of(core)
            histogram[grade] = histogram.get(grade, 0) + weight

    # ------------------------------------------------------------------
    # Health monitoring and degraded operation
    # ------------------------------------------------------------------

    def _evaluate_mode(self, now: float) -> None:
        window = self._suspects  # full: the density is over all of it
        rate = window.count / window.size
        opts = self._opts
        if self.mode == "normal":
            if rate >= opts.degraded_threshold:
                self._enter_degraded(now)
        elif self.mode == "degraded":
            if rate >= opts.safe_threshold:
                self._enter_safe(now)
            elif rate <= opts.recover_threshold:
                self._exit_degraded(now)
        else:  # safe
            dwelled = (
                self.health_samples - self._safe_entered_sample
                >= opts.safe_dwell_samples
            )
            if dwelled and rate <= opts.recover_threshold:
                self._exit_safe(now)

    def _enter_degraded(self, now: float) -> None:
        self.mode = "degraded"
        self.degraded_entries += 1
        self._mode_entered_s = now
        # Predictions are less trustworthy: steer further from the
        # deadline and stop folding corrupt measurements into the
        # cross-execution penalty history.
        if self._fine is not None:
            self._fine.set_deadline_guard(
                min(
                    0.99,
                    self._opts.deadline_guard
                    + self._opts.degraded_guard_extra,
                )
            )
        for task in self._tasks:
            task.predictor.hold_penalty_updates = True

    def _exit_degraded(self, now: float) -> None:
        self._degraded_time_acc += now - self._mode_entered_s
        self.mode = "normal"
        if self._fine is not None:
            self._fine.set_deadline_guard(self._opts.deadline_guard)
        for task in self._tasks:
            task.predictor.hold_penalty_updates = False

    def _enter_safe(self, now: float) -> None:
        self._degraded_time_acc += now - self._mode_entered_s
        self.mode = "safe"
        self.safe_entries += 1
        self._mode_entered_s = now
        self._safe_entered_sample = self.health_samples
        self._assert_safe_policy()

    def _exit_safe(self, now: float) -> None:
        self._safe_time_acc += now - self._mode_entered_s
        # Step back to degraded (not normal): the guard stays widened
        # and penalty updates held until the window fully clears.
        self.mode = "degraded"
        self._mode_entered_s = now
        for pid in self._bg_pids:
            if self._act.is_paused(pid):
                self._act.resume(pid)

    def _assert_safe_policy(self) -> None:
        """Static safe policy: FG cores at maximum frequency, BG tasks
        paused, last-known-good partition left in place.  Only drifted
        state is re-actuated, so a healthy pass is read-only."""
        max_grade = self._act.num_frequency_grades() - 1
        for task in self._tasks:
            if self._act.frequency_grade(task.core) != max_grade:
                self._act.set_frequency_grade(task.core, max_grade)
        for pid in self._bg_pids:
            if not self._act.is_paused(pid):
                self._act.pause(pid)

    def _bg_intrusiveness(self) -> Dict[int, float]:
        """LLC misses per BG task since the previous decision."""
        result: Dict[int, float] = {}
        read = self._sys.read_llc_misses
        base = self._bg_miss_base
        for pid, core in self._bg_cores:
            misses = read(core)
            result[pid] = misses - base.get(pid, 0.0)
            base[pid] = misses
        return result

    # ------------------------------------------------------------------
    # Application-side notifications
    # ------------------------------------------------------------------

    def on_fg_completion(
        self,
        pid: int,
        end_s: float,
        duration_s: float,
        instructions: float,
        llc_misses: float,
    ) -> None:
        """Handle an FG task-execution boundary reported by the app.

        Finalizes the predictor for the completed execution, logs the
        midpoint prediction, feeds the coarse controller, and starts
        tracking the next execution (tasks run back to back).
        """
        task = self._tasks_by_pid.get(pid)
        if task is None:
            return
        if task.predictor.in_execution:
            task.predictor.finish_execution(end_s)
        if task.midpoint_prediction is not None:
            task.prediction_log.append(
                PredictionRecord(
                    execution_index=task.execution_index,
                    predicted_total_s=task.midpoint_prediction,
                    actual_total_s=duration_s,
                )
            )
        task.midpoint_prediction = None
        task.execution_index += 1
        task.instruction_base += instructions

        if self._coarse is not None and self.mode != "safe":
            recent: Sequence = ()
            if self._fine is not None:
                recent = self._fine.decisions[self._decisions_at_last_coarse:]
            action = self._coarse.on_execution(
                ExecutionSample(
                    duration_s=duration_s,
                    llc_misses=llc_misses,
                    instructions=instructions,
                    missed_deadline=duration_s > task.deadline_s,
                ),
                recent_decisions=recent,
            )
            if action is not None and self._fine is not None:
                self._decisions_at_last_coarse = len(self._fine.decisions)

        if self._running:
            task.predictor.start_execution(end_s)
