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
from typing import Callable, Deque, Dict, List, Optional, Sequence

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
        record_predictions: Capture one midpoint prediction per execution
            (used by the accuracy experiments, Figures 6 and 7).
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
    record_predictions: bool = True
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
        self._bg_pids = list(bg_pids)
        # ``(pid, core)`` per BG task, resolved once: a process's core is
        # fixed at spawn and the fault wrappers pass ``core_of`` through.
        self._bg_cores = [
            (pid, system.core_of(pid)) for pid in self._bg_pids
        ]
        self._opts = options or RuntimeOptions()
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
        # The wakeup callback, bound once: a stable object the simulator
        # can recognize on its timer wheel (see attach_sampler).
        self._wakeup = self._on_wakeup
        self._sample_count = 0
        self._decisions_at_last_coarse = 0
        self._bg_miss_base: Dict[int, float] = {}
        #: Histogram of BG core DVFS grades observed at each sample
        #: (paused cores are excluded), for Figure 12.
        self.bg_grade_histogram: Dict[int, int] = {}
        self.invocations = 0
        # Health-monitor state (see _update_health).
        self._suspects: Deque[int] = deque(maxlen=self._opts.health_window)
        self._anomaly_base = 0
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
            self._bg_miss_base[pid] = self._sys.read_counters(core).llc_misses
        self._last_wakeup_s = now
        self._sys.schedule_wakeup(self._opts.sampling_period_s, self._wakeup)
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
        """Stop scheduling further wakeups."""
        self._running = False

    # ------------------------------------------------------------------
    # Periodic sampling
    # ------------------------------------------------------------------

    def _on_wakeup(self) -> None:
        if not self._running:
            return
        self._sys.charge_overhead(
            self._pinned_core, self._opts.invocation_overhead_s
        )
        now = self._sys.now()
        self._sample(now, None)
        at_decision = self._sample_count % self._opts.decision_every == 0
        if self.mode == "safe":
            # Decisions are suspended under the static safe policy; just
            # re-assert it against drift (a faulty actuator may have
            # silently dropped the original writes).
            if at_decision:
                self._assert_safe_policy()
        elif self._fine is not None and at_decision:
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

        self._sys.schedule_wakeup(self._opts.sampling_period_s, self._wakeup)

    def _sample(self, now: float, replayed: Optional[Sequence[float]]) -> None:
        """One wakeup's sampling: observe progress, grade BG, check health.

        ``replayed`` is None to read each task's counters live, or a
        sample the simulator buffered while taking the wakeup inside its
        span kernel: ``(time_s, instructions of each task in task
        order)`` (see :meth:`replay_samples`, which grades BG once for
        all the samples it replays).
        """
        self.invocations += 1
        for index, task in enumerate(self._tasks, 1):
            if replayed is None:
                snap = self._sys.read_counters(task.core)
                time_s = snap.time_s
                instructions = snap.instructions
            else:
                time_s = now
                instructions = replayed[index]
            if task.progress_fn is not None:
                progress = task.progress_fn()
            else:
                progress = instructions - task.instruction_base
            if progress < 0:
                self.negative_progress_samples += 1
            if progress >= 0 and task.predictor.in_execution:
                task.predictor.observe(time_s, progress)
                if (
                    self._opts.record_predictions
                    and task.midpoint_prediction is None
                    and task.predictor.progress_fraction >= 0.5
                ):
                    task.midpoint_prediction = task.predictor.predict(now)

        if replayed is None:
            self._record_bg_grades(1)
        self._sample_count += 1
        if self._hardening:
            self._update_health(now)

    # ------------------------------------------------------------------
    # In-kernel sampling (see Machine.attach_sampler)
    # ------------------------------------------------------------------

    @property
    def sample_wakeup(self) -> Callable[[], None]:
        """The callback every sampling wakeup is scheduled with."""
        return self._wakeup

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
        """How many upcoming wakeups provably cannot actuate.

        Those wakeups only sample, so a simulator may take them inside
        its span kernel and replay them through :meth:`replay_samples`.
        A wakeup can actuate when it decides (every ``decision_every``
        samples) or when its health update moves the runtime into or
        out of safe mode.  So the budget is 0 outside "normal" mode, and
        otherwise stops before the next decision and before the suspect
        window could reach the safe threshold even if every sample in
        between were suspect.
        """
        if not self._running or self.mode != "normal":
            return 0
        opts = self._opts
        every = opts.decision_every
        budget = every - 1 - self._sample_count % every
        if self._hardening and budget:
            window = self._suspects.maxlen
            suspects = sum(self._suspects)
            while budget and (
                (suspects + budget) / window >= opts.safe_threshold
            ):
                budget -= 1
        return budget

    def replay_samples(self, samples: Sequence[Sequence[float]]) -> None:
        """Replay wakeups a simulator took inside its span kernel.

        Each sample is ``(time_s, instructions of each task in task
        order)``, read at a wakeup granted by :meth:`sample_budget`; the
        simulator has already charged its overhead and rescheduled the
        next wakeup.  Each runs the very routine a live wakeup runs,
        except the BG-grade histogram: the samples come from one span,
        inside which nothing can pause, resume or re-grade a BG task
        (only timer callbacks and completion listeners actuate, and the
        budget stops before safe mode), so every sample would record the
        same grades.  They are recorded once, weighted by the count.
        """
        self._record_bg_grades(len(samples))
        for sample in samples:
            self._sample(sample[0], sample)

    def _record_bg_grades(self, weight: int) -> None:
        """Count each running BG core's grade ``weight`` times."""
        histogram = self.bg_grade_histogram
        for pid, core in self._bg_cores:
            if self._sys.is_paused(pid):
                continue
            grade = self._sys.frequency_grade(core)
            histogram[grade] = histogram.get(grade, 0) + weight

    # ------------------------------------------------------------------
    # Health monitoring and degraded operation
    # ------------------------------------------------------------------

    def _update_health(self, now: float) -> None:
        """Fold this wakeup's anomaly evidence into the suspect window.

        A wakeup is *suspect* when any sensing or actuation anomaly was
        observed since the previous one: a sample the predictor ignored
        (stale, zero-delta on a hardware-counter task, or rejected as
        physically impossible), a negative progress read, an actuation
        whose verification never passed, or the wakeup itself arriving
        grossly late.  On a healthy machine none of these occur, so the
        window stays empty and the mode never leaves "normal".
        """
        if self._last_wakeup_s is not None:
            late_band = LATE_WAKEUP_FACTOR * self._opts.sampling_period_s
            if now - self._last_wakeup_s > late_band:
                self.late_wakeups += 1
        self._last_wakeup_s = now
        total = self._anomaly_total()
        suspect = 1 if total > self._anomaly_base else 0
        self._anomaly_base = total
        self._suspects.append(suspect)
        self.health_samples += 1
        self.suspect_samples += suspect
        if len(self._suspects) == self._suspects.maxlen:
            self._evaluate_mode(now)

    def _anomaly_total(self) -> int:
        total = self.negative_progress_samples + self.late_wakeups
        for task in self._tasks:
            predictor = task.predictor
            total += predictor.stale_samples + predictor.rejected_samples
            if task.progress_fn is None:
                # Zero-delta is anomalous only for hardware counters (a
                # running core always retires instructions); heartbeat
                # progress legitimately stalls between beats.
                total += predictor.zero_delta_samples
        if self.guarded is not None:
            total += self.guarded.actuations_failed
        return total

    def _evaluate_mode(self, now: float) -> None:
        rate = sum(self._suspects) / len(self._suspects)
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
        for pid, core in self._bg_cores:
            misses = self._sys.read_counters(core).llc_misses
            result[pid] = misses - self._bg_miss_base.get(pid, 0.0)
            self._bg_miss_base[pid] = misses
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
