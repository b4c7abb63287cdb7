"""Fine time scale controller (Section 4.3, "Fine time scale control").

Every few prediction segments the controller compares each FG task's
predicted completion time against its deadline and reallocates frequency
(and, as a last resort, BG task scheduling) to keep the FG on target
while yielding as much as possible to BG tasks:

* FG **ahead** by more than the 2% margin (the predictor's typical error):
  first resume any paused BG tasks, else speed throttled BG cores up one
  DVFS grade, else throttle the FG core itself.
* FG **behind**: raise the FG core to maximum frequency, else throttle BG
  cores one grade; if the FG is more than 10% behind, pause the most
  intrusive running BG task (most LLC load misses — the pause threshold is
  larger because pausing is the most expensive action).
* With several FG tasks of mixed tendencies, BG tasks are driven by the
  slowest FG task and any FG task comfortably ahead is individually
  throttled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.errors import ControlError
from repro.sim.osal import SystemInterface

#: Act only when predicted completion is >2% ahead of the deadline
#: (matches the predictor's typical error, Section 4.3).
DEFAULT_AHEAD_MARGIN = 0.02

#: Pause BG tasks only when well behind the deadline (the paper used 10%
#: and reports insensitivity to the exact value; 8% above the guard
#: target recalibrates it for this substrate's reaction latencies).
DEFAULT_PAUSE_MARGIN = 0.08

#: Safety band below the deadline the controller steers toward; sized to
#: the predictor's typical error so residual mispredictions still land
#: within the deadline (the paper's 2% margin serves the same purpose).
DEFAULT_DEADLINE_GUARD = 0.05


class FgStatus(NamedTuple):
    """Predicted standing of one FG task at a decision point.

    An immutable record (a named tuple: every decision builds one per
    FG task, and a tuple is built several times faster than a frozen
    dataclass).

    Attributes:
        pid: Process id of the FG task.
        core: Core the FG task is pinned to.
        predicted_total_s: Predicted total execution time.
        deadline_s: Target execution time for the task.
    """

    pid: int
    core: int
    predicted_total_s: float
    deadline_s: float

    @property
    def ratio(self) -> float:
        """Predicted completion over deadline (>1 means late)."""
        if self.deadline_s <= 0:
            raise ControlError("deadline must be positive")
        return self.predicted_total_s / self.deadline_s


@dataclass(frozen=True)
class Decision:
    """Record of one controller invocation (used by the coarse controller).

    Attributes:
        time_s: When the decision was made.
        action: Symbolic action taken (e.g. ``"bg-throttle"``).
        worst_ratio: Slowest FG task's predicted/deadline ratio.
        bg_grades: DVFS grade of each BG core after the decision.
        bg_paused: Number of paused BG tasks after the decision.
    """

    time_s: float
    action: str
    worst_ratio: float
    bg_grades: Dict[int, int] = field(default_factory=dict)
    bg_paused: int = 0


class FineGrainController:
    """Implements the paper's fine time scale decision policy."""

    def __init__(
        self,
        system: SystemInterface,
        bg_pids: Sequence[int],
        ahead_margin: float = DEFAULT_AHEAD_MARGIN,
        pause_margin: float = DEFAULT_PAUSE_MARGIN,
        deadline_guard: float = DEFAULT_DEADLINE_GUARD,
    ) -> None:
        if not 0.0 <= ahead_margin < 1.0:
            raise ControlError("ahead_margin must be in [0, 1)")
        if pause_margin < 0.0:
            raise ControlError("pause_margin must be >= 0")
        if not 0.0 <= deadline_guard < 1.0:
            raise ControlError("deadline_guard must be in [0, 1)")
        self._sys = system
        self._bg_pids = list(bg_pids)
        # ``(pid, core)`` per BG task, resolved once: a process's core is
        # fixed at spawn.  Pause state and grades stay live reads.
        self._bg_cores = [
            (pid, system.core_of(pid)) for pid in self._bg_pids
        ]
        self._ahead = ahead_margin
        self._pause = pause_margin
        self._target_ratio = 1.0 - deadline_guard
        self._max_grade = system.num_frequency_grades() - 1
        self.decisions: List[Decision] = []

    @property
    def bg_pids(self) -> List[int]:
        """BG process ids under control."""
        return list(self._bg_pids)

    def set_deadline_guard(self, deadline_guard: float) -> None:
        """Retarget the safety band below the deadline.

        The runtime widens the band while sensing is degraded (predicted
        completion times are less trustworthy, so steer further from the
        deadline) and restores it on recovery.
        """
        if not 0.0 <= deadline_guard < 1.0:
            raise ControlError("deadline_guard must be in [0, 1)")
        self._target_ratio = 1.0 - deadline_guard

    def decide(
        self,
        statuses: Sequence[FgStatus],
        bg_intrusiveness: Optional[Dict[int, float]] = None,
    ) -> Decision:
        """Run one decision round and return its record.

        Args:
            statuses: Predicted standing of every FG task.
            bg_intrusiveness: Recent LLC misses per BG pid; used to pick
                which task to pause.  Missing entries count as zero.
        """
        if not statuses:
            raise ControlError("decide() needs at least one FG status")
        intrusiveness = bg_intrusiveness or {}
        target = self._target_ratio
        ahead_ratio = target - self._ahead
        # Each status's ratio, computed once; ``worst`` is the first
        # maximal one, as ``max(statuses, key=ratio)`` picks it.
        ratios = [status.ratio for status in statuses]
        worst = statuses[0]
        worst_ratio = ratios[0]
        all_ahead = True
        any_behind = False
        for status, ratio in zip(statuses, ratios):
            if ratio > worst_ratio:
                worst = status
                worst_ratio = ratio
            if not ratio < ahead_ratio:
                all_ahead = False
            if ratio > target:
                any_behind = True

        system = self._sys
        if all_ahead:
            action = self._release_resources(statuses)
        elif any_behind:
            behind = [
                status for status, ratio in zip(statuses, ratios)
                if ratio > target
            ]
            action = self._reclaim_resources(
                behind, worst_ratio, intrusiveness
            )
            # FG tasks comfortably ahead yield individually (multi-FG rule).
            for status, ratio in zip(statuses, ratios):
                if status is not worst and ratio < ahead_ratio:
                    if system.step_frequency(status.core, -1):
                        action += "+fg-throttle"
        else:
            action = "none"

        # The record: every BG core's grade and the paused count, read
        # in one pass (read-backs have no side effects).
        time_s = system.now()
        grade_of = system.frequency_grade
        is_paused = system.is_paused
        bg_grades = {}
        paused = 0
        for pid, core in self._bg_cores:
            bg_grades[core] = grade_of(core)
            if is_paused(pid):
                paused += 1
        decision = Decision(time_s, action, worst_ratio, bg_grades, paused)
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Policy branches
    # ------------------------------------------------------------------

    def _release_resources(self, statuses: Sequence[FgStatus]) -> str:
        """FG ahead: give resources back to BG, then throttle FG."""
        is_paused = self._sys.is_paused
        paused = [pid for pid in self._bg_pids if is_paused(pid)]
        if paused:
            for pid in paused:
                self._sys.resume(pid)
            return "bg-resume"
        grade_of = self._sys.frequency_grade
        max_grade = self._max_grade
        throttled = [
            core for _, core in self._bg_cores if grade_of(core) < max_grade
        ]
        if throttled:
            for core in throttled:
                self._sys.step_frequency(core, +1)
            return "bg-speedup"
        stepped = False
        for status in statuses:
            if self._sys.step_frequency(status.core, -1):
                stepped = True
        return "fg-throttle" if stepped else "none"

    def _reclaim_resources(
        self,
        behind: Sequence[FgStatus],
        worst_ratio: float,
        intrusiveness: Dict[int, float],
    ) -> str:
        """FG behind: speed lagging FG tasks up, then squeeze BG."""
        raised = False
        for status in behind:
            if self._sys.frequency_grade(status.core) < self._max_grade:
                self._sys.set_frequency_grade(status.core, self._max_grade)
                raised = True
        if raised:
            return "fg-max"
        is_paused = self._sys.is_paused
        running_bg = [
            (pid, core) for pid, core in self._bg_cores if not is_paused(pid)
        ]
        grade_of = self._sys.frequency_grade
        throttleable = [core for _, core in running_bg if grade_of(core) > 0]
        if throttleable:
            # "Immediately throttle the frequency of the BG tasks": clamp
            # to the minimum grade at once.  Release is gradual (one grade
            # per decision), so the asymmetry protects the deadline.
            for core in throttleable:
                self._sys.set_frequency_grade(core, 0)
            return "bg-throttle"
        if worst_ratio > self._target_ratio + self._pause and running_bg:
            victim, _ = max(
                running_bg, key=lambda bg: intrusiveness.get(bg[0], 0.0)
            )
            self._sys.pause(victim)
            return "bg-pause"
        return "none"
