"""Per-core DVFS governor.

Models the Linux ``cpufreq`` userspace governor the paper drives: each core
has an independently settable frequency restricted to the machine's grades,
and a change takes effect a configurable (small) number of ticks after it
is requested.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.config import MachineConfig


class FrequencyGovernor:
    """Tracks requested and effective per-core frequencies."""

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        top = config.num_grades - 1
        self._grade: List[int] = [top] * config.num_cores
        self._pending: List[Tuple[int, int]] = []  # (apply_tick, core) pairs
        self._pending_grade: List[int] = [top] * config.num_cores
        # Effective frequency per core, kept in lock-step with _grade so
        # the machine's tick kernel can index a list instead of paying a
        # method call per core per tick.  The list object is stable.
        top_ghz = config.freq_grades_ghz[top]
        self._freq_ghz: List[float] = [top_ghz] * config.num_cores

    @property
    def grades_ghz(self) -> Tuple[float, ...]:
        """Available frequency grades in GHz, ascending."""
        return self._config.freq_grades_ghz

    def grade(self, core: int) -> int:
        """Effective grade index of ``core``."""
        self._check_core(core)
        return self._grade[core]

    def frequency_ghz(self, core: int) -> float:
        """Effective frequency of ``core`` in GHz."""
        return self.grades_ghz[self.grade(core)]

    def effective_frequencies(self) -> List[float]:
        """Live per-core effective frequencies in GHz (stable list).

        Hot-path accessor: callers must treat the returned list as
        read-only; it is updated in place as pending changes apply.
        """
        return self._freq_ghz

    def set_grade(self, core: int, grade: int, now_tick: int) -> None:
        """Request ``core`` to switch to ``grade``.

        The switch takes effect ``freq_transition_ticks`` later; a request
        equal to the already-pending grade is a no-op.
        """
        self._check_core(core)
        if not 0 <= grade < self._config.num_grades:
            raise ConfigurationError(
                "grade %d out of range [0, %d)" % (grade, self._config.num_grades)
            )
        if grade == self._pending_grade[core]:
            return
        self._pending_grade[core] = grade
        apply_tick = now_tick + self._config.freq_transition_ticks
        self._pending.append((apply_tick, core))

    def set_frequency(self, core: int, freq_ghz: float, now_tick: int) -> None:
        """Request an exact grade frequency for ``core``."""
        self.set_grade(core, self._config.grade_of(freq_ghz), now_tick)

    def step(self, core: int, direction: int, now_tick: int) -> bool:
        """Move ``core`` one grade up (+1) or down (-1).

        Returns True if the grade changed, False if already at the limit.
        """
        if direction not in (-1, 1):
            raise SimulationError("direction must be +1 or -1")
        current = self._pending_grade[core]
        target = current + direction
        if not 0 <= target < self._config.num_grades:
            return False
        self.set_grade(core, target, now_tick)
        return True

    def tick(self, now_tick: int) -> None:
        """Apply any pending frequency changes that are due.

        The pending list is filtered in place so the object returned by
        :meth:`pending_transitions` stays valid across ticks.
        """
        pending = self._pending
        if not pending:
            return
        grades_ghz = self._config.freq_grades_ghz
        keep = 0
        for entry in pending:
            apply_tick, core = entry
            if apply_tick <= now_tick:
                grade = self._pending_grade[core]
                self._grade[core] = grade
                self._freq_ghz[core] = grades_ghz[grade]
            else:
                pending[keep] = entry
                keep += 1
        del pending[keep:]

    def pending_grades(self) -> List[int]:
        """Live per-core requested grades (stable list).

        Hot-path accessor: callers must treat the returned list as
        read-only; it is updated in place as requests arrive.
        """
        return self._pending_grade

    def pending_transitions(self) -> List[Tuple[int, int]]:
        """Live ``(apply_tick, core)`` pairs not yet applied (stable list).

        Hot-path accessor: callers must treat the returned list as
        read-only; it is mutated in place as requests arrive and apply,
        so a reference hoisted once stays valid for the governor's
        lifetime (the machine's tick kernel uses it for its
        anything-pending check).
        """
        return self._pending

    def next_transition_tick(self) -> Optional[int]:
        """Earliest tick at which a pending DVFS change applies, or None.

        Used by the batch engine to bound its event horizon; ticks
        strictly before the returned value cannot observe a frequency
        change.
        """
        pending = self._pending
        if not pending:
            return None
        return min(apply_tick for apply_tick, _ in pending)

    def is_max(self, core: int) -> bool:
        """True when the core's pending grade is the highest."""
        return self._pending_grade[core] == self._config.num_grades - 1

    def is_min(self, core: int) -> bool:
        """True when the core's pending grade is the lowest."""
        return self._pending_grade[core] == 0

    def pending_grade(self, core: int) -> int:
        """Most recently requested grade for ``core``."""
        self._check_core(core)
        return self._pending_grade[core]

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self._config.num_cores:
            raise SimulationError("core %d out of range" % core)
