"""A fake SystemInterface for controller unit tests."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.counters import CounterSnapshot


class FakeSystem:
    """In-memory SystemInterface double recording every action."""

    def __init__(
        self,
        num_cores: int = 6,
        num_grades: int = 5,
        llc_ways: int = 20,
        pid_to_core: Optional[Dict[int, int]] = None,
    ) -> None:
        self._num_cores = num_cores
        self._num_grades = num_grades
        self._llc_ways = llc_ways
        self.time_s = 0.0
        self.grades = {core: num_grades - 1 for core in range(num_cores)}
        self.paused: Dict[int, bool] = {}
        self.pid_to_core = dict(pid_to_core or {})
        self.partition: Optional[Tuple[Tuple[int, ...], int]] = None
        self.partition_calls: List[int] = []
        self.cleared = 0
        self.counters: Dict[int, CounterSnapshot] = {}
        self.wakeups: List[Tuple[float, Callable[[], None]]] = []
        self.overhead: List[Tuple[int, float]] = []
        self.actions: List[str] = []

    # -- time / counters ------------------------------------------------

    def now(self) -> float:
        return self.time_s

    def set_counters(self, core: int, **kwargs) -> None:
        defaults = dict(
            time_s=self.time_s, instructions=0.0, cycles=0.0,
            llc_accesses=0.0, llc_misses=0.0,
        )
        defaults.update(kwargs)
        defaults["time_s"] = self.time_s
        self.counters[core] = CounterSnapshot(**defaults)

    def read_counters(self, core: int) -> CounterSnapshot:
        stored = self.counters.get(core)
        if stored is None:
            return CounterSnapshot(self.time_s, 0.0, 0.0, 0.0, 0.0)
        # Counters are read "now", regardless of when the test staged them.
        return CounterSnapshot(
            self.time_s,
            stored.instructions,
            stored.cycles,
            stored.llc_accesses,
            stored.llc_misses,
        )

    def read_llc_misses(self, core: int) -> float:
        return self.read_counters(core).llc_misses

    # -- frequency ------------------------------------------------------

    def num_frequency_grades(self) -> int:
        return self._num_grades

    def frequency_grade(self, core: int) -> int:
        return self.grades[core]

    def set_frequency_grade(self, core: int, grade: int) -> None:
        assert 0 <= grade < self._num_grades
        self.grades[core] = grade
        self.actions.append("set-grade:%d:%d" % (core, grade))

    def step_frequency(self, core: int, direction: int) -> bool:
        target = self.grades[core] + direction
        if not 0 <= target < self._num_grades:
            return False
        self.grades[core] = target
        self.actions.append("step:%d:%+d" % (core, direction))
        return True

    # -- process control --------------------------------------------------

    def pause(self, pid: int) -> None:
        self.paused[pid] = True
        self.actions.append("pause:%d" % pid)

    def resume(self, pid: int) -> None:
        self.paused[pid] = False
        self.actions.append("resume:%d" % pid)

    def is_paused(self, pid: int) -> bool:
        return self.paused.get(pid, False)

    def core_of(self, pid: int) -> int:
        return self.pid_to_core[pid]

    # -- cache ------------------------------------------------------------

    def llc_ways(self) -> int:
        return self._llc_ways

    def set_fg_partition(self, fg_cores: Iterable[int], fg_ways: int) -> None:
        self.partition = (tuple(fg_cores), fg_ways)
        self.partition_calls.append(fg_ways)
        self.actions.append("partition:%d" % fg_ways)

    def clear_partitions(self) -> None:
        self.partition = None
        self.cleared += 1

    def partition_ways(self, core: int) -> int:
        if self.partition is None:
            return self._llc_ways
        fg_cores, fg_ways = self.partition
        if core in fg_cores:
            return fg_ways
        return self._llc_ways - fg_ways

    # -- timers -----------------------------------------------------------

    def schedule_wakeup(self, delay_s: float, callback) -> None:
        self.wakeups.append((self.time_s + delay_s, callback))

    def cancel_wakeup(self, callback) -> None:
        self.wakeups = [(t, cb) for t, cb in self.wakeups if cb != callback]

    def charge_overhead(self, core: int, seconds: float) -> None:
        self.overhead.append((core, seconds))

    # -- test helpers -------------------------------------------------------

    def fire_next_wakeup(self) -> None:
        """Advance time to the earliest wakeup and run it."""
        assert self.wakeups, "no pending wakeups"
        self.wakeups.sort(key=lambda item: item[0])
        when, callback = self.wakeups.pop(0)
        self.time_s = when
        callback()
