"""Per-core performance counters, mirroring the MSR events Dirigent reads.

The real runtime samples retired instructions and LLC load misses through
model-specific performance counters.  The simulated machine accumulates the
same events per core; readers get immutable snapshots so stale reads cannot
alias live state.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.errors import SimulationError


class CounterSnapshot(NamedTuple):
    """Cumulative event counts of one core at a point in virtual time.

    An immutable record; a named tuple rather than a frozen dataclass
    because the runtime reads one on every live sample, and a tuple is
    built several times faster.

    Attributes:
        time_s: Virtual time of the snapshot.
        instructions: Retired instructions since machine start.
        cycles: Busy core cycles since machine start.
        llc_accesses: LLC references since machine start.
        llc_misses: LLC load misses since machine start.
    """

    time_s: float
    instructions: float
    cycles: float
    llc_accesses: float
    llc_misses: float

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Return the event deltas between this snapshot and ``earlier``."""
        if earlier.time_s > self.time_s:
            raise SimulationError("delta baseline is newer than snapshot")
        return CounterSnapshot(
            time_s=self.time_s - earlier.time_s,
            instructions=self.instructions - earlier.instructions,
            cycles=self.cycles - earlier.cycles,
            llc_accesses=self.llc_accesses - earlier.llc_accesses,
            llc_misses=self.llc_misses - earlier.llc_misses,
        )

    def with_time(self, time_s: float) -> "CounterSnapshot":
        """This snapshot's counts re-stamped at a different time.

        Used by the fault-injection layer to model a dropped sample: the
        read happens *now* but returns counter values frozen at an
        earlier observation.
        """
        return CounterSnapshot(
            time_s=time_s,
            instructions=self.instructions,
            cycles=self.cycles,
            llc_accesses=self.llc_accesses,
            llc_misses=self.llc_misses,
        )

    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction over the counted window."""
        if self.instructions <= 0:
            return 0.0
        return self.llc_misses / self.instructions * 1000.0


class CounterBank:
    """Mutable accumulator of the counter events for every core."""

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise SimulationError("num_cores must be >= 1")
        self.num_cores = num_cores
        self._instructions: List[float] = [0.0] * num_cores
        self._cycles: List[float] = [0.0] * num_cores
        self._llc_accesses: List[float] = [0.0] * num_cores
        self._llc_misses: List[float] = [0.0] * num_cores

    def record(
        self,
        core: int,
        instructions: float,
        cycles: float,
        llc_accesses: float,
        llc_misses: float,
    ) -> None:
        """Accumulate one tick's worth of events for ``core``."""
        self._check_core(core)
        self._instructions[core] += instructions
        self._cycles[core] += cycles
        self._llc_accesses[core] += llc_accesses
        self._llc_misses[core] += llc_misses

    def hot_arrays(self) -> tuple:
        """Direct references to the per-core accumulator lists.

        Returns ``(instructions, cycles, llc_accesses, llc_misses)``; the
        machine's tick kernel indexes these in place instead of paying a
        :meth:`record` call per core per tick.  The list objects are
        stable for the bank's lifetime.
        """
        return (
            self._instructions,
            self._cycles,
            self._llc_accesses,
            self._llc_misses,
        )

    def snapshot(self, core: int, time_s: float) -> CounterSnapshot:
        """Return an immutable snapshot of ``core``'s counters."""
        self._check_core(core)
        return CounterSnapshot(
            time_s,
            self._instructions[core],
            self._cycles[core],
            self._llc_accesses[core],
            self._llc_misses[core],
        )

    def total_instructions(self, cores) -> float:
        """Sum of retired instructions over an iterable of core ids."""
        return sum(self._instructions[c] for c in cores)

    def total_llc_misses(self, cores) -> float:
        """Sum of LLC misses over an iterable of core ids."""
        return sum(self._llc_misses[c] for c in cores)

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise SimulationError("core %d out of range" % core)
