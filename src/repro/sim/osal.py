"""OS/hardware abstraction the Dirigent runtime is written against.

The real Dirigent drives Linux cpufreq, Intel CAT MSRs, performance
counters, SIGSTOP/SIGCONT, and ``sleep``-based timers.  Everything the
runtime needs is captured by :class:`SystemInterface`; the simulator's
:class:`repro.sim.machine.Machine` implements it, and nothing in
``repro.core`` imports simulator internals.  Porting Dirigent to real
hardware means implementing this protocol with syscalls instead.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.sim.counters import CounterSnapshot

WakeupCallback = Callable[[], None]


@runtime_checkable
class SystemInterface(Protocol):
    """Control and observation surface of one multicore node."""

    def now(self) -> float:
        """Current time in seconds."""

    def read_counters(self, core: int) -> CounterSnapshot:
        """Read the cumulative performance counters of ``core``."""

    def read_llc_misses(self, core: int) -> float:
        """Read ``core``'s cumulative LLC load misses alone.

        Equal to ``read_counters(core).llc_misses`` and counted as one
        counter read (a fault-injecting wrapper filters it like one);
        the runtime's per-decision BG intrusiveness needs only this
        field."""

    def num_frequency_grades(self) -> int:
        """Number of available DVFS grades."""

    def frequency_grade(self, core: int) -> int:
        """Requested DVFS grade index of ``core`` (0 = slowest)."""

    def set_frequency_grade(self, core: int, grade: int) -> None:
        """Request ``core`` to run at grade ``grade``."""

    def step_frequency(self, core: int, direction: int) -> bool:
        """Move ``core`` one grade up (+1) or down (-1); False at a limit."""

    def pause(self, pid: int) -> None:
        """Stop a process (SIGSTOP analogue)."""

    def resume(self, pid: int) -> None:
        """Continue a stopped process (SIGCONT analogue)."""

    def is_paused(self, pid: int) -> bool:
        """True when ``pid`` is stopped."""

    def core_of(self, pid: int) -> int:
        """Core the process is pinned to."""

    def llc_ways(self) -> int:
        """Total ways of the last-level cache."""

    def set_fg_partition(self, fg_cores: Iterable[int], fg_ways: int) -> None:
        """Isolate ``fg_ways`` LLC ways for ``fg_cores`` (CAT analogue)."""

    def clear_partitions(self) -> None:
        """Remove all cache isolation."""

    def partition_ways(self, core: int) -> int:
        """LLC ways ``core``'s current way-mask allows it to reach.

        The read-back of :meth:`set_fg_partition` (reading the CAT MSR on
        real hardware): after ``set_fg_partition(cores, w)`` each core in
        ``cores`` reports ``w``.  Hardened controllers verify actuations
        against this instead of trusting the write."""

    def schedule_wakeup(self, delay_s: float, callback: WakeupCallback) -> None:
        """Invoke ``callback`` after ``delay_s`` (jittered sleep analogue)."""

    def cancel_wakeup(self, callback: WakeupCallback) -> None:
        """Drop every pending wakeup of ``callback`` (timer cancel)."""

    def charge_overhead(self, core: int, seconds: float) -> None:
        """Account runtime CPU time stolen from the process on ``core``."""
