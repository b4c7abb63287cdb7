"""Verified actuation with bounded retry (robustness hardening).

Real actuators fail silently: a cpufreq write can race with the
governor, SIGSTOP can be delivered late or lost, and a CAT MSR write can
be dropped by a buggy driver.  The stock controllers trust every write;
under actuation faults they believe resources moved when they did not
and their control history diverges from machine state.

:class:`GuardedSystem` wraps a :class:`~repro.sim.osal.SystemInterface`
and verifies every state-changing call against the hardware read-back
(``frequency_grade``, ``is_paused``, ``partition_ways``), re-issuing the
write up to ``retries`` times.  Each retry charges a small backoff cost
to the runtime's core via ``charge_overhead`` — re-issuing a syscall is
not free.  On a healthy machine every verification passes on the first
attempt, so the wrapper is behaviorally invisible (read-backs are
side-effect-free): clean runs are bit-identical with or without it.

Actuations that exhaust their retries are counted, not raised — the
control loop must keep running on a flaky machine (the runtime's health
monitor uses the failure count as a degradation signal instead).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import ControlError
from repro.sim.osal import SystemInterface, WakeupCallback

#: Re-issues after a failed verification before giving up.
DEFAULT_RETRIES = 2

#: CPU time charged to the runtime's core per re-issued actuation
#: (syscall + read-back, well under the 100 us invocation budget).
DEFAULT_RETRY_OVERHEAD_S = 50e-6


class GuardedSystem:
    """SystemInterface wrapper that verifies writes via read-back.

    Args:
        system: The underlying (possibly faulty) system.
        retries: Re-issues after a failed verification.
        retry_overhead_s: Backoff cost charged per re-issue.
        overhead_core: Core the retry overhead is charged to (the
            runtime thread's core — it is what spins on the retry).
    """

    def __init__(
        self,
        system: SystemInterface,
        retries: int = DEFAULT_RETRIES,
        retry_overhead_s: float = DEFAULT_RETRY_OVERHEAD_S,
        overhead_core: int = 0,
    ) -> None:
        if retries < 0:
            raise ControlError("retries must be >= 0")
        if retry_overhead_s < 0:
            raise ControlError("retry_overhead_s must be >= 0")
        self._sys = system
        self._retries = retries
        self._retry_overhead_s = retry_overhead_s
        self._overhead_core = overhead_core
        # Observation and read-backs pass straight through, bound once:
        # the controllers read them on every decision, and a forwarding
        # method would double the calls.
        self.now = system.now
        self.read_counters = system.read_counters
        self.read_llc_misses = system.read_llc_misses
        self.num_frequency_grades = system.num_frequency_grades
        self.frequency_grade = system.frequency_grade
        self.is_paused = system.is_paused
        self.core_of = system.core_of
        self.llc_ways = system.llc_ways
        self.partition_ways = system.partition_ways
        #: Guarded actuations attempted.
        self.actuations_total = 0
        #: Re-issues after a failed verification.
        self.actuations_retried = 0
        #: Actuations whose verification never passed.
        self.actuations_failed = 0

    # -- verified actuations --------------------------------------------

    def set_frequency_grade(self, core: int, grade: int) -> None:
        self._attempt(
            lambda: self._sys.set_frequency_grade(core, grade),
            lambda: self._sys.frequency_grade(core) == grade,
        )

    def step_frequency(self, core: int, direction: int) -> bool:
        target = self._sys.frequency_grade(core) + direction
        if not 0 <= target < self._sys.num_frequency_grades():
            # At a limit: delegate so the refusal semantics (and any
            # inner bookkeeping) stay exactly those of the raw system.
            return self._sys.step_frequency(core, direction)
        self.actuations_total += 1
        if (
            self._sys.step_frequency(core, direction)
            and self._sys.frequency_grade(core) == target
        ):
            return True
        # Retry with the absolute setter: re-stepping after a write that
        # landed late would overshoot the intended grade.
        for _ in range(self._retries):
            self.actuations_retried += 1
            self._charge_retry()
            self._sys.set_frequency_grade(core, target)
            if self._sys.frequency_grade(core) == target:
                return True
        self.actuations_failed += 1
        return False

    def pause(self, pid: int) -> None:
        self._attempt(
            lambda: self._sys.pause(pid),
            lambda: self._sys.is_paused(pid),
        )

    def resume(self, pid: int) -> None:
        self._attempt(
            lambda: self._sys.resume(pid),
            lambda: not self._sys.is_paused(pid),
        )

    def set_fg_partition(self, fg_cores: Iterable[int], fg_ways: int) -> None:
        cores = tuple(fg_cores)
        self._attempt(
            lambda: self._sys.set_fg_partition(cores, fg_ways),
            lambda: all(
                self._sys.partition_ways(core) == fg_ways for core in cores
            ),
        )

    def clear_partitions(self) -> None:
        # No portable read-back (the interface cannot enumerate cores),
        # and the control loop never calls this; pass through unguarded.
        self._sys.clear_partitions()

    # -- passthrough timing (reads are bound in __init__) ----------------

    def schedule_wakeup(self, delay_s: float, callback: WakeupCallback) -> None:
        self._sys.schedule_wakeup(delay_s, callback)

    def cancel_wakeup(self, callback: WakeupCallback) -> None:
        self._sys.cancel_wakeup(callback)

    def charge_overhead(self, core: int, seconds: float) -> None:
        self._sys.charge_overhead(core, seconds)

    # -- internals ------------------------------------------------------

    def _attempt(
        self, act: Callable[[], None], verify: Callable[[], bool]
    ) -> bool:
        self.actuations_total += 1
        act()
        if verify():
            return True
        for _ in range(self._retries):
            self.actuations_retried += 1
            self._charge_retry()
            act()
            if verify():
                return True
        self.actuations_failed += 1
        return False

    def _charge_retry(self) -> None:
        if self._retry_overhead_s > 0:
            self._sys.charge_overhead(
                self._overhead_core, self._retry_overhead_s
            )
