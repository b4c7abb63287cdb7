"""Virtual clock and jittered timer wheel for the simulator.

The machine advances in fixed ticks.  Timers (used by the Dirigent runtime's
periodic ``sleep``-based sampling) are quantized to tick boundaries and may
fire one tick late with configurable probability, modeling the sleep-timer
error that the paper explicitly corrects for (``dT_i != dT``).
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

TimerCallback = Callable[[], None]


class VirtualClock:
    """Discrete virtual clock counting ticks of fixed length."""

    def __init__(self, tick_s: float) -> None:
        if tick_s <= 0:
            raise SimulationError("tick_s must be positive")
        self.tick_s = tick_s
        #: Current tick index (number of completed ticks).  Public plain
        #: attribute so hot loops (the machine's tick kernel and the batch
        #: engine) read and advance it without property dispatch; treat it
        #: as owned by whichever engine is driving the machine.
        self.tick = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.tick * self.tick_s

    def advance(self) -> None:
        """Advance the clock by one tick."""
        self.tick += 1

    def ticks_for(self, seconds: float) -> int:
        """Number of whole ticks closest to ``seconds`` (at least 1).

        Exact half-tick delays round *up* (``2.5 -> 3``): Python's
        built-in ``round`` uses banker's rounding, under which a timer
        for an exact half-tick delay would silently fire a tick early
        whenever the nearest even count is the lower one.
        """
        if seconds <= 0:
            raise SimulationError("timer delay must be positive")
        return max(1, int(seconds / self.tick_s + 0.5))


class TimerWheel:
    """Min-heap of pending timers with optional one-tick lateness jitter."""

    def __init__(
        self,
        clock: VirtualClock,
        rng: Optional[random.Random] = None,
        jitter_prob: float = 0.0,
    ) -> None:
        self._clock = clock
        self._rng = rng or random.Random(0)
        self._jitter_prob = jitter_prob
        self._heap: List[Tuple[int, int, TimerCallback]] = []
        self._seq = 0
        # (seq, callback) of the timer popped by take(), until requeue().
        self._taken: Optional[Tuple[int, TimerCallback]] = None

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay_s: float, callback: TimerCallback) -> int:
        """Schedule ``callback`` to fire ``delay_s`` from now.

        Returns the tick index at which the timer will actually fire,
        which may be one tick later than requested due to jitter.
        """
        fire_tick = self._clock.tick + self._clock.ticks_for(delay_s)
        if self._jitter_prob > 0 and self._rng.random() < self._jitter_prob:
            fire_tick += 1
        heapq.heappush(self._heap, (fire_tick, self._seq, callback))
        self._seq += 1
        return fire_tick

    def next_deadline(self) -> Optional[int]:
        """Tick index of the earliest pending timer, or None when empty.

        A cheap peek — nothing is popped — used by the batch engine to
        bound its event horizon.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def pending_heap(self) -> List[Tuple[int, int, TimerCallback]]:
        """Live heap of pending timers (stable list).

        Hot-path accessor: callers must treat the returned list as
        read-only; it is mutated in place by :meth:`schedule`,
        :meth:`due`, and :meth:`clear`, so a reference hoisted once
        stays valid for the wheel's lifetime (the machine's tick kernel
        uses it for its is-anything-pending check).
        """
        return self._heap

    def take(self, callback: TimerCallback) -> Optional[int]:
        """Pop the earliest pending timer if it is ``callback``.

        A wrapper made with :func:`functools.wraps` counts as the
        callback it wraps, however deeply nested (tracers wrap timer
        callbacks that way).  Returns the timer's fire tick, or None —
        with nothing popped — when the earliest timer is another one.
        The batch engine uses this to run a periodic callback's
        invocations inside its span kernel; the popped timer must go
        back through :meth:`requeue` before anything else touches the
        wheel.
        """
        heap = self._heap
        if not heap:
            return None
        fire_tick, seq, queued = heap[0]
        fn = queued
        while fn is not callback:
            fn = getattr(fn, "__wrapped__", None)
            if fn is None:
                return None
        heapq.heappop(heap)
        self._taken = (seq, queued)
        return fire_tick

    def requeue(self, fire_tick: int, reschedules: int) -> None:
        """Hand back the timer popped by :meth:`take`.

        ``reschedules`` counts the times the engine ran the callback in
        the meantime, each run rescheduling it once through the
        :meth:`schedule` arithmetic (jitter drawn from this wheel's RNG
        in the same order); ``fire_tick`` is the last of those fire
        ticks.  The timer gets the sequence number the last
        :meth:`schedule` call would have assigned, so timers due on the
        same tick still fire in the order the plain path fires them.
        With ``reschedules == 0`` the timer returns unchanged.
        """
        seq, callback = self._taken
        self._taken = None
        if reschedules:
            self._seq += reschedules
            seq = self._seq - 1
        heapq.heappush(self._heap, (fire_tick, seq, callback))

    def due(self) -> List[TimerCallback]:
        """Pop and return every callback due at the current tick."""
        fired: List[TimerCallback] = []
        now = self._clock.tick
        while self._heap and self._heap[0][0] <= now:
            __, __, callback = heapq.heappop(self._heap)
            fired.append(callback)
        return fired

    def clear(self) -> None:
        """Drop all pending timers."""
        self._heap.clear()


def derive_rng(seed: int, stream: str) -> random.Random:
    """Return a deterministic RNG for a named sub-stream of ``seed``.

    Independent streams keep, e.g., OS jitter reproducible regardless of
    how many timer draws occur, which keeps experiments comparable across
    policies.
    """
    return random.Random("%d/%s" % (seed, stream))
