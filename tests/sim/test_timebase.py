"""Unit tests for repro.sim.timebase."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.timebase import TimerWheel, VirtualClock, derive_rng


class TestVirtualClock:
    def test_starts_at_zero(self):
        clock = VirtualClock(1e-3)
        assert clock.tick == 0
        assert clock.now == 0.0

    def test_advance_increments(self):
        clock = VirtualClock(1e-3)
        clock.advance()
        clock.advance()
        assert clock.tick == 2
        assert clock.now == pytest.approx(2e-3)

    def test_ticks_for_rounds(self):
        clock = VirtualClock(1e-3)
        assert clock.ticks_for(5e-3) == 5
        assert clock.ticks_for(5.4e-3) == 5
        assert clock.ticks_for(5.6e-3) == 6

    def test_ticks_for_rounds_half_up(self):
        # Regression: round() uses banker's rounding, under which an
        # exact half-tick delay (2.5 ticks) fired a timer a tick EARLY
        # whenever the nearest even count was the lower one.
        clock = VirtualClock(1e-3)
        assert clock.ticks_for(2.5e-3) == 3
        assert clock.ticks_for(4.5e-3) == 5
        assert clock.ticks_for(3.5e-3) == 4

    def test_ticks_for_minimum_one(self):
        clock = VirtualClock(1e-3)
        assert clock.ticks_for(1e-7) == 1

    def test_ticks_for_rejects_nonpositive(self):
        clock = VirtualClock(1e-3)
        with pytest.raises(SimulationError):
            clock.ticks_for(0.0)

    def test_invalid_tick_length_rejected(self):
        with pytest.raises(SimulationError):
            VirtualClock(0.0)


class TestTimerWheel:
    def _wheel(self, jitter=0.0):
        clock = VirtualClock(1e-3)
        return clock, TimerWheel(clock, random.Random(1), jitter_prob=jitter)

    def test_timer_fires_at_requested_tick(self):
        clock, wheel = self._wheel()
        fired = []
        wheel.schedule(3e-3, lambda: fired.append(clock.tick))
        for _ in range(5):
            for cb in wheel.due():
                cb()
            clock.advance()
        assert fired == [3]

    def test_timer_not_due_early(self):
        clock, wheel = self._wheel()
        wheel.schedule(2e-3, lambda: None)
        assert wheel.due() == []
        clock.advance()
        assert wheel.due() == []

    def test_multiple_timers_fifo_within_tick(self):
        clock, wheel = self._wheel()
        order = []
        wheel.schedule(1e-3, lambda: order.append("a"))
        wheel.schedule(1e-3, lambda: order.append("b"))
        clock.advance()
        for cb in wheel.due():
            cb()
        assert order == ["a", "b"]

    def test_due_pops_timers(self):
        clock, wheel = self._wheel()
        wheel.schedule(1e-3, lambda: None)
        clock.advance()
        assert len(wheel.due()) == 1
        assert wheel.due() == []

    def test_len_counts_pending(self):
        clock, wheel = self._wheel()
        wheel.schedule(1e-3, lambda: None)
        wheel.schedule(2e-3, lambda: None)
        assert len(wheel) == 2

    def test_clear_drops_all(self):
        clock, wheel = self._wheel()
        wheel.schedule(1e-3, lambda: None)
        wheel.clear()
        assert len(wheel) == 0

    def test_take_matches_any_binding_of_the_same_method(self):
        class Owner:
            def wake(self):
                pass

            def other(self):
                pass

        owner = Owner()
        clock, wheel = self._wheel()
        wheel.schedule(1e-3, owner.wake)
        assert wheel.take(owner.other) is None
        assert wheel.take(Owner().wake) is None
        assert wheel.take(owner.wake) == 1  # a fresh binding
        wheel.requeue(1, 0)
        assert len(wheel) == 1

    def test_cancel_drops_only_that_callback_and_keeps_order(self):
        import functools

        class Owner:
            def wake(self):
                order.append("wake")

        owner = Owner()
        order = []
        clock, wheel = self._wheel()
        wheel.schedule(1e-3, lambda: order.append("a"))
        wheel.schedule(1e-3, owner.wake)
        wheel.schedule(1e-3, functools.wraps(owner.wake)(lambda: None))
        wheel.schedule(1e-3, lambda: order.append("b"))
        wheel.schedule(2e-3, owner.wake)
        heap = wheel.pending_heap()
        wheel.cancel(owner.wake)
        assert len(wheel) == 2
        assert wheel.pending_heap() is heap
        clock.advance()
        for cb in wheel.due():
            cb()
        assert order == ["a", "b"]

    def test_jitter_delays_by_at_most_one_tick(self):
        clock = VirtualClock(1e-3)
        wheel = TimerWheel(clock, random.Random(7), jitter_prob=1.0)
        fire_tick = wheel.schedule(5e-3, lambda: None)
        assert fire_tick == 6  # always one tick late at probability 1

    def test_no_jitter_when_probability_zero(self):
        clock, wheel = self._wheel(jitter=0.0)
        assert wheel.schedule(5e-3, lambda: None) == 5

    def test_jitter_statistics(self):
        clock = VirtualClock(1e-3)
        wheel = TimerWheel(clock, random.Random(3), jitter_prob=0.2)
        late = sum(
            1 for _ in range(1000) if wheel.schedule(5e-3, lambda: None) == 6
        )
        assert 120 < late < 280  # ~20%

    def test_jitter_deterministic_across_reschedules(self):
        # Two identically seeded wheels must draw the same jitter for
        # the same schedule sequence, even when timers fire and are
        # rescheduled from inside their own callbacks (the runtime's
        # periodic sampling pattern).
        def run(seed):
            clock = VirtualClock(1e-3)
            wheel = TimerWheel(clock, random.Random(seed), jitter_prob=0.5)
            fired = []

            def periodic():
                fired.append(clock.tick)
                wheel.schedule(4e-3, periodic)

            wheel.schedule(4e-3, periodic)
            for _ in range(100):
                for cb in wheel.due():
                    cb()
                clock.advance()
            return fired

        first = run(seed=9)
        assert len(first) > 10
        assert first == run(seed=9)
        assert any(b - a == 5 for a, b in zip(first, first[1:]))  # jittered
        assert any(b - a == 4 for a, b in zip(first, first[1:]))  # on time

    def test_next_deadline_peeks_earliest(self):
        clock, wheel = self._wheel()
        assert wheel.next_deadline() is None
        wheel.schedule(5e-3, lambda: None)
        wheel.schedule(2e-3, lambda: None)
        assert wheel.next_deadline() == 2
        assert len(wheel) == 2  # peek pops nothing
        clock.advance()
        clock.advance()
        wheel.due()
        assert wheel.next_deadline() == 5

    def test_pending_heap_is_stable(self):
        clock, wheel = self._wheel()
        heap = wheel.pending_heap()
        assert heap == []
        wheel.schedule(1e-3, lambda: None)
        assert len(heap) == 1  # same list object, mutated in place
        clock.advance()
        wheel.due()
        assert heap == []
        wheel.schedule(1e-3, lambda: None)
        wheel.clear()
        assert heap == []
        assert wheel.pending_heap() is heap


class TestDeriveRng:
    def test_deterministic(self):
        assert derive_rng(1, "a").random() == derive_rng(1, "a").random()

    def test_streams_independent(self):
        assert derive_rng(1, "a").random() != derive_rng(1, "b").random()

    def test_seeds_independent(self):
        assert derive_rng(1, "a").random() != derive_rng(2, "a").random()
