"""Seeded fault injector and the faulty system interposition layer.

:class:`FaultySystem` implements :class:`repro.sim.osal.SystemInterface`
by delegating to the real machine and consulting a
:class:`FaultInjector` at every sensor and actuator surface the Dirigent
runtime touches.  Only the runtime sees the faulty view; the machine —
and therefore the ground-truth simulation, the completion stream, and
the measured results — stays untouched.  That mirrors the real failure
modes this models: multiplexed counters, lost timer wakeups, and DVFS
writes that silently do not take, all while the workload itself runs on.

Determinism: every draw comes from per-surface streams derived with
:func:`repro.sim.timebase.derive_rng` from the plan's seed, and a draw
happens only when its surface is enabled (rate > 0), in runtime-call
order.  The runtime's call sequence is bit-identical across the scalar
and batch backends, so the fault stream is too.

Fault semantics (all transient — ground truth is preserved):

* **Counter drop** — the read returns the previously returned values
  re-stamped at the current time: one sampling period of zero observed
  progress, after which the next honest read naturally catches up.
* **Counter noise / glitch** — the per-read delta is scaled by a
  lognormal factor (optionally biased) or by :data:`GLITCH_FACTOR`.
  Returned counters stay monotone: an inflated read plateaus until the
  true counters catch up, exactly like a multiplexing extrapolation
  error on real hardware.
* **Wakeup delay / miss** — the scheduled callback fires late by a
  jitter or by a whole sampling period; it is never dropped outright
  (the loop reschedules from inside the callback, as real runtimes do).
* **Actuation failure** — a grade change, frequency step, pause,
  resume, or repartition is silently swallowed.  Read-backs stay
  truthful, so a hardened caller can detect the failure by verifying.
* **Heartbeat loss / duplication** — beats are dropped or doubled in
  delivery (see :meth:`FaultInjector.heartbeat_channel`).
* **Profile corruption** — tail segments truncated and/or durations
  perturbed, while every segment stays structurally valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.profile import ExecutionProfile, ProfileSegment
from repro.faults.plan import GLITCH_FACTOR, FaultPlan
from repro.sim.counters import CounterSnapshot
from repro.sim.osal import SystemInterface, WakeupCallback
from repro.sim.timebase import derive_rng


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault occurrence.

    Attributes:
        time_s: Virtual time of the injection.
        surface: Surface injected at (``counters``, ``wakeup``,
            ``actuation``, ``heartbeat``, ``profile``).
        kind: Specific fault kind (e.g. ``counter-drop``).
        detail: Human-readable context (core, pid, or call).
    """

    time_s: float
    surface: str
    kind: str
    detail: str = ""


class FaultInjector:
    """Draws and accounts for every fault a :class:`FaultPlan` allows."""

    def __init__(self, plan: FaultPlan, seed: Optional[int] = None) -> None:
        self.plan = plan
        self.seed = plan.seed if seed is None else seed
        self._rng_counters = derive_rng(self.seed, "faults/counters")
        self._rng_wakeup = derive_rng(self.seed, "faults/wakeup")
        self._rng_actuation = derive_rng(self.seed, "faults/actuation")
        self._rng_heartbeat = derive_rng(self.seed, "faults/heartbeat")
        self._rng_profile = derive_rng(self.seed, "faults/profile")
        self._last_counters: Dict[int, CounterSnapshot] = {}
        #: Discrete injected-fault events, in injection order.
        self.events: List[FaultEvent] = []
        #: Count per fault kind (includes per-read noise applications,
        #: which are tallied but not logged as discrete events).
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _record(
        self, time_s: float, surface: str, kind: str, detail: str = ""
    ) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.events.append(FaultEvent(time_s, surface, kind, detail))

    def _tally(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def event_signature(self) -> List[tuple]:
        """Hashable rendering of the event stream (determinism tests)."""
        return [
            (e.time_s, e.surface, e.kind, e.detail) for e in self.events
        ]

    # ------------------------------------------------------------------
    # Counter surface
    # ------------------------------------------------------------------

    def filter_counters(
        self, core: int, snap: CounterSnapshot
    ) -> CounterSnapshot:
        """Apply counter faults to one honest read of ``core``."""
        plan = self.plan
        if (
            plan.counter_drop_rate == 0.0
            and plan.counter_noise_sigma == 0.0
            and plan.counter_glitch_rate == 0.0
        ):
            return snap
        rng = self._rng_counters
        last = self._last_counters.get(core)
        if last is None:
            # First observation baselines the core; faults need a delta.
            self._last_counters[core] = snap
            return snap
        if plan.counter_drop_rate > 0 and rng.random() < plan.counter_drop_rate:
            self._record(
                snap.time_s, "counters", "counter-drop", "core=%d" % core
            )
            out = last.with_time(snap.time_s)
            self._last_counters[core] = out
            return out
        factor = 1.0
        if (
            plan.counter_glitch_rate > 0
            and rng.random() < plan.counter_glitch_rate
        ):
            factor *= GLITCH_FACTOR
            self._record(
                snap.time_s, "counters", "counter-glitch", "core=%d" % core
            )
        if plan.counter_noise_sigma > 0:
            factor *= rng.lognormvariate(
                plan.counter_noise_bias, plan.counter_noise_sigma
            )
            self._tally("counter-noise")
        out = CounterSnapshot(
            time_s=snap.time_s,
            instructions=_scaled(last.instructions, snap.instructions, factor),
            cycles=_scaled(last.cycles, snap.cycles, factor),
            llc_accesses=_scaled(last.llc_accesses, snap.llc_accesses, factor),
            llc_misses=_scaled(last.llc_misses, snap.llc_misses, factor),
        )
        self._last_counters[core] = out
        return out

    # ------------------------------------------------------------------
    # Timer surface
    # ------------------------------------------------------------------

    def wakeup_extra_delay(self, now_s: float) -> float:
        """Extra delay to add to one ``schedule_wakeup`` call."""
        plan = self.plan
        extra = 0.0
        if (
            plan.wakeup_delay_rate > 0
            and self._rng_wakeup.random() < plan.wakeup_delay_rate
        ):
            extra += plan.wakeup_delay_s
            self._record(now_s, "wakeup", "wakeup-delay")
        if (
            plan.wakeup_miss_rate > 0
            and self._rng_wakeup.random() < plan.wakeup_miss_rate
        ):
            extra += plan.wakeup_miss_s
            self._record(now_s, "wakeup", "wakeup-miss")
        return extra

    # ------------------------------------------------------------------
    # Actuator surface
    # ------------------------------------------------------------------

    def actuation_dropped(self, now_s: float, call: str) -> bool:
        """True when one actuation call must be silently swallowed."""
        plan = self.plan
        if plan.actuation_fail_rate == 0.0:
            return False
        if self._rng_actuation.random() < plan.actuation_fail_rate:
            self._record(now_s, "actuation", "actuation-fail", call)
            return True
        return False

    # ------------------------------------------------------------------
    # Heartbeat surface
    # ------------------------------------------------------------------

    def heartbeat_channel(self) -> Callable[[int], int]:
        """A lossy/duplicating delivery channel for heartbeats.

        Returns a callable mapping the number of beats the application
        emitted to the number actually delivered, suitable for
        :class:`repro.core.heartbeats.ProcessHeartbeatBridge`'s
        ``channel`` parameter.  Lost beats stay lost (undercounted
        progress); duplicated beats arrive twice (overcounted).
        """
        plan = self.plan
        rng = self._rng_heartbeat

        def channel(new_beats: int) -> int:
            if plan.heartbeat_loss_rate == 0.0 and plan.heartbeat_dup_rate == 0.0:
                return new_beats
            delivered = 0
            for _ in range(new_beats):
                if (
                    plan.heartbeat_loss_rate > 0
                    and rng.random() < plan.heartbeat_loss_rate
                ):
                    self._tally("heartbeat-loss")
                    continue
                delivered += 1
                if (
                    plan.heartbeat_dup_rate > 0
                    and rng.random() < plan.heartbeat_dup_rate
                ):
                    self._tally("heartbeat-dup")
                    delivered += 1
            return delivered

        return channel

    # ------------------------------------------------------------------
    # Profile surface
    # ------------------------------------------------------------------

    def corrupt_profile(self, profile: ExecutionProfile) -> ExecutionProfile:
        """A corrupted copy of ``profile`` per the plan (or the original).

        Truncation cuts tail segments (always keeping at least one);
        noise perturbs segment durations with a lognormal factor.  Every
        surviving segment remains structurally valid, so the predictor
        never crashes on a corrupt profile — it just mispredicts.
        """
        plan = self.plan
        if plan.profile_truncate_segments == 0 and plan.profile_noise_sigma == 0:
            return profile
        segments = list(profile.segments)
        if plan.profile_truncate_segments > 0:
            keep = max(1, len(segments) - plan.profile_truncate_segments)
            cut = len(segments) - keep
            if cut > 0:
                segments = segments[:keep]
                self._record(
                    0.0, "profile", "profile-truncate",
                    "%s: cut %d tail segments" % (profile.workload_name, cut),
                )
        if plan.profile_noise_sigma > 0:
            rng = self._rng_profile
            segments = [
                ProfileSegment(
                    duration_s=s.duration_s
                    * rng.lognormvariate(0.0, plan.profile_noise_sigma),
                    progress=s.progress,
                )
                for s in segments
            ]
            self._record(
                0.0, "profile", "profile-noise", profile.workload_name
            )
        return ExecutionProfile(
            workload_name=profile.workload_name,
            sampling_period_s=profile.sampling_period_s,
            segments=tuple(segments),
        )


def _scaled(last: float, current: float, factor: float) -> float:
    """Scale the delta since the last returned value, staying monotone.

    When a previous inflated read put ``last`` ahead of the truth, the
    returned counter plateaus at ``last`` until the true counter passes
    it — hardware counters never run backwards.
    """
    delta = current - last
    if delta <= 0.0:
        return last
    return last + delta * factor


class FaultySystem:
    """A :class:`SystemInterface` view of a machine with faults injected.

    Only hand this to the component under test (the Dirigent runtime);
    the underlying machine keeps simulating ground truth.  Read-backs
    (``frequency_grade``, ``is_paused``, ``partition_ways``) stay
    truthful — they model reading the actual hardware register, which is
    exactly what makes failed actuations detectable.
    """

    def __init__(
        self, system: SystemInterface, injector: FaultInjector
    ) -> None:
        self._sys = system
        self.injector = injector

    # -- time / counters ------------------------------------------------

    def now(self) -> float:
        return self._sys.now()

    def read_counters(self, core: int) -> CounterSnapshot:
        return self.injector.filter_counters(
            core, self._sys.read_counters(core)
        )

    def read_llc_misses(self, core: int) -> float:
        # One filtered full read: the filter draws from the injector's
        # RNG and keeps the core's last read, whatever field is wanted.
        return self.read_counters(core).llc_misses

    # -- frequency ------------------------------------------------------

    def num_frequency_grades(self) -> int:
        return self._sys.num_frequency_grades()

    def frequency_grade(self, core: int) -> int:
        return self._sys.frequency_grade(core)

    def set_frequency_grade(self, core: int, grade: int) -> None:
        if self.injector.actuation_dropped(
            self._sys.now(), "set-grade:%d:%d" % (core, grade)
        ):
            return
        self._sys.set_frequency_grade(core, grade)

    def step_frequency(self, core: int, direction: int) -> bool:
        if self.injector.actuation_dropped(
            self._sys.now(), "step:%d:%+d" % (core, direction)
        ):
            # Report what the step *would* have returned so control flow
            # in the caller is indistinguishable from a successful call.
            grade = self._sys.frequency_grade(core)
            return 0 <= grade + direction < self._sys.num_frequency_grades()
        return self._sys.step_frequency(core, direction)

    # -- process control ------------------------------------------------

    def pause(self, pid: int) -> None:
        if self.injector.actuation_dropped(
            self._sys.now(), "pause:%d" % pid
        ):
            return
        self._sys.pause(pid)

    def resume(self, pid: int) -> None:
        if self.injector.actuation_dropped(
            self._sys.now(), "resume:%d" % pid
        ):
            return
        self._sys.resume(pid)

    def is_paused(self, pid: int) -> bool:
        return self._sys.is_paused(pid)

    def core_of(self, pid: int) -> int:
        return self._sys.core_of(pid)

    # -- cache ----------------------------------------------------------

    def llc_ways(self) -> int:
        return self._sys.llc_ways()

    def set_fg_partition(self, fg_cores: Iterable[int], fg_ways: int) -> None:
        fg_cores = list(fg_cores)
        if self.injector.actuation_dropped(
            self._sys.now(), "partition:%d" % fg_ways
        ):
            return
        self._sys.set_fg_partition(fg_cores, fg_ways)

    def clear_partitions(self) -> None:
        if self.injector.actuation_dropped(self._sys.now(), "clear-partitions"):
            return
        self._sys.clear_partitions()

    def partition_ways(self, core: int) -> int:
        return self._sys.partition_ways(core)

    # -- timers ---------------------------------------------------------

    def schedule_wakeup(self, delay_s: float, callback: WakeupCallback) -> None:
        extra = self.injector.wakeup_extra_delay(self._sys.now())
        self._sys.schedule_wakeup(delay_s + extra, callback)

    def cancel_wakeup(self, callback: WakeupCallback) -> None:
        self._sys.cancel_wakeup(callback)

    def charge_overhead(self, core: int, seconds: float) -> None:
        self._sys.charge_overhead(core, seconds)
