"""Run-to-next-event batch execution engine for the simulated machine.

The scalar kernel (:meth:`repro.sim.machine.Machine.tick`) pays full
Python dispatch — gather, fixed point, counter writes, timer and
governor checks — for every tick, even across long stretches where
nothing discrete happens.  This module amortizes that overhead the way
batching amortizes per-step cost in inference engines: it computes an
**event horizon** — the earliest tick at which the machine's trajectory
can deviate from straight-line execution — and advances all ticks up to
that horizon in one compiled span kernel
(:mod:`repro.sim.spanplan`).

The horizon is exact — the minimum of:

(a) the timer wheel's next deadline (:meth:`TimerWheel.next_deadline`),
    since firing callbacks can pause/resume processes, change DVFS
    grades, repartition the cache, or charge runtime overhead; and
(b) the governor's next pending DVFS transition
    (:meth:`FrequencyGovernor.next_transition_tick`), since an applied
    grade changes every subsequent tick's frequency inputs.

Phase boundaries and FG completions need no horizon term: inside the
span kernel every tick re-checks, before mutating anything, that each
process is still inside its gathered phase window, and handles FG
completions with exactly the scalar kernel's logic, exiting the span
whenever such an event actually occurs.

One timer is not an event either: the wakeup of a periodic sampler
attached with :meth:`Machine.attach_sampler` (the Dirigent runtime),
while its ``sample_budget()`` grants it and no other event is due at
its tick.  The span kernels take such wakeups themselves — buffer the
counter reads, charge the overhead, draw the next wakeup — and end the
span at the last granted one, the wakeup that may act (a decision).
:meth:`SpanPlan.run` hands the rows back to the sampler, which folds
them and makes that decision at its tick, before the tick runs; so
spans end at decisions and real machine events, and a decision that
shares its tick with another event fires as a timer.

**One fast path, one reference.**  The span kernels perform the same
floating-point operations in the same order as ``Machine.tick`` (see
:mod:`repro.sim.spanplan`).  Every tick they cannot run — an event
tick, a tick where a span made no progress, and the shapes the planner
declines (an idle machine, overlapping cache-mask groups, snap-to-target
occupancy, a lane in a phase without LLC accesses, a substituted jitter
RNG on a machine that draws its own jitter) — goes through
``Machine.tick`` itself.  Equivalence is enforced by
``tests/sim/test_batch_equivalence.py`` and
``tests/sim/test_spanplan.py``.

Backend selection is environment-driven: ``REPRO_SIM_BACKEND=scalar``
pins the reference per-tick loop, ``batch`` (the default) enables this
engine.  :class:`repro.sim.machine.Machine` also accepts an explicit
``backend=`` argument.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.config import ENV_BACKEND, env_backend
from repro.sim.spanplan import SpanPlanner, SpanStats

#: Reference per-tick loop (bit-exact baseline pinned by
#: ``tests/sim/test_machine_perf_equivalence.py``).
BACKEND_SCALAR = "scalar"

#: Run-to-next-event batch engine (this module).
BACKEND_BATCH = "batch"

#: All recognized backends.
BACKENDS = (BACKEND_SCALAR, BACKEND_BATCH)

# ENV_BACKEND (re-exported from repro.sim.config) selects the backend.

#: Backend used when neither the environment nor the caller chooses.
DEFAULT_BACKEND = BACKEND_BATCH


def resolve_backend(override: Optional[str] = None) -> str:
    """Resolve the active simulation backend name.

    Precedence: the explicit ``override`` argument, then the
    ``REPRO_SIM_BACKEND`` environment variable, then
    :data:`DEFAULT_BACKEND`.

    Raises:
        ConfigurationError: if the requested backend is unknown.
    """
    name = override or env_backend() or DEFAULT_BACKEND
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ConfigurationError(
            "unknown simulation backend %r (expected one of %s)"
            % (name, ", ".join(BACKENDS))
        )
    return name


def event_horizon(machine, budget: int) -> int:
    """Ticks ``machine`` can run before its next timer or DVFS change.

    Exact, and capped at ``budget``: 0 when an event is due at the
    current tick.  Phase boundaries and FG completions need no term
    here — every span kernel detects them exactly and stops at them.
    """
    now = machine.clock.tick
    horizon = budget
    deadline = machine.timers.next_deadline()
    if deadline is not None and deadline - now < horizon:
        horizon = deadline - now
    transition = machine.governor.next_transition_tick()
    if transition is not None and transition - now < horizon:
        horizon = transition - now
    return horizon


class BatchEngine:
    """Advances a :class:`~repro.sim.machine.Machine` span-by-span.

    The engine is a friend of the machine: it reads the same hoisted
    hot-path state the scalar kernel uses, plus the public event peeks
    added for it (``timers.next_deadline()``,
    ``governor.next_transition_tick()``, ``clock.tick``).  Spans run in
    the compiled kernels of :mod:`repro.sim.spanplan`; every other tick
    runs in ``Machine.tick``.  The machine owns its engine and passes
    itself to every call, so the engine, its planner and their plans
    hold no reference back to it.
    """

    def __init__(self) -> None:
        #: Fast-path observability counters (see SpanStats).
        self.stats = SpanStats()
        self._planner = SpanPlanner(self.stats)
        # (sampler, wakeup, task cores, (period ticks, pinned core,
        # overhead)) of the attached sampler, resolved once.
        self._terms: Optional[tuple] = None

    def close(self) -> None:
        """Drop the span plans and the attached sampler's terms; the
        counters stay."""
        self._planner.clear()
        self._terms = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_ticks(self, m, ticks: int) -> None:
        """Advance machine ``m`` by ``ticks`` ticks, or to an earlier end
        a completion listener set with :meth:`Machine.end_run_at`."""
        clock = m.clock
        sampler = m._sampler
        m._run_end = clock.tick + ticks
        while True:
            remaining = m._run_end - clock.tick
            if remaining <= 0:
                return
            executed = None
            if sampler is not None:
                executed = self._sampled_span(m, sampler, remaining)
            if executed is None:
                horizon = event_horizon(m, remaining)
                if horizon < 1:
                    # An event is due at the current tick (timer or DVFS
                    # apply): run the start-of-tick preamble by itself,
                    # then re-plan.  The tick itself stays on the span
                    # path: after a decision wakeup, the sampling
                    # kernel's span.  There is no second preamble, so a
                    # timer a callback set for this very tick still
                    # fires in the scalar kernel below, in scalar order.
                    m.dispatch_events()
                    if sampler is not None:
                        executed = self._sampled_span(m, sampler, remaining)
                    if executed is None:
                        horizon = event_horizon(m, remaining)
                if executed is None:
                    executed = (
                        self._dispatch_span(m, horizon) if horizon >= 1
                        else 0
                    )
            if not executed:
                # No span progress (no plan fits this shape, an in-span
                # guard tripped immediately, or a timer callback
                # scheduled work for this same tick): the scalar kernel
                # handles it — it is the semantic reference.
                m.tick()

    # ------------------------------------------------------------------
    # Sample-only wakeups inside the span kernel
    # ------------------------------------------------------------------

    def _sampled_span(self, m, sampler, budget: int) -> Optional[int]:
        """Run one compiled span that takes ``sampler``'s wakeups itself.

        Applies when the earliest timer is the sampler's wakeup, falls
        inside this ``run_ticks`` call, and ``sampler.sample_budget()``
        grants it; no other event may be due now, and the span must
        compile with the sampler's task cores as its FG lanes.  The
        kernel takes the granted wakeups due before the span's horizon
        (the next other event), so a wakeup that shares its tick with
        another event stays on the wheel.  Returns the ticks executed
        (possibly 0: a wakeup taken at the span's first tick, the
        acting one or one at a tick the kernel could not run; the
        caller then runs that tick in ``Machine.tick``), or None — with
        the timer wheel untouched — when the plain path must run
        instead.
        """
        allowed = sampler.sample_budget()
        if not allowed:
            return None
        timers = m.timers
        deadline = timers.next_deadline()
        if deadline is None or deadline - m.clock.tick >= budget:
            return None
        terms = self._terms
        if terms is None or terms[0] is not sampler:
            period_s, core, overhead_s, cores = sampler.sample_terms
            terms = self._terms = (
                sampler, sampler.sample_wakeup, cores,
                (m.clock.ticks_for(period_s), core, overhead_s),
            )
        _, wakeup, cores, kernel_terms = terms
        fire = timers.take(wakeup)
        if fire is None:
            return None
        horizon = event_horizon(m, budget)
        if horizon >= 1:
            plan = self._planner.plan_for_span(m)
            if plan is not None and plan.fg_cores == cores:
                self.stats.spans += 1
                return plan.run(
                    m, horizon, (sampler, fire, allowed) + kernel_terms
                )
        timers.requeue(fire, 0)
        return None

    # ------------------------------------------------------------------
    # Plain spans
    # ------------------------------------------------------------------

    def _dispatch_span(self, m, span: int) -> int:
        """Run up to ``span`` ticks in the compiled kernel; returns ticks
        executed, or 0 when the planner declines the machine's shape
        (see :mod:`repro.sim.spanplan`) and ``run_ticks`` must tick it
        in ``Machine.tick``.
        """
        plan = self._planner.plan_for_span(m)
        if plan is None:
            return 0
        self.stats.spans += 1
        return plan.run(m, span)
