"""Run-to-next-event batch execution engine for the simulated machine.

The scalar kernel (:meth:`repro.sim.machine.Machine.tick`) pays full
Python dispatch — gather, fixed point, counter writes, timer and
governor checks — for every tick, even across long stretches where
nothing discrete happens.  This module amortizes that overhead the way
batching amortizes per-step cost in inference engines: it computes an
**event horizon** — the earliest tick at which the machine's trajectory
can deviate from straight-line execution — and advances all ticks up to
that horizon in one fused kernel.

The horizon is exact — the minimum of:

(a) the timer wheel's next deadline (:meth:`TimerWheel.next_deadline`),
    since firing callbacks can pause/resume processes, change DVFS
    grades, repartition the cache, or charge runtime overhead; and
(b) the governor's next pending DVFS transition
    (:meth:`FrequencyGovernor.next_transition_tick`), since an applied
    grade changes every subsequent tick's frequency inputs.

Phase boundaries and FG completions need no horizon term: inside the
fused kernel every tick re-checks, before mutating anything, that each
process is still inside its gathered phase window, and handles FG
completions with exactly the scalar kernel's logic, exiting the span
whenever such an event actually occurs.

One timer is not an event either: the wakeup of a periodic sampler
attached with :meth:`Machine.attach_sampler` (the Dirigent runtime)
while its ``sample_budget()`` says the wakeup only samples.  The
compiled span kernels take such wakeups themselves — buffer the
counter reads, charge the overhead, draw the next wakeup — and
:meth:`SpanPlan.run` hands the samples back to the sampler, so spans
end only at decision wakeups and real machine events.

**Bit-identical semantics.**  The fused kernel performs the same
floating-point operations in the same order as ``Machine.tick``: the
per-tick miss-curve evaluation, OS-jitter draw (same RNG streams, same
draw order), three-iteration rho fixed point, counter accumulation,
and ``SharedCache.tick_update`` are all preserved.  What the span
structure removes is pure interpreter overhead: per-tick timer/governor
checks, the per-core gather of phase attributes, and — once a span
becomes *stationary* (no jitter, cache occupancy and rho exactly
converged) — the fixed point and cache update themselves, whose outputs
are provably equal to the previous tick's.  Equivalence is enforced by
``tests/sim/test_batch_equivalence.py``.

Backend selection is environment-driven: ``REPRO_SIM_BACKEND=scalar``
pins the reference per-tick loop, ``batch`` (the default) enables this
engine.  :class:`repro.sim.machine.Machine` also accepts an explicit
``backend=`` argument.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.config import ENV_BACKEND, env_backend
from repro.sim.perf import FIXED_POINT_ITERATIONS, MPKI_SCALE
from repro.sim.process import STATE_RUNNING, ExecutionRecord, Process
from repro.sim.spanplan import SpanPlanner, SpanStats, span_compile_enabled

#: Reference per-tick loop (bit-exact baseline pinned by
#: ``tests/sim/test_machine_perf_equivalence.py``).
BACKEND_SCALAR = "scalar"

#: Run-to-next-event batch engine (this module).
BACKEND_BATCH = "batch"

#: Multi-cell structure-of-arrays backend (:mod:`repro.sim.vector`).
#: A single machine under this backend advances through its batch
#: engine (bit-identical); the fused cell-axis kernels engage when a
#: :class:`repro.sim.vector.MultiCell` drives many machines at once.
BACKEND_VECTOR = "vector"

#: All recognized backends.
BACKENDS = (BACKEND_SCALAR, BACKEND_BATCH, BACKEND_VECTOR)

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
    here — every span kernel (and the vector backend's fused cell-axis
    kernels) detects them exactly and stops at them.
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
    hot-path state (``_cnt_arrays``, ``_cache_eff``, ``_gov_freqs``,
    ...) the scalar kernel uses, plus the public event peeks added for
    it (``timers.next_deadline()``, ``governor.next_transition_tick()``,
    ``clock.tick``).  All per-span buffers are allocated once here and
    reused, so steady-state spans allocate nothing.
    """

    def __init__(self, machine) -> None:
        self._m = machine
        #: Fast-path observability counters (see SpanStats).
        self.stats = SpanStats()
        self._planner = (
            SpanPlanner(machine, self.stats)
            if span_compile_enabled() else None
        )
        # (sampler, wakeup, task cores, (period ticks, pinned core,
        # overhead)) of the attached sampler, resolved once.
        self._terms: Optional[tuple] = None
        num_cores = machine.config.num_cores
        self._cores = [0] * num_cores
        self._procs: List[Optional[Process]] = [None] * num_cores
        self._floor = [0.0] * num_cores
        self._delta = [0.0] * num_cores
        self._wscale = [1.0] * num_cores
        self._sens = [0.0] * num_cores
        self._freq = [0.0] * num_cores
        self._fh = [0.0] * num_cores
        self._cpi0 = [0.0] * num_cores
        self._apki = [0.0] * num_cores
        self._isfg = [False] * num_cores
        self._jfns: List[object] = [None] * num_cores
        self._prev_w = [-1.0] * num_cores
        self._mpki = [0.0] * num_cores
        self._coef = [0.0] * num_cores
        self._jit = [1.0] * num_cores
        self._ips = [0.0] * num_cores
        self._instr_inc = [0.0] * num_cores
        self._cyc_inc = [0.0] * num_cores
        self._acc_inc = [0.0] * num_cores
        self._miss_inc = [0.0] * num_cores
        self._weights = [0.0] * num_cores

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_ticks(self, ticks: int) -> None:
        """Advance the machine by ``ticks`` ticks, or to an earlier end
        a completion listener set with :meth:`Machine.end_run_at`."""
        m = self._m
        clock = m.clock
        sampler = m._sampler if self._planner is not None else None
        m._run_end = clock.tick + ticks
        while True:
            remaining = m._run_end - clock.tick
            if remaining <= 0:
                return
            executed = None
            if sampler is not None:
                executed = self._sampled_span(sampler, remaining)
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
                        executed = self._sampled_span(sampler, remaining)
                    if executed is None:
                        horizon = event_horizon(m, remaining)
                if executed is None:
                    executed = (
                        self._dispatch_span(horizon) if horizon >= 1 else 0
                    )
            if not executed:
                # No span progress (an in-span guard tripped immediately,
                # or a timer callback scheduled work for this same tick):
                # the scalar kernel handles it — it is the semantic
                # reference.
                m.tick()

    # ------------------------------------------------------------------
    # Sample-only wakeups inside the span kernel
    # ------------------------------------------------------------------

    def _sampled_span(self, sampler, budget: int) -> Optional[int]:
        """Run one compiled span that takes ``sampler``'s wakeups itself.

        Applies when the earliest timer is the sampler's wakeup, falls
        inside this ``run_ticks`` call, and only samples
        (``sampler.sample_budget()``); no other event may be due now,
        and the span must compile with the sampler's task cores as its
        FG lanes.  Returns the ticks executed (possibly 0: a sample
        taken at a tick the kernel could not run), or None — with the
        timer wheel untouched — when the plain path must run instead.
        """
        allowed = sampler.sample_budget()
        if not allowed:
            return None
        m = self._m
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
            plan = self._planner.plan_for_span()
            if plan is not None and plan.fg_cores == cores:
                stats = self.stats
                stats.spans += 1
                stats.compiled_spans += 1
                return plan.run(
                    horizon, (sampler, fire, allowed) + kernel_terms
                )
        timers.requeue(fire, 0)
        return None

    # ------------------------------------------------------------------
    # Fused multi-tick kernel
    # ------------------------------------------------------------------

    def _dispatch_span(self, span: int) -> int:
        """Route a span to the compiled fast path or the generic kernel.

        Compiled kernels (see :mod:`repro.sim.spanplan`) cover the
        common shapes, including spans carrying stolen time; overlapping
        cache groups, an idle machine, or a substituted jitter RNG fall
        back to :meth:`_run_span`, whose semantics they replicate
        exactly.
        """
        stats = self.stats
        stats.spans += 1
        planner = self._planner
        if planner is not None:
            plan = planner.plan_for_span()
            if plan is not None:
                stats.compiled_spans += 1
                return plan.run(span)
        stats.generic_spans += 1
        return self._run_span(span)

    def _run_span(self, span: int) -> int:
        """Run up to ``span`` event-free ticks; returns ticks executed.

        May return early (including 0) when a phase boundary arrives
        sooner than estimated or an FG execution completes; the caller
        falls back to the scalar kernel for the event tick.
        """
        m = self._m
        if not m._settled:
            m.settle_cache()
        clock = m.clock
        config = m.config
        num_cores = config.num_cores
        dt = config.tick_s
        sigma = m._sigma
        mu = m._jitter_mu
        exp_ = math.exp
        eff = m._cache_eff
        gov_freqs = m._gov_freqs
        cnt_i, cnt_c, cnt_a, cnt_m = m._cnt_arrays
        stolen_a = m._stolen_s
        ips_prev = m._ips_prev
        cache_tick = m._cache_tick
        listeners = m._completion_listeners
        energy = m._energy
        memory = m.memory
        base_ns = memory.base_latency_ns
        scale = memory.contention_scale
        rho_cap = memory.rho_cap
        inv_peak = memory.seconds_per_miss_at_peak

        # ---- Gather per-core model inputs once for the whole span ----
        # (the scalar kernel re-reads these every tick; within a span
        # the running set, phases, and frequencies cannot change).
        cores = self._cores
        procs = self._procs
        floor_a = self._floor
        delta_a = self._delta
        wscale = self._wscale
        sens = self._sens
        freq_a = self._freq
        fh = self._fh
        cpi0 = self._cpi0
        apki_a = self._apki
        isfg = self._isfg
        jfns = self._jfns
        prev_w = self._prev_w
        mpki_a = self._mpki
        coef = self._coef
        jit = self._jit
        ips_a = self._ips
        weights = self._weights
        gauss_fns = m._gauss_fns

        guards: List[Tuple[Process, float]] = []
        n = 0
        for core, proc in enumerate(m._procs_by_core):
            if proc is None or proc.state != STATE_RUNNING:
                continue
            if not proc._phase_start <= proc.progress < proc._phase_end:
                proc._sync_phase_cursor()
            phase = proc._spec.phases[proc._phase_index]
            floor = phase.mpki_floor
            cores[n] = core
            procs[n] = proc
            floor_a[n] = floor
            delta_a[n] = phase.mpki_peak - floor
            wscale[n] = phase.ways_scale
            sens[n] = phase.mem_sensitivity
            freq = gov_freqs[core]
            freq_a[n] = freq
            fh[n] = freq * 1e9
            cpi0[n] = phase.base_cpi
            apki_a[n] = phase.apki
            is_fg = proc.is_fg
            isfg[n] = is_fg
            jfns[n] = gauss_fns[core]
            prev_w[n] = -1.0  # force a miss-curve evaluation on tick 1
            if sigma <= 0.0:
                jit[n] = 1.0
            if is_fg:
                # FG pinned to its *last* phase only leaves it by
                # completing, which the completion path detects exactly.
                if proc._phase_index != len(proc._spec.phases) - 1:
                    guards.append((proc, proc._phase_end))
            else:
                # BG phase windows cover the wrapped offset; translate
                # the exit point into raw-progress terms.  A phase that
                # spans the whole program never produces a boundary.
                progress = proc.progress
                total = proc._total
                if proc._phase_start > 0.0 or proc._phase_end < total:
                    offset = progress % total if progress >= total else progress
                    guards.append((proc, progress - offset + proc._phase_end))
            n += 1
        for core in range(num_cores):
            weights[core] = 0.0

        freqs_list: Optional[List[float]] = None
        busy_list: Optional[List[bool]] = None
        if energy is not None:
            # EnergyModel.accumulate reads (never retains) its inputs;
            # the per-span constants are shared across ticks.
            freqs_list = list(gov_freqs)
            busy_list = [False] * num_cores
            for i in range(n):
                busy_list[cores[i]] = True

        instr_inc = self._instr_inc
        cyc_inc = self._cyc_inc
        acc_inc = self._acc_inc
        miss_inc = self._miss_inc

        rho = m._rho
        now_tick = clock.tick
        executed = 0
        stationary = False
        jitter_free = sigma <= 0.0 or n == 0
        # Overhead can only be charged during timer/completion callbacks,
        # which never run mid-span, so only the span's first tick can
        # carry stolen time.
        has_stolen = any(stolen_a)
        completions: List[Tuple[Process, ExecutionRecord]] = []

        while executed < span:
            # Event guard: exit (before mutating anything, including the
            # RNG streams) as soon as a process leaves its gathered
            # phase window — the scalar kernel then re-syncs it.
            for g_proc, g_end in guards:
                if g_proc.progress >= g_end:
                    m._rho = rho
                    memory.observe(rho)
                    return executed

            if stationary:
                # Cache occupancy, rho, and (jitter-free) rates are all
                # exactly converged: this tick's model outputs equal the
                # previous tick's, so only the accumulation side runs.
                for i in range(n):
                    core = cores[i]
                    instructions = instr_inc[i]
                    misses = miss_inc[i]
                    cnt_i[core] += instructions
                    cnt_c[core] += cyc_inc[i]
                    cnt_a[core] += acc_inc[i]
                    cnt_m[core] += misses
                    proc = procs[i]
                    if isfg[i]:
                        remaining = proc._target_total - proc.progress
                        if instructions >= remaining > 0:
                            ips = ips_a[i]
                            dt_to_finish = remaining / ips
                            end_s = now_tick * dt + dt_to_finish
                            miss_share = misses * (remaining / instructions)
                            proc.advance(remaining, miss_share)
                            record = proc.complete_execution(end_s)
                            completions.append((proc, record))
                            leftover = instructions - remaining
                            proc.advance(leftover, misses - miss_share)
                            continue
                    proc.progress += instructions
                    proc.execution_misses += misses
                if energy is not None:
                    energy.accumulate(dt, freqs_list, busy_list)
                now_tick += 1
                clock.tick = now_tick
                executed += 1
                if completions:
                    break
                continue

            # ---- Full model tick (scalar float semantics) ----
            w_changed = False
            for i in range(n):
                w = eff[cores[i]]
                if w < 0.0:
                    w = 0.0
                if w != prev_w[i]:
                    w_changed = True
                    prev_w[i] = w
                    mpki = floor_a[i] + delta_a[i] * exp_(-w / wscale[i])
                    mpki_a[i] = mpki
                    coef[i] = mpki * MPKI_SCALE
                if sigma > 0.0:
                    jit[i] = exp_(jfns[i](mu, sigma))

            rho_in = rho
            for _ in range(FIXED_POINT_ITERATIONS):
                penalty_ns = base_ns * (1.0 + scale * rho / (1.0 - rho))
                total_miss_rate = 0.0
                for i in range(n):
                    stall = coef[i] * penalty_ns * sens[i] * freq_a[i]
                    ips = fh[i] / (cpi0[i] + stall) * jit[i]
                    ips_a[i] = ips
                    total_miss_rate += ips * mpki_a[i] * MPKI_SCALE
                new_rho = total_miss_rate * inv_peak
                rho = new_rho if new_rho < rho_cap else rho_cap

            for i in range(n):
                core = cores[i]
                proc = procs[i]
                ips = ips_a[i]
                ips_prev[core] = ips
                apki = apki_a[i]
                weights[core] = apki * ips
                if has_stolen:
                    stolen = stolen_a[core]
                    if stolen:
                        stolen_a[core] = 0.0
                    dt_eff = dt - stolen
                    if dt_eff <= 0.0:
                        continue
                else:
                    dt_eff = dt  # dt - 0.0 == dt: matches the scalar path
                instructions = ips * dt_eff
                misses = ips * mpki_a[i] * MPKI_SCALE * dt_eff
                cnt_i[core] += instructions
                cnt_c[core] += fh[i] * jit[i] * dt_eff
                cnt_a[core] += (
                    instructions * apki * MPKI_SCALE if apki > 0 else misses
                )
                cnt_m[core] += misses
                if isfg[i]:
                    remaining = proc._target_total - proc.progress
                    if instructions >= remaining > 0:
                        dt_to_finish = remaining / ips
                        end_s = now_tick * dt + dt_to_finish
                        miss_share = misses * (remaining / instructions)
                        proc.advance(remaining, miss_share)
                        record = proc.complete_execution(end_s)
                        completions.append((proc, record))
                        leftover = instructions - remaining
                        proc.advance(leftover, misses - miss_share)
                        continue
                proc.progress += instructions
                proc.execution_misses += misses

            if energy is not None:
                energy.accumulate(dt, freqs_list, busy_list)

            cache_tick(weights, dt)
            has_stolen = False
            now_tick += 1
            clock.tick = now_tick
            executed += 1
            if completions:
                break

            if (
                jitter_free and not w_changed and rho == rho_in
                and self._idle_converged(weights)
            ):
                # The occupancy filter and fixed point are at their
                # exact float fixed points: every input of the next tick
                # equals this tick's, so its outputs (and the no-op
                # cache update) are bit-identical.  Precompute the
                # per-tick counter increments; ``dt - 0.0 == dt``, so
                # they match the scalar kernel's stolen-free path.
                for i in range(n):
                    ips = ips_a[i]
                    instructions = ips * dt
                    instr_inc[i] = instructions
                    cyc_inc[i] = fh[i] * jit[i] * dt
                    misses = ips * mpki_a[i] * MPKI_SCALE * dt
                    miss_inc[i] = misses
                    apki = apki_a[i]
                    acc_inc[i] = (
                        instructions * apki * MPKI_SCALE if apki > 0
                        else misses
                    )
                stationary = True

        # Mid-span nothing can observe rho (events break spans), so the
        # per-tick ``memory.observe`` of the scalar kernel collapses to a
        # single write-back at span exit.
        m._rho = rho
        memory.observe(rho)
        if completions:
            for proc, record in completions:
                for listener in listeners:
                    listener(proc, record)
        return executed

    def _idle_converged(self, weights: List[float]) -> bool:
        """Whether every zero-weight core's occupancy is exactly frozen.

        The stationary fast path skips the cache update wholesale,
        which is only sound once the update is an exact no-op for
        *every* core.  Active cores are covered by the ``w_changed``
        check (their occupancy feeds next tick's miss curves); cores
        with zero weight — idle, paused, or APKI-0 — have a 0.0 target
        nothing reads, so their occupancy keeps decaying until the
        inertia step rounds to identity, and stationarity must wait for
        them too.
        """
        m = self._m
        cache = m.cache
        if cache._tau <= 0:
            return True  # snap mode: occupancy equals its target already
        alpha = cache._alpha_cache[1]
        eff = m._cache_eff
        for core, weight in enumerate(weights):
            if weight == 0.0:
                e = eff[core]
                if e != 0.0 and e + alpha * (0.0 - e) != e:
                    return False
        return True
