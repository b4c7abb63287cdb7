"""The simulated multicore machine.

Owns the clock, DVFS governor, partitioned LLC, memory system, counters,
and pinned processes, and advances them in lock-step ticks.  It implements
:class:`repro.sim.osal.SystemInterface`, so the Dirigent runtime drives it
exactly as it would drive a real node.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.batch import BACKEND_SCALAR, BatchEngine, resolve_backend
from repro.sim.cache import SharedCache
from repro.sim.config import MachineConfig
from repro.sim.counters import CounterBank, CounterSnapshot
from repro.sim.frequency import FrequencyGovernor
from repro.sim.jitter import shared_tapes
from repro.sim.memory import MemorySystem
from repro.sim.perf import FIXED_POINT_ITERATIONS, MPKI_SCALE
from repro.sim.process import STATE_RUNNING, ExecutionRecord, Process
from repro.sim.timebase import TimerWheel, VirtualClock, derive_rng
from repro.workloads.spec import WorkloadSpec

CompletionListener = Callable[[Process, ExecutionRecord], None]

#: Hot-state attributes the scalar ``tick`` kernel mutates that are
#: *intentionally* absent from the span kernels' mirrored-state
#: registry (:data:`repro.sim.spanplan.KERNEL_STATE`): the ``_b_*``
#: names are per-tick scratch buffers — gather arrays reloaded from
#: scratch at the top of every tick, never read across ticks — so a
#: backend that skips them loses nothing.  ``repro lint``'s ``COV002``
#: parses this allowlist from the module source and flags any entry
#: that stops matching a mutation in the hot path (a stale allowlist is
#: itself an error), so additions here stay honest.
SCALAR_ONLY_STATE = frozenset({
    "_b_core", "_b_proc", "_b_phase", "_b_mpki", "_b_freq", "_b_coef",
    "_b_sens", "_b_fh", "_b_cpi0", "_b_jit", "_b_ips",
})


class Machine:
    """Discrete-time multicore node with one pinned process per core."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.config = config or MachineConfig()
        #: Active simulation backend ("scalar" or "batch"); resolved
        #: from the ``backend`` argument, then ``REPRO_SIM_BACKEND``,
        #: then the default.  Only affects how ``run_ticks`` advances
        #: the machine; ``tick()`` is always the scalar reference kernel.
        self.backend = resolve_backend(backend)
        self.clock = VirtualClock(self.config.tick_s)
        self._timer_rng = derive_rng(self.config.seed, "timer")
        self.timers = TimerWheel(
            self.clock, self._timer_rng, self.config.timer_jitter_prob
        )
        self.governor = FrequencyGovernor(self.config)
        self.cache = SharedCache(self.config)
        self.memory = MemorySystem(self.config)
        self.counters = CounterBank(self.config.num_cores)
        self._input_rng = derive_rng(self.config.seed, "input")
        # Hot-path state, hoisted once so tick() avoids per-tick method
        # dispatch and attribute chains (see docs/performance.md).
        num_cores = self.config.num_cores
        self._sigma = self.config.os_jitter_sigma
        self._jitter_mu = -0.5 * self._sigma * self._sigma
        # OS jitter: inside a shared_jitter scope each core reads its
        # draws from the tape the scope's machines of this seed share
        # (``_jit_pos``: draws read); outside one, the machine draws
        # them from its own per-core RNGs.
        self._jit_tapes = shared_tapes(
            self.config.seed, num_cores, self._sigma
        )
        self._jit_pos = [0] * num_cores
        self._jitter_rngs = [] if self._jit_tapes else [
            derive_rng(self.config.seed, "jitter-core-%d" % core)
            for core in range(num_cores)
        ]
        self._gauss_fns = [rng.gauss for rng in self._jitter_rngs]
        self._cnt_arrays = self.counters.hot_arrays()
        self._gov_freqs = self.governor.effective_frequencies()
        self._gov_pending = self.governor.pending_transitions()
        self._gov_grades = self.governor.pending_grades()
        self._timer_heap = self.timers.pending_heap()
        self._cache_eff = self.cache.effective_list()
        self._cache_tick = self.cache.tick_update
        self._b_core = [0] * num_cores
        self._b_proc: List[Optional[Process]] = [None] * num_cores
        self._b_phase: List[object] = [None] * num_cores
        self._b_mpki = [0.0] * num_cores
        self._b_freq = [0.0] * num_cores
        self._b_coef = [0.0] * num_cores
        self._b_sens = [0.0] * num_cores
        self._b_fh = [0.0] * num_cores
        self._b_cpi0 = [0.0] * num_cores
        self._b_jit = [0.0] * num_cores
        self._b_ips = [0.0] * num_cores
        self._procs_by_core: List[Optional[Process]] = (
            [None] * self.config.num_cores
        )
        self._procs_by_pid: Dict[int, Process] = {}
        self._next_pid = 1
        self._stolen_s: List[float] = [0.0] * self.config.num_cores
        self._completion_listeners: List[CompletionListener] = []
        self._rho = 0.0
        self._settled = False
        self._ips_prev: List[float] = [0.0] * self.config.num_cores
        self._energy = None  # optional EnergyModel
        self._sampler = None  # see attach_sampler
        # Clock tick at which the running run_ticks call returns; a
        # completion listener may pull it in (see end_run_at).
        self._run_end = 0
        self._batch_engine = (
            None if self.backend == BACKEND_SCALAR else BatchEngine()
        )
        self._closed = False
        # Cached process-list views, invalidated on spawn (the runtime
        # reads these every fine interval; rebuilding them per access
        # showed up in profiles).
        self._proc_list: Optional[List[Process]] = None
        self._fg_list: Optional[List[Process]] = None
        self._bg_list: Optional[List[Process]] = None

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def spawn(self, spec: WorkloadSpec, core: int, nice: int = 0) -> Process:
        """Create a process running ``spec`` pinned to ``core``."""
        if not 0 <= core < self.config.num_cores:
            raise ConfigurationError("core %d out of range" % core)
        if self._procs_by_core[core] is not None:
            raise ConfigurationError("core %d already has a pinned process" % core)
        proc = Process(
            pid=self._next_pid,
            spec=spec,
            core=core,
            nice=nice,
            input_rng=self._input_rng,
            start_s=self.clock.now,
        )
        self._next_pid += 1
        self._procs_by_core[core] = proc
        self._procs_by_pid[proc.pid] = proc
        self._settled = False
        self._proc_list = None
        self._fg_list = None
        self._bg_list = None
        return proc

    def process_on_core(self, core: int) -> Optional[Process]:
        """Process pinned to ``core``, or None when the core is idle."""
        if not 0 <= core < self.config.num_cores:
            raise SimulationError("core %d out of range" % core)
        return self._procs_by_core[core]

    def process_by_pid(self, pid: int) -> Process:
        """Look a process up by pid."""
        try:
            return self._procs_by_pid[pid]
        except KeyError:
            raise SimulationError("no process with pid %d" % pid) from None

    @property
    def processes(self) -> List[Process]:
        """All spawned processes, in core order (cached; don't mutate)."""
        procs = self._proc_list
        if procs is None:
            procs = [p for p in self._procs_by_core if p is not None]
            self._proc_list = procs
        return procs

    @property
    def foreground_processes(self) -> List[Process]:
        """All FG processes, in core order (cached; don't mutate)."""
        procs = self._fg_list
        if procs is None:
            procs = [p for p in self.processes if p.is_foreground]
            self._fg_list = procs
        return procs

    @property
    def background_processes(self) -> List[Process]:
        """All BG processes, in core order (cached; don't mutate)."""
        procs = self._bg_list
        if procs is None:
            procs = [p for p in self.processes if not p.is_foreground]
            self._bg_list = procs
        return procs

    def add_completion_listener(self, listener: CompletionListener) -> None:
        """Register a callback invoked on every FG execution completion."""
        self._completion_listeners.append(listener)

    # ------------------------------------------------------------------
    # SystemInterface implementation
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    def read_counters(self, core: int) -> CounterSnapshot:
        """Cumulative counters of ``core`` as of now."""
        return self.counters.snapshot(core, self.clock.now)

    def read_llc_misses(self, core: int) -> float:
        """Cumulative LLC load misses of ``core`` as of now: the
        ``llc_misses`` of :meth:`read_counters`, without the snapshot."""
        if not 0 <= core < self.config.num_cores:
            raise SimulationError("core %d out of range" % core)
        return self._cnt_arrays[3][core]

    def num_frequency_grades(self) -> int:
        """Number of DVFS grades on this machine."""
        return self.config.num_grades

    def frequency_grade(self, core: int) -> int:
        """Requested grade index of ``core``."""
        if not 0 <= core < self.config.num_cores:
            raise SimulationError("core %d out of range" % core)
        return self._gov_grades[core]

    def set_frequency_grade(self, core: int, grade: int) -> None:
        """Request a DVFS grade for ``core``."""
        self.governor.set_grade(core, grade, self.clock.tick)

    def step_frequency(self, core: int, direction: int) -> bool:
        """Step ``core`` one grade; returns False at a limit."""
        return self.governor.step(core, direction, self.clock.tick)

    def pause(self, pid: int) -> None:
        """Stop the process ``pid``."""
        self.process_by_pid(pid).pause()

    def resume(self, pid: int) -> None:
        """Continue the process ``pid``."""
        self.process_by_pid(pid).resume()

    def is_paused(self, pid: int) -> bool:
        """True when ``pid`` is stopped."""
        proc = self._procs_by_pid.get(pid)
        if proc is None:
            raise SimulationError("no process with pid %d" % pid)
        return proc.state != STATE_RUNNING

    def core_of(self, pid: int) -> int:
        """Core the process ``pid`` is pinned to."""
        return self.process_by_pid(pid).core

    def llc_ways(self) -> int:
        """Total LLC ways."""
        return self.config.llc_ways

    def set_fg_partition(self, fg_cores, fg_ways: int) -> None:
        """Isolate ``fg_ways`` ways for ``fg_cores``."""
        self.cache.set_fg_partition(fg_cores, fg_ways)

    def clear_partitions(self) -> None:
        """Remove all cache isolation."""
        self.cache.clear_partitions()

    def partition_ways(self, core: int) -> int:
        """Ways ``core``'s current LLC mask allows (partition read-back)."""
        return self.cache.mask_ways(core)

    def schedule_wakeup(self, delay_s: float, callback) -> None:
        """Schedule ``callback`` through the jittered timer wheel."""
        self.timers.schedule(delay_s, callback)

    def cancel_wakeup(self, callback) -> None:
        """Drop every pending wakeup of ``callback`` (see
        :meth:`TimerWheel.cancel`)."""
        self.timers.cancel(callback)

    def charge_overhead(self, core: int, seconds: float) -> None:
        """Steal ``seconds`` of the current tick from ``core``'s process."""
        if seconds < 0:
            raise SimulationError("overhead must be >= 0")
        if not 0 <= core < self.config.num_cores:
            raise SimulationError("core %d out of range" % core)
        self._stolen_s[core] += seconds

    def attach_sampler(self, sampler) -> None:
        """Let the batch engine take ``sampler``'s wakeups in-kernel.

        ``sampler`` is a periodic monitor driving this machine directly
        (the Dirigent runtime, which attaches itself on start).  It
        schedules every wakeup with a callback equal to
        ``sampler.sample_wakeup`` (one bound method, or any binding of
        the same method to the sampler).  A wakeup first charges
        ``invocation_overhead_s`` to the pinned core, reads the task
        cores' instruction counters and reschedules itself one
        ``sampling_period_s`` later (the ``sampler.sample_terms``
        tuple); ``sampler.sample_budget()`` grants the wakeups up to the
        next one that may act, that one included.  The span kernels do
        exactly that in-kernel for each granted wakeup that is the only
        event due at its tick, end the span at the last one, before its
        tick runs, and hand the buffered reads to
        ``sampler.replay_samples``, which may then act at that tick.
        Only the batch engine's compiled spans use this; ``tick`` and
        the scalar backend fire every wakeup as a timer.

        The kernel reschedules an acting wakeup before the sampler
        acts, where the timer reschedules after, so nothing the sampler
        does when it acts may touch the timer wheel: it may actuate
        (DVFS, pause and resume, cache partitions, overhead charged on
        synchronous retries) but schedule no timer.
        """
        self._sampler = sampler

    # ------------------------------------------------------------------
    # Run lifetime
    # ------------------------------------------------------------------

    def close(self) -> None:
        """End the machine's run: drop its references to the layers above.

        The layers above refer to the machine (a session, a runtime, a
        profiler), and the machine refers back to them only through its
        completion listeners, its attached sampler and its pending
        timers.  Closing drops those, the batch engine's span plans
        with them, and the machine's jitter tapes, so a finished run is
        freed by reference counting alone, without waiting for the
        cyclic garbage collector.
        Counters, the clock, :meth:`now` and :meth:`backend_stats` stay
        readable; advancing a closed machine (:meth:`run_ticks`,
        :meth:`tick`, :meth:`dispatch_events`, :meth:`settle_cache`)
        raises :class:`SimulationError`.  Closing twice is a no-op.
        """
        self._closed = True
        self._completion_listeners.clear()
        self._sampler = None
        self.timers.clear()
        self._jit_tapes = []
        if self._batch_engine is not None:
            self._batch_engine.close()
        # Unsettled, the next tick's or span's preamble calls
        # settle_cache, which refuses a closed machine: the tick path
        # needs no check of its own.
        self._settled = False

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------

    def settle_cache(self) -> None:
        """Snap cache occupancy to steady state for the current tasks."""
        if self._closed:
            raise SimulationError("machine is closed: its run has ended")
        self.cache.set_weights(self._occupancy_weights())
        self.cache.settle()
        self._settled = True

    def run_ticks(self, ticks: int) -> None:
        """Advance the machine by ``ticks`` ticks.

        With the batch backend, event-free spans are advanced by the
        compiled span kernels the engine in :mod:`repro.sim.batch`
        dispatches; the scalar backend (and every tick no span kernel
        covers) goes through the reference :meth:`tick` kernel.  A
        completion listener may end the call sooner through
        :meth:`end_run_at`.
        """
        if ticks < 0:
            raise SimulationError("ticks must be >= 0")
        if self._closed:
            raise SimulationError("machine is closed: its run has ended")
        engine = self._batch_engine
        if engine is not None:
            engine.run_ticks(self, ticks)
            return
        clock = self.clock
        tick = self.tick
        self._run_end = clock.tick + ticks
        while clock.tick < self._run_end:
            tick()

    def end_run_at(self, tick: int) -> None:
        """Make the running :meth:`run_ticks` call return at clock ``tick``.

        For completion listeners that see their run's goal reached: the
        call stops once the clock reads ``tick`` (or at its own end, if
        that comes first) instead of running on.  ``tick`` must not lie
        before the current clock.  The batch engine and the scalar loop
        both honour it, so the call ends on the same tick either way.
        """
        if tick < self._run_end:
            self._run_end = tick

    def run_seconds(self, seconds: float) -> None:
        """Advance the machine by approximately ``seconds``.

        Any positive duration runs at least one tick, so short sleeps
        cannot silently round down to a no-op.
        """
        if seconds < 0:
            raise SimulationError("seconds must be >= 0")
        ticks = int(round(seconds / self.config.tick_s))
        if ticks == 0 and seconds > 0:
            ticks = 1
        self.run_ticks(ticks)

    def dispatch_events(self) -> None:
        """Run the start-of-tick event preamble without executing the tick.

        Applies due DVFS transitions and fires due timers exactly as the
        first lines of :meth:`tick` would.  The batch engine calls this
        when an event lands on the current tick, then advances the tick
        itself through a span kernel; :meth:`tick` performs the
        same preamble inline, so scalar semantics are unchanged.
        """
        if not self._settled:
            self.settle_cache()
        if self._gov_pending:
            self.governor.tick(self.clock.tick)
        if self._timer_heap:
            for callback in self.timers.due():
                callback()

    def tick(self) -> None:
        """Advance the machine by one tick.

        This is the simulator's hot kernel: invariant lookups are hoisted
        into per-entry arrays before the fixed point, counters are
        accumulated through direct array references, and the timer wheel,
        jitter draw, and energy accounting are skipped outright when idle,
        disabled, or noise-free.  Floating-point evaluation order matches
        the reference model in :mod:`repro.sim.perf` exactly (see
        ``tests/sim/test_machine_model_consistency.py``).
        """
        if not self._settled:
            self.settle_cache()
        clock = self.clock
        now_tick = clock.tick
        if self._gov_pending:
            self.governor.tick(now_tick)
        if self._timer_heap:
            for callback in self.timers.due():
                callback()

        config = self.config
        dt = config.tick_s
        sigma = self._sigma
        mu = self._jitter_mu
        exp_ = math.exp

        # Gather per-core model inputs (one phase lookup per process)
        # into flat reusable buffers.
        cores = self._b_core
        procs_a = self._b_proc
        phases = self._b_phase
        mpki_a = self._b_mpki
        freq_a = self._b_freq
        coef = self._b_coef
        sens = self._b_sens
        fh = self._b_fh
        cpi0 = self._b_cpi0
        jit = self._b_jit
        ips_a = self._b_ips
        eff = self._cache_eff
        gov_freqs = self._gov_freqs
        gauss_fns = self._gauss_fns
        tapes = self._jit_tapes
        jit_pos = self._jit_pos
        n = 0
        for core, proc in enumerate(self._procs_by_core):
            if proc is None or proc.state != STATE_RUNNING:
                continue
            # Inline Process.current_phase: the cached cursor almost
            # always covers the current progress point.
            progress = proc.progress
            if not proc._phase_start <= progress < proc._phase_end:
                proc._sync_phase_cursor()
            phase = proc._spec.phases[proc._phase_index]
            # Inline PhaseSpec.mpki (same operations, same order).
            w = eff[core]
            if w < 0.0:
                w = 0.0
            floor = phase.mpki_floor
            mpki = floor + (phase.mpki_peak - floor) * exp_(-w / phase.ways_scale)
            if sigma <= 0:
                jitter = 1.0
            elif tapes:
                pos = jit_pos[core]
                tape = tapes[core]
                if pos == tape.end:
                    tape.fill(pos)
                jitter = tape.values[pos]
                jit_pos[core] = pos + 1
            else:
                jitter = exp_(gauss_fns[core](mu, sigma))
            freq = gov_freqs[core]
            cores[n] = core
            procs_a[n] = proc
            phases[n] = phase
            mpki_a[n] = mpki
            freq_a[n] = freq
            coef[n] = mpki * MPKI_SCALE
            sens[n] = phase.mem_sensitivity
            fh[n] = freq * 1e9
            cpi0[n] = phase.base_cpi
            jit[n] = jitter
            n += 1

        # Inline fixed point over memory utilization (see repro.sim.perf).
        memory = self.memory
        base_ns = memory.base_latency_ns
        scale = memory.contention_scale
        rho_cap = memory.rho_cap
        inv_peak = memory.seconds_per_miss_at_peak
        rho = self._rho
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
        memory.observe(rho)
        self._rho = rho

        completions: List[Tuple[Process, ExecutionRecord]] = []
        weights = [0.0] * config.num_cores
        ips_prev = self._ips_prev
        stolen_a = self._stolen_s
        cnt_i, cnt_c, cnt_a, cnt_m = self._cnt_arrays
        for i in range(n):
            core = cores[i]
            proc = procs_a[i]
            phase = phases[i]
            ips = ips_a[i]
            ips_prev[core] = ips
            apki = phase.apki
            weights[core] = apki * ips
            stolen = stolen_a[core]
            if stolen:
                stolen_a[core] = 0.0
            dt_eff = dt - stolen
            if dt_eff <= 0.0:
                continue
            instructions = ips * dt_eff
            misses = ips * mpki_a[i] * MPKI_SCALE * dt_eff
            cnt_i[core] += instructions
            cnt_c[core] += fh[i] * jit[i] * dt_eff
            cnt_a[core] += instructions * apki * MPKI_SCALE if apki > 0 else misses
            cnt_m[core] += misses
            if proc.is_fg:
                remaining = proc._target_total - proc.progress
                if instructions >= remaining > 0:
                    # Interpolate the completion instant inside the tick.
                    dt_to_finish = remaining / ips
                    end_s = clock.now + dt_to_finish
                    miss_share = misses * (remaining / instructions)
                    proc.advance(remaining, miss_share)
                    record = proc.complete_execution(end_s)
                    completions.append((proc, record))
                    # The tick's leftover time feeds the next execution.
                    leftover = instructions - remaining
                    proc.advance(leftover, misses - miss_share)
                    continue
            # Inline Process.advance (amounts are non-negative by
            # construction).
            proc.progress += instructions
            proc.execution_misses += misses

        if self._energy is not None:
            busy = [False] * config.num_cores
            freqs = list(gov_freqs)
            for i in range(n):
                busy[cores[i]] = True
            self._energy.accumulate(dt, freqs, busy)

        self._cache_tick(weights, dt)
        clock.tick = now_tick + 1

        if completions:
            for proc, record in completions:
                for listener in self._completion_listeners:
                    listener(proc, record)

    def backend_stats(self) -> Optional[Dict[str, int]]:
        """Batch-engine fast-path counters, or None on the scalar backend.

        See :class:`repro.sim.spanplan.SpanStats` for the fields.
        """
        engine = self._batch_engine
        if engine is None:
            return None
        return engine.stats.as_dict()

    @property
    def rho(self) -> float:
        """Memory bandwidth utilization of the last tick."""
        return self._rho

    @property
    def energy(self):
        """The attached :class:`repro.sim.energy.EnergyModel`, if any."""
        return self._energy

    def attach_energy_model(self, model) -> None:
        """Attach an energy model to be fed every subsequent tick."""
        self._energy = model

    def _occupancy_weights(self) -> List[float]:
        """Per-core cache-occupancy weights: LLC access *rate* (apki x ips).

        Weighting by rate rather than intensity alone means a frequency-
        throttled or paused task steals less cache, as on real LRU caches.
        """
        weights = [0.0] * self.config.num_cores
        for core in range(self.config.num_cores):
            proc = self._procs_by_core[core]
            if proc is None or not proc.is_running:
                continue
            phase = proc.current_phase()
            ips = self._ips_prev[core]
            if ips <= 0.0:
                # Cold start: estimate the rate from frequency and base CPI.
                ips = self.governor.frequency_ghz(core) * 1e9 / phase.base_cpi
            weights[core] = phase.apki * ips
        return weights
