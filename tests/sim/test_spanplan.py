"""Span-compiled kernel path (:mod:`repro.sim.spanplan`).

The compiled path is a pure performance layer: every test here pins
either an observability contract (counters, plan reuse, kernel cache)
or bit-exactness against the scalar reference under conditions that
specifically stress the compiled kernels — stolen overhead time beside
guarded and unguarded lanes, the shapes the planner declines
(overlapping partitions, a substituted RNG, an idle machine), idle-core
occupancy drift, and jitter-free spans — plus the one kernel per shape,
clone lanes included, that serves spans with and without pending
overhead, the one plan per lane set that serves every phase and DVFS
state of its lanes, and the sampler wakeups the kernels take
themselves.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import spanplan
from repro.sim.batch import BACKEND_BATCH, BACKEND_SCALAR
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.spec import KIND_BG, WorkloadSpec
from tests.conftest import make_bg, make_fg, make_phase


def _machine(backend, *, sigma=0.015, tau=0.15, seed=9, cores_used=None):
    config = MachineConfig(
        seed=seed, os_jitter_sigma=sigma, cache_inertia_tau_s=tau,
        timer_jitter_prob=0.0,
    )
    machine = Machine(config, backend=backend)
    used = cores_used or range(config.num_cores)
    for core in used:
        if core == 0:
            machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
        else:
            machine.spawn(make_bg(heavy=core % 2 == 0), core=core, nice=5)
    machine.settle_cache()
    return machine


def _flat_bg(name="flat-bg"):
    """A one-phase BG task: its phase spans the whole program, so its
    lane never crosses a phase boundary (an ``inf`` guard bound)."""
    return WorkloadSpec(
        name=name, kind=KIND_BG,
        phases=(make_phase("flat", instructions=5e8, apki=30.0),),
    )


def _mixed_guard_machine(backend, sigma, tau=0.15):
    """Guarded and unguarded lanes side by side, plus one paused BG.

    Core 0 runs a two-phase FG (guarded until its last phase), cores 1
    and 3 two-phase BG tasks (guarded), cores 4 and 5 identical
    one-phase BG tasks (unguarded; clone lanes at sigma 0), and core
    2's BG task is paused, leaving that core idle.
    """
    config = MachineConfig(
        seed=13, os_jitter_sigma=sigma, cache_inertia_tau_s=tau,
        timer_jitter_prob=0.0,
    )
    machine = Machine(config, backend=backend)
    machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
    machine.spawn(make_bg(heavy=True), core=1, nice=5)
    parked = machine.spawn(make_bg(heavy=False), core=2, nice=5)
    machine.spawn(make_bg(heavy=False), core=3, nice=5)
    machine.spawn(_flat_bg(), core=4, nice=5)
    machine.spawn(_flat_bg(), core=5, nice=5)
    machine.pause(parked.pid)
    machine.settle_cache()
    return machine, parked.pid


def _counters(machine):
    return [
        machine.read_counters(core)
        for core in range(machine.config.num_cores)
    ]


def _assert_identical(scalar, batch):
    assert scalar.clock.tick == batch.clock.tick
    assert scalar.rho == batch.rho
    for a, b in zip(_counters(scalar), _counters(batch)):
        assert (a.instructions, a.cycles, a.llc_accesses, a.llc_misses) == (
            b.instructions, b.cycles, b.llc_accesses, b.llc_misses
        )
    for core in range(scalar.config.num_cores):
        assert scalar.cache.effective_ways(core) == batch.cache.effective_ways(
            core
        )


class TestStatsSurface:
    def test_batch_machine_reports_fast_path_counters(self):
        machine = _machine(BACKEND_BATCH)
        machine.run_ticks(2_000)
        stats = machine.backend_stats()
        assert stats is not None
        assert stats["spans"] > 0
        assert stats["compiled_ticks"] > 0
        assert stats["plan_builds"] >= 1
        assert set(stats) == set(spanplan.SpanStats().as_dict())

    def test_scalar_machine_reports_none(self):
        machine = _machine(BACKEND_SCALAR)
        machine.run_ticks(100)
        assert machine.backend_stats() is None

    def test_plan_reuse_dominates_chunked_driving(self):
        machine = _machine(BACKEND_BATCH, sigma=0.0)
        for _ in range(50):
            machine.run_ticks(40)
        stats = machine.backend_stats()
        assert stats["plan_reuses"] > stats["plan_builds"]

    def test_kernel_code_cache_shared_across_machines(self):
        first = _machine(BACKEND_BATCH, seed=1)
        first.run_ticks(200)
        assert len(spanplan._KERNEL_CODE_CACHE) >= 1
        cached = len(spanplan._KERNEL_CODE_CACHE)
        # An identically-shaped machine reuses the cached code objects
        # (the shape is structural, so even the seed does not matter).
        second = _machine(BACKEND_BATCH, seed=1)
        second.run_ticks(200)
        assert second.backend_stats()["kernels_compiled"] == 0
        assert len(spanplan._KERNEL_CODE_CACHE) == cached


class TestJitterFree:
    def test_lone_fg_snap_spans_match_scalar(self):
        # A lone FG with snap-to-target occupancy sits at its exact
        # (rho, mpki) fixed point across spans; the plain kernel still
        # solves every tick, bit-equal to the scalar reference.
        scalar, batch = (
            _machine(backend, sigma=0.0, tau=0.0, cores_used=(0,))
            for backend in (BACKEND_SCALAR, BACKEND_BATCH)
        )
        for _ in range(40):
            scalar.run_ticks(100)
            batch.run_ticks(100)
        _assert_identical(scalar, batch)
        assert batch.backend_stats()["compiled_ticks"] > 0


class TestEquivalenceUnderStress:
    def test_stolen_overhead_time_bit_identical(self):
        scalar = _machine(BACKEND_SCALAR)
        batch = _machine(BACKEND_BATCH)
        for step in (3, 1, 7, 100, 900):
            for machine in (scalar, batch):
                machine.charge_overhead(0, 2e-5)
                machine.charge_overhead(2, 5e-5)
                machine.run_ticks(step)
        _assert_identical(scalar, batch)
        # Stolen ticks stay compiled: no tick fell back to Machine.tick.
        assert batch.backend_stats()["compiled_ticks"] == batch.clock.tick

    @pytest.mark.parametrize("sigma", [0.0, 0.015])
    def test_pending_overhead_beside_unguarded_lanes_bit_identical(
        self, sigma
    ):
        # Overhead lands on a guarded lane (1), an unguarded lane (4,
        # whose clone on core 5 gets none), the FG, and the idle core
        # 2, whose charge stays pending until its task resumes.  One
        # charge exceeds a whole tick, so that lane's first tick is
        # fully stolen.
        scalar, parked_s = _mixed_guard_machine(BACKEND_SCALAR, sigma)
        batch, parked_b = _mixed_guard_machine(BACKEND_BATCH, sigma)
        steps = (3, 1, 40, 7, 300, 2, 900, 5, 60)
        for index, step in enumerate(steps):
            for machine, parked in ((scalar, parked_s), (batch, parked_b)):
                machine.charge_overhead(1, 2e-5)
                machine.charge_overhead(2, 3e-5)
                machine.charge_overhead(4, 4e-5)
                if index % 3 == 0:
                    machine.charge_overhead(0, 1.5e-5)
                if index == 3:
                    machine.charge_overhead(
                        3, 2 * machine.config.tick_s
                    )
                if index == 6:
                    machine.resume(parked)
                machine.run_ticks(step)
            assert batch._stolen_s == scalar._stolen_s
            if index < 6:
                # Paused task: its core's stolen time keeps piling up.
                assert scalar._stolen_s[2] > 0.0
        assert scalar._stolen_s[2] == 0.0
        _assert_identical(scalar, batch)
        assert batch.backend_stats()["compiled_ticks"] == batch.clock.tick

    def test_idle_core_occupancy_drift_matches(self):
        # Only 3 of the cores run; with cache inertia the idle cores'
        # occupancy decays asymptotically, tick by tick in the kernel.
        scalar = _machine(BACKEND_SCALAR, sigma=0.0, cores_used=(0, 2, 4))
        batch = _machine(BACKEND_BATCH, sigma=0.0, cores_used=(0, 2, 4))
        scalar.run_ticks(30_000)
        batch.run_ticks(30_000)
        _assert_identical(scalar, batch)

    def test_overlapping_partitions_fall_back_generically(self):
        def shape(machine):
            machine.cache.set_mask(0, 0x0FF0)
            machine.cache.set_mask(1, 0x00FF)

        scalar = _machine(BACKEND_SCALAR)
        batch = _machine(BACKEND_BATCH)
        shape(scalar)
        shape(batch)
        scalar.run_ticks(3_000)
        batch.run_ticks(3_000)
        _assert_identical(scalar, batch)
        # The planner declines overlapping groups: those ticks ran in
        # Machine.tick.
        assert batch.backend_stats()["compiled_ticks"] < batch.clock.tick

    def test_non_standard_rng_falls_back_generically(self):
        class LoudRandom(random.Random):
            pass

        def swap(machine):
            machine._jitter_rngs[0] = LoudRandom(123)

        scalar = _machine(BACKEND_SCALAR)
        batch = _machine(BACKEND_BATCH)
        swap(scalar)
        swap(batch)
        scalar.run_ticks(2_000)
        batch.run_ticks(2_000)
        _assert_identical(scalar, batch)
        # Every tick ran in Machine.tick: no span compiled.
        stats = batch.backend_stats()
        assert stats["spans"] == 0
        assert stats["compiled_ticks"] == 0 < batch.clock.tick

    def test_idle_machine_matches_scalar(self):
        # No running task is the third shape the planner declines.
        # Every task pauses mid-run with cache inertia on, an energy
        # model attached, a periodic timer and overhead pending, then
        # resumes; scalar and batch must agree after every step.
        from repro.sim.energy import EnergyModel

        def build(backend):
            machine = _machine(backend, sigma=0.015, tau=0.15)
            machine.attach_energy_model(
                EnergyModel(machine.config.num_cores)
            )
            fired = []

            def periodic():
                fired.append(machine.clock.tick)
                machine.charge_overhead(len(fired) % 6, 3e-5)
                machine.schedule_wakeup(4.1e-3, periodic)

            machine.schedule_wakeup(4.1e-3, periodic)
            return machine, fired

        def state(machine):
            energy = machine.energy
            return (
                machine.clock.tick,
                machine.rho,
                [(c.instructions, c.cycles, c.llc_accesses, c.llc_misses)
                 for c in _counters(machine)],
                [machine.cache.effective_ways(core)
                 for core in range(machine.config.num_cores)],
                list(machine._stolen_s),
                (energy.system_joules, energy.elapsed_s),
            )

        (scalar, fired_s), (batch, fired_b) = build(BACKEND_SCALAR), \
            build(BACKEND_BATCH)
        pids = [proc.pid for proc in scalar.processes]
        assert pids == [proc.pid for proc in batch.processes]
        idle_from = None
        for index, step in enumerate((300, 1, 40, 900, 7, 500, 2_000)):
            for machine in (scalar, batch):
                if index == 1:
                    for pid in pids:
                        machine.pause(pid)
                    machine.charge_overhead(0, 2e-5)
                    machine.charge_overhead(3, 5e-5)
                if index == 5:
                    for pid in pids:
                        machine.resume(pid)
                machine.run_ticks(step)
            if index == 1:
                idle_from = batch.backend_stats()["compiled_ticks"]
            assert state(scalar) == state(batch), index
            assert fired_s == fired_b
            if 1 <= index < 5:
                # Idle: every tick ran in Machine.tick.
                assert batch.backend_stats()["compiled_ticks"] == idle_from
        assert batch.backend_stats()["compiled_ticks"] > idle_from
        assert len(fired_b) > 100


class TestOneKernelPerShape:
    """Each 7-field shape compiles once and serves every span of it."""

    def _record_kernels(self, monkeypatch):
        """Route kernel compilation through a recorder.

        Returns ``(requested, calls)``: every shape requested from
        ``_compile_kernel``, and per kernel call its shape and whether
        any of its lanes' cores had overhead pending.
        """
        monkeypatch.setattr(spanplan, "_KERNEL_CODE_CACHE", {})
        original = spanplan._compile_kernel
        requested = []
        calls = []

        def compile_kernel(shape, plan, stats):
            requested.append(shape)
            kernel = original(shape, plan, stats)
            cores = plan.slots[:len(plan.procs)]

            def run(span, rho, now, *bounds):
                pending = any(plan.stolen[core] for core in cores)
                calls.append((shape, pending))
                return kernel(span, rho, now, *bounds)

            return run

        monkeypatch.setattr(spanplan, "_compile_kernel", compile_kernel)
        return requested, calls

    def test_pending_overhead_runs_the_same_kernel(self, monkeypatch):
        requested, calls = self._record_kernels(monkeypatch)
        # One-phase tasks only: the running set keeps one plan (and one
        # shape) however long the machine runs.
        config = MachineConfig(
            seed=3, os_jitter_sigma=0.015, timer_jitter_prob=0.0,
        )
        machine = Machine(config, backend=BACKEND_BATCH)
        machine.spawn(
            make_fg(phases=(make_phase("solo", instructions=4e7),)),
            core=0, nice=-5,
        )
        for core in (1, 2, 3):
            machine.spawn(_flat_bg(), core=core, nice=5)
        machine.settle_cache()
        for index in range(12):
            if index % 2:
                machine.charge_overhead(0, 2e-5)
                machine.charge_overhead(2, 3e-5)
            machine.run_ticks(25)
        with_overhead = {shape for shape, pending in calls if pending}
        without = {shape for shape, pending in calls if not pending}
        assert with_overhead and with_overhead == without
        assert machine.backend_stats()["kernels_compiled"] == 1
        assert len(set(requested)) == 1

    def test_kernels_compiled_counts_distinct_shapes(self, monkeypatch):
        requested, _ = self._record_kernels(monkeypatch)
        batch, parked = _mixed_guard_machine(BACKEND_BATCH, 0.0)
        for index, step in enumerate((5, 200, 3, 900, 40, 1500)):
            batch.charge_overhead(1, 2e-5)
            batch.charge_overhead(4, 4e-5)
            if index == 3:
                batch.resume(parked)
            batch.run_ticks(step)
        stats = batch.backend_stats()
        assert requested
        assert len(spanplan.SHAPE_FIELDS) == 7
        assert {len(shape) for shape in requested} == {7}
        assert stats["kernels_compiled"] == len(set(requested))
        assert stats["kernels_compiled"] == len(spanplan._KERNEL_CODE_CACHE)

    def test_sigma0_clone_bg_machine_compiles_one_kernel(self, monkeypatch):
        # Five identical BG tasks beside one FG at sigma 0 are clone
        # lanes; they run the same one kernel as any other shape.
        requested, _ = self._record_kernels(monkeypatch)

        def build(backend):
            config = MachineConfig(
                seed=7, os_jitter_sigma=0.0, timer_jitter_prob=0.0,
            )
            machine = Machine(config, backend=backend)
            machine.spawn(make_fg(), core=0, nice=-5)
            for core in range(1, config.num_cores):
                machine.spawn(make_bg(heavy=True), core=core, nice=5)
            machine.settle_cache()
            return machine

        scalar, batch = build(BACKEND_SCALAR), build(BACKEND_BATCH)
        scalar.run_ticks(6_000)
        batch.run_ticks(6_000)
        _assert_identical(scalar, batch)
        assert batch.backend_stats()["kernels_compiled"] == 1
        assert len(set(requested)) == 1

    @staticmethod
    def _partitioned(backend, fg_ways, paused_core=None):
        """1 FG + 4 one-phase BG tasks under an FG partition of
        ``fg_ways`` ways, with the BG task on ``paused_core`` stopped."""
        config = MachineConfig(
            seed=21, os_jitter_sigma=0.015, timer_jitter_prob=0.0,
        )
        machine = Machine(config, backend=backend)
        machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
        for core in (1, 2, 3, 4):
            bg = machine.spawn(_flat_bg(), core=core, nice=5)
            if core == paused_core:
                machine.pause(bg.pid)
        machine.set_fg_partition([0], fg_ways)
        machine.settle_cache()
        return machine

    @pytest.mark.parametrize("variants", [
        # Only the FG partition size differs: way counts are plan
        # constants, not shape.
        ((4, None), (10, None)),
        # Only which BG core is paused differs: the lanes' cores are
        # plan constants, and the idle core takes the slot after them.
        ((6, 2), (6, 4)),
    ], ids=["fg-ways", "paused-core"])
    def test_placement_and_way_counts_share_one_kernel(
        self, monkeypatch, variants
    ):
        requested, _ = self._record_kernels(monkeypatch)
        for fg_ways, paused in variants:
            scalar = self._partitioned(BACKEND_SCALAR, fg_ways, paused)
            batch = self._partitioned(BACKEND_BATCH, fg_ways, paused)
            for step in (7, 300, 2_000):
                scalar.run_ticks(step)
                batch.run_ticks(step)
            _assert_identical(scalar, batch)
            assert batch.backend_stats()["spans"] > 0
        assert len(set(requested)) == 1
        assert len(spanplan._KERNEL_CODE_CACHE) == 1


class TestOnePlanPerLaneSet:
    """One span plan per lane set (the running processes under one
    cache-mask epoch): phase crossings and DVFS grade changes rewrite
    the live plan's lane constants instead of building a new plan."""

    @staticmethod
    def _record_builds(monkeypatch):
        """Every plan ``_build_plan`` returns, in build order."""
        built = []
        original = spanplan._build_plan

        def build(*args):
            plan = original(*args)
            if plan is not None:
                built.append(plan)
            return plan

        monkeypatch.setattr(spanplan, "_build_plan", build)
        return built

    def test_dvfs_flips_and_phase_crossings_build_one_plan_per_lane_set(
        self,
    ):
        scalar, batch = _machine(BACKEND_SCALAR), _machine(BACKEND_BATCH)
        parked = batch.process_on_core(3).pid
        states = set()
        for index in range(48):
            for machine in (scalar, batch):
                machine.step_frequency(index % 6, 1 if index % 4 < 2 else -1)
                if index == 24:
                    machine.pause(parked)
                if index == 36:
                    machine.resume(parked)
                machine.run_ticks(97)
            states.add(tuple(
                (proc.state, proc._phase_index, batch._gov_freqs[proc.core])
                for proc in batch.processes
            ))
        _assert_identical(scalar, batch)
        stats = batch.backend_stats()
        # Two lane sets (all six tasks; five while one is paused) over
        # many more (phase, frequency) states, each of which built a
        # plan of its own while plans were keyed by state.
        assert len(states) > 20
        assert stats["plan_builds"] == 2
        assert stats["plan_reuses"] > 40
        assert stats["compiled_ticks"] == batch.clock.tick

    def test_apki_sign_flip_rebuilds_the_plan(self, monkeypatch):
        built = self._record_builds(monkeypatch)
        flipping = WorkloadSpec(
            name="flip-bg", kind=KIND_BG, phases=(
                make_phase("quiet", instructions=3e8, apki=0.0),
                make_phase("busy", instructions=4e8, apki=30.0),
            ),
        )

        def build(backend):
            config = MachineConfig(
                seed=17, os_jitter_sigma=0.015, timer_jitter_prob=0.0,
            )
            machine = Machine(config, backend=backend)
            machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
            machine.spawn(make_bg(heavy=True), core=1, nice=5)
            machine.spawn(flipping, core=2, nice=5)
            machine.settle_cache()
            return machine

        scalar, batch = build(BACKEND_SCALAR), build(BACKEND_BATCH)
        for step in (5, 300, 40, 1_200, 7, 2_500):
            scalar.run_ticks(step)
            batch.run_ticks(step)
        _assert_identical(scalar, batch)
        # The flipping lane's apki sign changes the cache grouping and
        # the kernel shape, so each flip builds a plan; nothing else
        # does.
        signs = [plan.apki[2] > 0 for plan in built]
        assert len(signs) >= 4
        assert all(a != b for a, b in zip(signs, signs[1:]))
        assert batch.backend_stats()["plan_builds"] == len(built)
        assert batch.backend_stats()["compiled_ticks"] == batch.clock.tick

    def test_fg_entering_its_last_phase_on_a_reused_plan(self):
        # The FG leaves the guard set when it enters its last phase; its
        # bound must not stay at the previous phase's end, or every span
        # after the crossing trips at once and falls back to
        # Machine.tick.
        def build(backend):
            config = MachineConfig(
                seed=5, os_jitter_sigma=0.015, timer_jitter_prob=0.0,
            )
            machine = Machine(config, backend=backend)
            machine.spawn(
                make_fg(input_noise=0.05, phases=(
                    make_phase("a", instructions=1e8),
                    make_phase("b", instructions=1.5e8, apki=20.0),
                    make_phase("c", instructions=1e8, apki=12.0),
                )),
                core=0, nice=-5,
            )
            for core in (1, 2, 3):
                machine.spawn(_flat_bg(), core=core, nice=5)
            machine.settle_cache()
            return machine

        scalar, batch = build(BACKEND_SCALAR), build(BACKEND_BATCH)
        records = {}
        for machine in (scalar, batch):
            log = records.setdefault(machine.backend, [])
            machine.add_completion_listener(
                lambda proc, record, log=log: log.append(
                    (record.index, record.end_s)
                )
            )
        for _ in range(30):
            scalar.run_ticks(50)
            batch.run_ticks(50)
        _assert_identical(scalar, batch)
        assert len(records[BACKEND_BATCH]) >= 3
        assert records[BACKEND_SCALAR] == records[BACKEND_BATCH]
        stats = batch.backend_stats()
        assert stats["plan_builds"] == 1
        assert stats["compiled_ticks"] == batch.clock.tick

    def test_repartition_drops_the_previous_epochs_plans(self):
        scalar, batch = _machine(BACKEND_SCALAR), _machine(BACKEND_BATCH)
        planner = batch._batch_engine._planner
        parked = batch.process_on_core(4).pid
        for machine in (scalar, batch):
            machine.run_ticks(300)
            machine.pause(parked)
            machine.run_ticks(300)
            machine.resume(parked)
        old = list(planner._plans.values())
        assert len(old) == 2
        for ways in (6, 10):
            for machine in (scalar, batch):
                machine.set_fg_partition([0], ways)
                machine.run_ticks(400)
            # Only the current epoch's one lane set has a plan.
            plans = list(planner._plans.values())
            assert len(plans) == 1
            assert all(plan is not stale for plan in plans for stale in old)
            old = plans
        _assert_identical(scalar, batch)
        assert batch.backend_stats()["plan_builds"] == 4


class _Sampler:
    """A minimal periodic sampler honoring ``Machine.attach_sampler``.

    Every ``every``-th wakeup is a decision: it steps its core's DVFS
    grade at its own tick.  The rest only charge overhead, read the FG
    counters and reschedule, exactly like the Dirigent runtime's
    sample-only wakeups.  Each grant runs up to the next decision, which
    a span kernel takes too and hands over last, so the decision runs
    after the rows are folded, as the runtime's does.  ``events`` is
    shared with other timers to pin firing order; ``live`` lists the
    ticks of the wakeups that fired as timers.
    """

    def __init__(self, machine, events, *, every=5, core=1, cores=(0,)):
        self.machine = machine
        self.events = events
        self.every = every
        self.core = core
        self.cores = cores
        self.count = 0
        self.live = []
        self.period_s = 5e-3
        self.overhead_s = 1e-4
        self._wakeup = self._on_wakeup
        machine.schedule_wakeup(self.period_s, self._wakeup)
        machine.attach_sampler(self)

    @property
    def sample_wakeup(self):
        return self._wakeup

    @property
    def sample_terms(self):
        return (self.period_s, self.core, self.overhead_s, self.cores)

    def sample_budget(self):
        return self.every - self.count % self.every

    def replay_samples(self, samples):
        for row in samples:
            self._sample(tuple(row))
        self._decide()

    def _on_wakeup(self):
        m = self.machine
        self.live.append(m.clock.tick)
        m.charge_overhead(self.core, self.overhead_s)
        self._sample((m.now(),) + tuple(
            m.read_counters(core).instructions for core in self.cores
        ))
        self._decide()
        m.schedule_wakeup(self.period_s, self._wakeup)

    def _sample(self, row):
        self.count += 1
        self.events.append(("sample",) + row)

    def _decide(self):
        if self.count % self.every == 0:
            self.machine.step_frequency(
                self.core, 1 if self.count % 2 else -1
            )


class TestInKernelWakeups:
    """Sample-only wakeups taken inside the span kernels."""

    def _pair(self, build, **sampler_kwargs):
        pairs = []
        for backend in (BACKEND_SCALAR, BACKEND_BATCH):
            machine = build(backend)
            events = []
            pairs.append(
                (machine, events, _Sampler(machine, events, **sampler_kwargs))
            )
        return pairs

    @pytest.mark.parametrize("sigma,tau", [
        (0.015, 0.15),  # jittered kernels
        (0.0, 0.0),     # jitter-free, snap occupancy
        (0.0, 0.15),    # jitter-free, clone lanes (the two flat BG tasks)
    ])
    def test_bit_identical_and_every_sample_only_wakeup_in_kernel(
        self, sigma, tau
    ):
        # The sampler is pinned to the paused task's idle core, whose
        # stolen time piles up outside every lane, as the runtime's
        # does when the fine controller pauses its BG task.
        (scalar, ev_s, smp_s), (batch, ev_b, smp_b) = self._pair(
            lambda backend: _mixed_guard_machine(backend, sigma, tau)[0],
            core=2,
        )
        for step in (1, 3, 32, 700, 5, 32, 32, 2_000):
            scalar.run_ticks(step)
            batch.run_ticks(step)
        assert ev_s == ev_b
        assert smp_s.count == smp_b.count > 100
        assert batch._stolen_s == scalar._stolen_s
        _assert_identical(scalar, batch)
        stats = batch.backend_stats()
        # Every wakeup, decisions included, ran in-kernel: a silent
        # fallback to the plain path fails here.
        assert stats["kernel_wakeups"] == smp_b.count
        assert smp_b.live == []

    def test_several_fg_lanes_fill_the_sample_row(self):
        def build(backend):
            config = MachineConfig(seed=4, timer_jitter_prob=0.3)
            machine = Machine(config, backend=backend)
            for core in (0, 2, 3):
                machine.spawn(make_fg(input_noise=0.05), core=core, nice=-5)
            for core in (1, 4, 5):
                machine.spawn(make_bg(heavy=core % 2 == 0), core=core,
                              nice=5)
            machine.settle_cache()
            return machine

        (scalar, ev_s, _), (batch, ev_b, smp_b) = self._pair(
            build, cores=(0, 2, 3), core=4,
        )
        scalar.run_ticks(3_000)
        batch.run_ticks(3_000)
        assert ev_s == ev_b
        assert all(len(event) == 5 for event in ev_b)
        _assert_identical(scalar, batch)
        stats = batch.backend_stats()
        assert stats["kernel_wakeups"] == smp_b.count

    def test_foreign_timer_on_sample_ticks_fires_in_scalar_order(self):
        # A second periodic timer shares the wheel (and its jitter RNG)
        # and lands on sample ticks now and then; it actuates, so spans
        # must stop at it and the requeued sampler timer must keep the
        # sequence number the plain path gives it.
        def build(backend):
            config = MachineConfig(seed=13, timer_jitter_prob=0.5)
            machine = Machine(config, backend=backend)
            machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
            for core in range(1, config.num_cores):
                machine.spawn(make_bg(heavy=core % 2 == 0), core=core,
                              nice=5)
            machine.settle_cache()
            return machine

        def start_foreign(machine, events):
            def foreign():
                events.append(("foreign", machine.clock.tick))
                machine.charge_overhead(0, 2e-4)
                machine.step_frequency(2, -1 if len(events) % 3 else 1)
                machine.schedule_wakeup(7.3e-3, foreign)

            machine.schedule_wakeup(7.3e-3, foreign)

        (scalar, ev_s, _), (batch, ev_b, smp_b) = self._pair(build)
        start_foreign(scalar, ev_s)
        start_foreign(batch, ev_b)
        for machine in (scalar, batch):
            machine.run_ticks(6_000)
        assert ev_s == ev_b
        dt = scalar.config.tick_s
        ticks = {}
        for event in ev_b:
            tick = event[1] if event[0] == "foreign" else round(event[1] / dt)
            ticks.setdefault(tick, set()).add(event[0])
        assert any(kinds == {"sample", "foreign"} for kinds in ticks.values())
        _assert_identical(scalar, batch)
        assert batch.backend_stats()["kernel_wakeups"] > 0

    def test_decision_tick_shared_with_a_timer_or_transition_stays_live(
        self,
    ):
        # Decisions land on ticks 25, 50, 75, ... (no timer jitter).  A
        # foreign timer fires at tick 50, and one at tick 72 steps core
        # 3 with a 3-tick transition that applies at tick 75: those two
        # decisions are not alone on their ticks, so they fire as
        # timers; every other wakeup runs in-kernel.
        def build(backend):
            config = MachineConfig(seed=9, timer_jitter_prob=0.0,
                                   freq_transition_ticks=3)
            machine = Machine(config, backend=backend)
            machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
            for core in range(1, config.num_cores):
                machine.spawn(make_bg(heavy=core % 2 == 0), core=core,
                              nice=5)
            machine.settle_cache()
            return machine

        (scalar, ev_s, _), (batch, ev_b, smp_b) = self._pair(build)
        for machine, events in ((scalar, ev_s), (batch, ev_b)):
            def at_50(machine=machine, events=events):
                events.append(("foreign", machine.clock.tick))

            def at_72(machine=machine, events=events):
                events.append(("foreign", machine.clock.tick))
                machine.step_frequency(3, -1)

            dt = machine.config.tick_s
            machine.schedule_wakeup(50 * dt, at_50)
            machine.schedule_wakeup(72 * dt, at_72)
            machine.run_ticks(400)
        assert ev_s == ev_b
        _assert_identical(scalar, batch)
        assert smp_b.live == [50, 75]
        assert batch.backend_stats()["kernel_wakeups"] == smp_b.count - 2

    def test_acting_wakeup_at_a_spans_first_tick(self, monkeypatch):
        # A run_ticks call that ends at a decision tick leaves that
        # wakeup to the next call, whose first span takes it before
        # running any tick (0 ticks executed); Machine.tick then runs
        # that tick after the decision.
        from repro.sim.batch import BatchEngine

        sampled_span = BatchEngine._sampled_span
        first_tick = []

        def spy(engine, m, sampler, budget):
            before = sampler.count
            executed = sampled_span(engine, m, sampler, budget)
            if executed == 0 and sampler.count == before + 1:
                first_tick.append((m.clock.tick, sampler.count))
            return executed

        monkeypatch.setattr(BatchEngine, "_sampled_span", spy)
        (scalar, ev_s, smp_s), (batch, ev_b, smp_b) = self._pair(
            lambda backend: _machine(backend)
        )
        for _ in range(12):
            # Run up to the next decision tick, then a little past it.
            period = batch.clock.ticks_for(smp_b.period_s)
            step = (batch.timers.next_deadline() - batch.clock.tick
                    + (smp_b.sample_budget() - 1) * period)
            for machine in (scalar, batch):
                machine.run_ticks(step)
                machine.run_ticks(3)
        assert ev_s == ev_b
        _assert_identical(scalar, batch)
        assert first_tick
        assert all(count % smp_b.every == 0 for _, count in first_tick)
        assert batch.backend_stats()["kernel_wakeups"] == smp_b.count

    def test_zero_budget_and_unrecognized_timers_take_the_plain_path(self):
        # A budget of 0 (as the runtime's outside normal mode), and a
        # sampler naming a callback other than the one it schedules (a
        # method of another function; a fresh binding of the scheduled
        # method would count as it), both leave every wakeup to the
        # plain path: results match scalar and nothing runs in-kernel.
        class Halted(_Sampler):
            def sample_budget(self):
                return 0

        class Unnamed(_Sampler):
            @property
            def sample_wakeup(self):
                return self._sample

        for sampler_cls, every in ((Halted, 1), (Unnamed, 5)):
            runs = []
            for backend in (BACKEND_SCALAR, BACKEND_BATCH):
                machine = _machine(backend)
                events = []
                sampler_cls(machine, events, every=every)
                machine.run_ticks(1_500)
                runs.append((machine, events))
            (scalar, ev_s), (batch, ev_b) = runs
            assert ev_s == ev_b
            assert len(ev_b) > 200
            _assert_identical(scalar, batch)
            assert batch.backend_stats()["kernel_wakeups"] == 0

    def test_wraps_wrapped_timer_callbacks_still_engage(self, monkeypatch):
        # Tracers wrap every schedule_wakeup callback with
        # functools.wraps; the wheel sees through the wrapper.
        import functools

        original = Machine.schedule_wakeup

        def schedule_wakeup(machine, delay_s, callback):
            @functools.wraps(callback)
            def traced():
                return callback()

            return original(machine, delay_s, traced)

        monkeypatch.setattr(Machine, "schedule_wakeup", schedule_wakeup)
        (scalar, ev_s, _), (batch, ev_b, smp_b) = self._pair(
            lambda backend: _machine(backend)
        )
        scalar.run_ticks(2_000)
        batch.run_ticks(2_000)
        assert ev_s == ev_b
        _assert_identical(scalar, batch)
        stats = batch.backend_stats()
        assert stats["kernel_wakeups"] == smp_b.count > 0

    def test_sample_on_a_guard_trip_tick_is_requeued_and_replayed(self):
        # Wakeups every tick-rounded period while the FG crosses phase
        # boundaries and completes: some samples land on the tick a
        # guard trips or an execution completes, where the kernel may
        # run no tick at all; those are still replayed, in order,
        # before the fallback tick.
        def build(backend):
            config = MachineConfig(seed=21, timer_jitter_prob=0.0)
            machine = Machine(config, backend=backend)
            machine.spawn(
                make_fg(input_noise=0.05, phases=(
                    make_phase("a", instructions=2e7),
                    make_phase("b", instructions=3e7, apki=20.0),
                    make_phase("c", instructions=1e7),
                )),
                core=0, nice=-5,
            )
            machine.spawn(make_bg(heavy=True), core=1, nice=5)
            machine.settle_cache()
            return machine

        (scalar, ev_s, _), (batch, ev_b, smp_b) = self._pair(build)
        records = {}
        for machine in (scalar, batch):
            log = records.setdefault(machine.backend, [])
            machine.add_completion_listener(
                lambda proc, record, log=log: log.append(
                    (proc.pid, record.index, record.end_s)
                )
            )
        for _ in range(60):
            scalar.run_ticks(32)
            batch.run_ticks(32)
        assert ev_s == ev_b
        assert len(records[BACKEND_BATCH]) > 5
        assert records[BACKEND_SCALAR] == records[BACKEND_BATCH]
        _assert_identical(scalar, batch)
        stats = batch.backend_stats()
        assert stats["kernel_wakeups"] == smp_b.count


class TestPropertyEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        sigma=st.sampled_from([0.0, 0.01, 0.02]),
        tau=st.sampled_from([0.0, 0.15]),
        seed=st.integers(min_value=0, max_value=2**16),
        chunks=st.lists(
            st.integers(min_value=1, max_value=700), min_size=1, max_size=5
        ),
        overhead=st.booleans(),
    )
    def test_scalar_batch_bit_identical(
        self, sigma, tau, seed, chunks, overhead
    ):
        scalar = _machine(BACKEND_SCALAR, sigma=sigma, tau=tau, seed=seed)
        batch = _machine(BACKEND_BATCH, sigma=sigma, tau=tau, seed=seed)
        for index, chunk in enumerate(chunks):
            for machine in (scalar, batch):
                if overhead and index % 2 == 0:
                    machine.charge_overhead(0, 1.5e-5)
                machine.run_ticks(chunk)
        _assert_identical(scalar, batch)
