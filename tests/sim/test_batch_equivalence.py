"""Scalar/batch backend equivalence.

The batch engine (:mod:`repro.sim.batch`) must be indistinguishable
from the scalar reference kernel: bit-identical counters, execution
records, cache occupancy, and policy decisions when OS-jitter sigma is
0, and within rel 1e-9 with jitter on (in practice the RNG streams
align draw-for-draw, so even jittered runs match exactly; the tests
assert the guaranteed tolerance).
"""

from __future__ import annotations

import pytest

from repro.core.policies import DIRIGENT
from repro.errors import ConfigurationError
from repro.experiments.harness import PolicySession, clear_caches, run_policy
from repro.experiments.mixes import mix_by_name
from repro.sim.batch import (
    BACKEND_BATCH,
    BACKEND_SCALAR,
    DEFAULT_BACKEND,
    ENV_BACKEND,
    resolve_backend,
)
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from tests.conftest import make_bg, make_fg


def _records_of(machine):
    records = []
    machine.add_completion_listener(
        lambda proc, record: records.append(
            (
                proc.pid,
                record.index,
                record.start_s,
                record.end_s,
                record.instructions,
                record.llc_misses,
            )
        )
    )
    return records


def _pair(config, populate):
    """Two identical machines, one per backend, plus their record logs."""
    machines = []
    logs = []
    for backend in (BACKEND_SCALAR, BACKEND_BATCH):
        machine = Machine(config, backend=backend)
        logs.append(_records_of(machine))
        populate(machine)
        machines.append(machine)
    return machines, logs


def _spawn_mixed(machine):
    machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
    for core in range(1, machine.config.num_cores):
        machine.spawn(make_bg(heavy=core % 2 == 0), core=core, nice=5)


def _assert_counters_equal(scalar, batch, rel=0.0):
    for core in range(scalar.config.num_cores):
        a = scalar.read_counters(core)
        b = batch.read_counters(core)
        for field in ("instructions", "cycles", "llc_accesses", "llc_misses"):
            if rel == 0.0:
                assert getattr(a, field) == getattr(b, field)
            else:
                assert getattr(a, field) == pytest.approx(
                    getattr(b, field), rel=rel
                )


class TestResolveBackend:
    def test_default_is_batch(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend() == DEFAULT_BACKEND == BACKEND_BATCH

    def test_environment_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "scalar")
        assert resolve_backend() == BACKEND_SCALAR

    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "scalar")
        assert resolve_backend("batch") == BACKEND_BATCH

    def test_unknown_backend_rejected(self):
        for name in ("vectorized", "vector"):
            with pytest.raises(ConfigurationError, match="scalar, batch"):
                resolve_backend(name)

    def test_machine_records_backend(self):
        assert Machine(MachineConfig(), backend="scalar").backend == "scalar"
        assert Machine(MachineConfig(), backend="batch").backend == "batch"


class TestNoiseFreeBitEquivalence:
    """sigma = 0: every observable must match bit-for-bit."""

    def test_single_fg_counters_and_records(self):
        config = MachineConfig(seed=42, os_jitter_sigma=0.0)
        (scalar, batch), (log_s, log_b) = _pair(
            config, lambda m: m.spawn(make_fg(input_noise=0.05), core=0)
        )
        scalar.run_ticks(20_000)
        batch.run_ticks(20_000)
        assert scalar.clock.tick == batch.clock.tick == 20_000
        _assert_counters_equal(scalar, batch)
        assert log_s and log_s == log_b
        assert scalar.rho == batch.rho

    def test_contended_mix_counters_records_occupancy(self):
        config = MachineConfig(seed=7, os_jitter_sigma=0.0)
        (scalar, batch), (log_s, log_b) = _pair(config, _spawn_mixed)
        scalar.run_ticks(20_000)
        batch.run_ticks(20_000)
        _assert_counters_equal(scalar, batch)
        assert log_s and log_s == log_b
        for core in range(config.num_cores):
            assert scalar.cache.effective_ways(core) == pytest.approx(
                batch.cache.effective_ways(core), rel=0, abs=0
            )

    def test_chunked_driving_matches_one_shot(self):
        config = MachineConfig(seed=11, os_jitter_sigma=0.0)
        (one_shot, chunked), (log_a, log_b) = _pair(config, _spawn_mixed)
        one_shot.backend = "batch"  # both batch; drive patterns differ
        one_shot.run_ticks(15_000)
        remaining = 15_000
        for chunk in (1, 7, 93, 2048):
            chunked.run_ticks(chunk)
            remaining -= chunk
        chunked.run_ticks(remaining)
        assert one_shot.clock.tick == chunked.clock.tick
        _assert_counters_equal(one_shot, chunked)
        assert log_a == log_b


class TestCompletionWindowEquivalence:
    """sigma = 0 around FG completions, where span kernels stop early."""

    def test_one_tick_chunks_around_completions(self):
        # Tiny drive chunks force 1-tick span budgets around the
        # completion window, so guards and completions land on the
        # first tick of a span.
        def populate(machine):
            machine.spawn(
                make_fg(input_noise=0.05, total_gi=0.2), core=0, nice=-5
            )
            for core in range(1, machine.config.num_cores):
                machine.spawn(make_bg(heavy=core % 2 == 0),
                              core=core, nice=5)

        config = MachineConfig(seed=111, os_jitter_sigma=0.0,
                               timer_jitter_prob=0.0)
        (scalar, batch), (log_s, log_b) = _pair(config, populate)
        chunks = (2_500, 1, 1, 1, 2, 3, 500) * 4
        scalar.run_ticks(sum(chunks))
        for chunk in chunks:
            batch.run_ticks(chunk)
        assert scalar.clock.tick == batch.clock.tick
        _assert_counters_equal(scalar, batch)
        assert log_s and log_s == log_b
        assert scalar.rho == batch.rho

    def test_completions_at_the_rho_fixed_point(self):
        # Single-phase FG + one long BG phase: the trajectory sits at
        # its rho fixed point, and each FG completion only redraws the
        # next execution's noisy target.
        from tests.conftest import make_phase

        def populate(machine):
            fg = make_fg(
                phases=(make_phase(
                    "only", instructions=2e8, base_cpi=0.7,
                    mpki_floor=0.3, mpki_peak=1.5, apki=8.0,
                ),),
                input_noise=0.05,
            )
            machine.spawn(fg, core=0, nice=-5)
            bg = make_bg()
            bg = type(bg)(
                name=bg.name, kind=bg.kind,
                phases=(make_phase("flat", instructions=1e12),),
            )
            for core in range(1, machine.config.num_cores):
                machine.spawn(bg, core=core, nice=5)

        config = MachineConfig(seed=121, os_jitter_sigma=0.0,
                               timer_jitter_prob=0.0)
        (scalar, batch), (log_s, log_b) = _pair(config, populate)
        scalar.run_ticks(18_000)
        batch.run_ticks(18_000)
        _assert_counters_equal(scalar, batch)
        assert len(log_s) > 1 and log_s == log_b
        assert scalar.rho == batch.rho


class TestJitteredEquivalence:
    """sigma > 0: rel <= 1e-9 guaranteed (streams align, so exact)."""

    def test_contended_mix_with_jitter(self):
        config = MachineConfig(seed=3)  # default sigma = 0.015
        (scalar, batch), (log_s, log_b) = _pair(config, _spawn_mixed)
        scalar.run_ticks(20_000)
        batch.run_ticks(20_000)
        _assert_counters_equal(scalar, batch, rel=1e-9)
        assert len(log_s) == len(log_b)
        for rec_s, rec_b in zip(log_s, log_b):
            assert rec_s[:2] == rec_b[:2]  # pid, index
            for a, b in zip(rec_s[2:], rec_b[2:]):
                assert a == pytest.approx(b, rel=1e-9)


class TestEventEquivalence:
    """Timers, DVFS transitions, pauses, and partitions across backends."""

    def _run_with_events(self, backend):
        config = MachineConfig(seed=13, timer_jitter_prob=0.5)
        machine = Machine(config, backend=backend)
        log = _records_of(machine)
        _spawn_mixed(machine)
        trace = []

        def periodic():
            tick = machine.clock.tick
            trace.append((tick, machine.read_counters(0).instructions))
            # Exercise every event source the horizon must respect.
            bg_proc = machine.process_on_core(1)
            if machine.is_paused(bg_proc.pid):
                machine.resume(bg_proc.pid)
            else:
                machine.pause(bg_proc.pid)
            machine.step_frequency(2, -1 if tick % 20 else 1)
            if tick % 1000 < 500:
                machine.set_fg_partition([0], 12)
            else:
                machine.clear_partitions()
            machine.charge_overhead(0, 2e-4)
            machine.schedule_wakeup(7.3e-3, periodic)

        machine.schedule_wakeup(7.3e-3, periodic)
        machine.run_ticks(8_000)
        return machine, log, trace

    def test_event_stream_identical(self):
        scalar, log_s, trace_s = self._run_with_events(BACKEND_SCALAR)
        batch, log_b, trace_b = self._run_with_events(BACKEND_BATCH)
        assert trace_s == trace_b  # same fire ticks, same observed counters
        assert log_s == log_b
        _assert_counters_equal(scalar, batch)
        for core in range(scalar.config.num_cores):
            assert scalar.governor.grade(core) == batch.governor.grade(core)

    def test_energy_model_identical(self):
        from repro.sim.energy import EnergyModel

        totals = []
        for backend in (BACKEND_SCALAR, BACKEND_BATCH):
            config = MachineConfig(seed=5, os_jitter_sigma=0.0)
            machine = Machine(config, backend=backend)
            machine.attach_energy_model(EnergyModel(config.num_cores))
            _spawn_mixed(machine)
            machine.run_ticks(10_000)
            totals.append(
                (machine.energy.system_joules, machine.energy.elapsed_s)
            )
        assert totals[0] == totals[1]
        # An attached energy model keeps every tick in the span kernels:
        # a silent fallback to Machine.tick would pass the check above.
        assert machine.backend_stats()["compiled_ticks"] == machine.clock.tick


class TestPolicyDecisionEquivalence:
    """The full Dirigent stack must decide identically on both backends."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    def test_dirigent_run_identical(self, monkeypatch):
        results = {}
        for backend in (BACKEND_SCALAR, BACKEND_BATCH):
            monkeypatch.setenv(ENV_BACKEND, backend)
            clear_caches()
            results[backend] = run_policy(
                mix_by_name("ferret rs"), DIRIGENT, executions=4, warmup=1
            )
        scalar, batch = results[BACKEND_SCALAR], results[BACKEND_BATCH]
        assert scalar.durations_s == batch.durations_s
        assert scalar.deadlines_s == batch.deadlines_s
        assert scalar.bg_grade_histogram == batch.bg_grade_histogram
        assert scalar.partition_history == batch.partition_history
        assert scalar.fg_instr == batch.fg_instr
        assert scalar.bg_instr == batch.bg_instr
        assert scalar.elapsed_s == batch.elapsed_s


class TestFaultedEquivalence:
    """Fault injection is seeded at the OSAL layer, above the backend
    split, so a faulted run must stay bit-identical across backends:
    same injected event stream, same degradation decisions, same
    measured durations."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    @pytest.mark.parametrize("scenario_name",
                             ["sensor-degraded", "full-chaos"])
    def test_faulted_dirigent_run_identical(
        self, monkeypatch, scenario_name
    ):
        from repro.faults import scenario

        results = {}
        for backend in (BACKEND_SCALAR, BACKEND_BATCH):
            monkeypatch.setenv(ENV_BACKEND, backend)
            clear_caches()
            results[backend] = run_policy(
                mix_by_name("ferret rs"), DIRIGENT, executions=4, warmup=1,
                fault_plan=scenario(scenario_name, seed=21),
            )
        scalar, batch = results[BACKEND_SCALAR], results[BACKEND_BATCH]
        assert scalar.durations_s == batch.durations_s
        assert scalar.deadlines_s == batch.deadlines_s
        assert scalar.bg_grade_histogram == batch.bg_grade_histogram
        assert scalar.partition_history == batch.partition_history
        assert scalar.elapsed_s == batch.elapsed_s
        rep_s, rep_b = scalar.fault_report, batch.fault_report
        assert rep_s is not None and rep_b is not None
        assert rep_s.event_signature  # faults actually fired
        assert rep_s.event_signature == rep_b.event_signature
        assert rep_s.injected == rep_b.injected
        assert rep_s.rejected_samples == rep_b.rejected_samples
        assert rep_s.suspect_samples == rep_b.suspect_samples
        assert rep_s.degraded_entries == rep_b.degraded_entries
        assert rep_s.safe_entries == rep_b.safe_entries
        assert rep_s.degraded_time_s == rep_b.degraded_time_s
        assert rep_s.actuations_retried == rep_b.actuations_retried
        assert rep_s.actuations_failed == rep_b.actuations_failed


def _drive_session(monkeypatch, backend, mix, config=None, **kwargs):
    monkeypatch.setenv(ENV_BACKEND, backend)
    clear_caches()
    session = PolicySession(
        mix_by_name(mix), DIRIGENT, executions=4, warmup=1, config=config,
        **kwargs,
    )
    session.run_to_end()
    return session


def _runtime_observables(session):
    runtime = session.runtime
    result = session.result()
    return (
        runtime.invocations,
        [task.predictor.expected_penalties() for task in runtime.tasks],
        [tuple(task.prediction_log) for task in runtime.tasks],
        # Key order too: the results digest sees it, ``==`` on dicts not.
        list(runtime.bg_grade_histogram.items()),
        runtime.negative_progress_samples,
        runtime.late_wakeups,
        runtime.suspect_samples,
        runtime.health_samples,
        runtime.degraded_entries,
        runtime.safe_entries,
        # Every decision: its tick, its action and what it read.
        list(runtime.fine_controller.decisions),
        result.durations_s,
        result.fg_instr,
        result.bg_instr,
        result.partition_history,
    )


def _every_wakeup(runtime):
    # No wakeup of a Dirigent run shares its tick with another event (a
    # decision's DVFS change applies one tick later), so the kernels
    # take every one, decisions included.
    return runtime.invocations


class TestInKernelWakeupEquivalence:
    """Dirigent's wakeups run inside the span kernels, decisions too.

    The batch backend buffers them in-kernel and folds them through the
    runtime's sampling routine, which makes the decision at the acting
    wakeup's tick; every runtime observable must match the scalar
    reference, which fires each wakeup as a timer.
    """

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    @pytest.mark.parametrize("mix,sigma,tau", [
        ("raytrace x3 rs", 0.015, 0.15),  # jittered kernels
        ("ferret rs", 0.0, 0.0),          # snap occupancy (declined)
        ("ferret rs", 0.0, 0.15),         # jitter-free, clone BG lanes
    ])
    def test_dirigent_runtime_identical(
        self, monkeypatch, mix, sigma, tau
    ):
        config = MachineConfig(os_jitter_sigma=sigma, cache_inertia_tau_s=tau)
        scalar = _drive_session(monkeypatch, BACKEND_SCALAR, mix, config)
        batch = _drive_session(monkeypatch, BACKEND_BATCH, mix, config)
        assert _runtime_observables(scalar) == _runtime_observables(batch)
        stats = batch.machine.backend_stats()
        if tau > 0:
            assert (
                stats["kernel_wakeups"] == _every_wakeup(batch.runtime) > 0
            )
        else:
            # Snap occupancy is declined: no span ran, and every wakeup
            # fired as a timer.
            assert stats["spans"] == 0
            assert stats["kernel_wakeups"] == 0 < batch.runtime.invocations
        # Decisions actuated at their tick.
        actions = {d.action for d in batch.runtime.fine_controller.decisions}
        assert actions - {"none", "hold"}

    @pytest.mark.parametrize("mix", ["ferret rs", "raytrace x3 rs"])
    def test_no_plain_span_ends_at_a_sample_only_wakeup(
        self, monkeypatch, mix
    ):
        # Every wakeup sample_budget() grants is the sampling kernel's
        # to take, decision wakeups and the one right after them
        # included: a plain span may end at the runtime's wakeup only
        # when nothing is granted (or the run itself ends there).
        from repro.sim.batch import BatchEngine

        monkeypatch.setenv(ENV_BACKEND, BACKEND_BATCH)
        clear_caches()
        session = PolicySession(
            mix_by_name(mix), DIRIGENT, executions=4, warmup=1,
        )
        machine = session.machine
        runtime = session.runtime
        heap = machine.timers.pending_heap()
        dispatch_span = BatchEngine._dispatch_span
        stray = []

        def plain_span(engine, m, span):
            executed = dispatch_span(engine, m, span)
            now = machine.clock.tick
            if (
                m is machine and executed == span
                and heap and heap[0][0] == now
                and heap[0][2] == runtime.sample_wakeup
                and runtime.sample_budget() > 0
            ):
                stray.append(now)
            return executed

        monkeypatch.setattr(BatchEngine, "_dispatch_span", plain_span)
        session.run_to_end()
        end = machine.clock.tick
        assert runtime.invocations > 0
        assert machine.backend_stats()["kernel_wakeups"] > 0
        assert [tick for tick in stray if tick != end] == []

    def test_wraps_wrapped_wakeups_still_run_in_kernel(self, monkeypatch):
        # A tracer wraps each schedule_wakeup callback with
        # functools.wraps; the runtime's timer is still recognized.
        import functools

        plain = _drive_session(monkeypatch, BACKEND_BATCH, "ferret rs")
        original = Machine.schedule_wakeup

        def schedule_wakeup(machine, delay_s, callback):
            @functools.wraps(callback)
            def traced():
                return callback()

            return original(machine, delay_s, traced)

        monkeypatch.setattr(Machine, "schedule_wakeup", schedule_wakeup)
        traced = _drive_session(monkeypatch, BACKEND_BATCH, "ferret rs")
        assert _runtime_observables(traced) == _runtime_observables(plain)
        stats = traced.machine.backend_stats()
        assert stats["kernel_wakeups"] == _every_wakeup(traced.runtime) > 0

    def test_faulted_runs_take_nothing_in_kernel(self, monkeypatch):
        from repro.faults import scenario

        session = _drive_session(
            monkeypatch, BACKEND_BATCH, "ferret rs",
            fault_plan=scenario("sensor-degraded", seed=21),
        )
        assert session.machine._sampler is None
        assert session.runtime.invocations > 0
        assert session.machine.backend_stats()["kernel_wakeups"] == 0

    def test_degraded_runtime_takes_nothing_in_kernel(self, monkeypatch):
        from repro.core.runtime import RuntimeOptions

        sessions = []
        for backend in (BACKEND_SCALAR, BACKEND_BATCH):
            monkeypatch.setenv(ENV_BACKEND, backend)
            clear_caches()
            session = PolicySession(
                mix_by_name("ferret rs"), DIRIGENT, executions=3, warmup=1,
                runtime_options=RuntimeOptions(hardening=False),
            )
            # Without hardening no health update moves the mode back.
            session.runtime.mode = "degraded"
            while not session.done:
                session.advance()
            sessions.append(session)
        scalar, batch = sessions
        assert _runtime_observables(scalar) == _runtime_observables(batch)
        assert batch.runtime.invocations > 0
        assert batch.machine.backend_stats()["kernel_wakeups"] == 0

    @pytest.mark.parametrize("with_progress_fn", [True, False])
    def test_progress_fn_tasks_take_nothing_in_kernel(self, with_progress_fn):
        from repro.core.profile import ExecutionProfile, ProfileSegment
        from repro.core.runtime import DirigentRuntime, ManagedTask

        machine = Machine(MachineConfig(seed=3), backend=BACKEND_BATCH)
        _spawn_mixed(machine)
        fg = machine.process_on_core(0)
        profile = ExecutionProfile("synthetic", 0.005, tuple(
            ProfileSegment(0.005, 1e7) for _ in range(10)
        ))
        task = ManagedTask(
            pid=fg.pid, core=0, profile=profile, deadline_s=1.0,
            ema_weight=0.2,
            progress_fn=(lambda: fg.progress) if with_progress_fn else None,
        )
        runtime = DirigentRuntime(
            machine, [task],
            [proc.pid for proc in machine.background_processes],
        )
        runtime.start()
        machine.run_ticks(3_000)
        assert runtime.invocations > 100
        taken = machine.backend_stats()["kernel_wakeups"]
        if with_progress_fn:
            assert machine._sampler is None
            assert taken == 0
        else:
            assert machine._sampler is runtime
            assert taken == _every_wakeup(runtime)
