"""Vector (multi-cell) backend equivalence.

The structure-of-arrays driver (:mod:`repro.sim.vector`) must be
indistinguishable, cell for cell, from running each machine alone:
bit-identical counters, execution records, cache occupancy, rho,
event streams, energy, and policy decisions — whether a cell fused
into cell-axis kernels, peeled off on a trip and rejoined, or never
found a bit-identical peer at all.  The scalar backend is the
reference; the per-machine batch engine (already pinned scalar-equal
by ``test_batch_equivalence``) is the peel-off path, so the suite
closes the triangle scalar == batch == vector.

A hypothesis layer samples workload shapes, seeds, cell counts, and
drive chunkings; a policy layer checks the harness/cluster consumers
(``run_policy_batch``, vectorized sessions) against their serial
twins, including a faulted plan.  Fusion counters are asserted only
when numpy imports; the equivalence assertions hold either way (the
no-numpy CI legs run this suite on the per-machine fallback).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import BASELINE, DIRIGENT
from repro.experiments.harness import (
    PolicySession,
    clear_caches,
    drive_sessions_vectorized,
    run_policy,
    run_policy_batch,
)
from repro.experiments.mixes import mix_by_name
from repro.sim.batch import BACKEND_BATCH, BACKEND_SCALAR, ENV_BACKEND
from repro.sim.config import ENV_VECTOR_CELLS, MachineConfig
from repro.sim.machine import Machine
from repro.sim.vector import MultiCell, numpy_available
from tests.conftest import make_bg, make_fg

#: Quiet config: no per-cell entropy, so identical cells can fuse.
QUIET = dict(os_jitter_sigma=0.0, timer_jitter_prob=0.0)


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


def _spawn_mixed(machine, noise=0.05):
    machine.spawn(make_fg(input_noise=noise), core=0, nice=-5)
    for core in range(1, machine.config.num_cores):
        machine.spawn(make_bg(heavy=core % 2 == 0), core=core, nice=5)


def _fleet(seeds, backend, populate=_spawn_mixed, **config_kw):
    """One machine per seed, plus their completion logs."""
    machines, logs = [], []
    for seed in seeds:
        machine = Machine(
            MachineConfig(seed=seed, **config_kw), backend=backend
        )
        logs.append(_records_of(machine))
        populate(machine)
        machines.append(machine)
    return machines, logs


def _assert_machines_equal(reference, vectored):
    assert reference.clock.tick == vectored.clock.tick
    assert reference.rho == vectored.rho
    for core in range(reference.config.num_cores):
        a = reference.read_counters(core)
        b = vectored.read_counters(core)
        for field in (
            "instructions", "cycles", "llc_accesses", "llc_misses"
        ):
            assert getattr(a, field) == getattr(b, field), (core, field)
        assert reference.cache.effective_ways(core) == \
            vectored.cache.effective_ways(core)


def _assert_fleets_equal(ref_machines, ref_logs, vec_machines, vec_logs):
    for ref, log_r, vec, log_v in zip(
        ref_machines, ref_logs, vec_machines, vec_logs
    ):
        _assert_machines_equal(ref, vec)
        assert log_r == log_v
    assert any(ref_logs)  # the workload actually completed executions


class TestMultiCellBitEquivalence:
    """MultiCell == per-machine advancement, observable for observable."""

    def test_fused_cells_match_scalar_and_batch(self):
        seeds = [3, 4, 5, 6]
        scalar, logs_s = _fleet(seeds, BACKEND_SCALAR, **QUIET)
        batch, logs_b = _fleet(seeds, BACKEND_BATCH, **QUIET)
        vector, logs_v = _fleet(seeds, BACKEND_BATCH, **QUIET)
        for m in scalar + batch:
            m.run_ticks(12_000)
        driver = MultiCell(vector)
        driver.run_ticks(12_000)
        _assert_fleets_equal(scalar, logs_s, vector, logs_v)
        _assert_fleets_equal(batch, logs_b, vector, logs_v)
        if numpy_available():
            assert driver.stats.vector_spans > 0
            assert driver.stats.cells_per_span >= (
                2 * driver.stats.vector_spans
            )

    def test_divergent_cells_peel_off_and_rejoin(self):
        # Input noise draws per-cell completion targets, so FG
        # completions land at different ticks: fused spans trip, the
        # tripped cell replays one scalar tick, and cells regroup once
        # their shared state re-coincides.
        seeds = [11, 12, 13]
        reference, logs_r = _fleet(seeds, BACKEND_BATCH, **QUIET)
        vector, logs_v = _fleet(seeds, BACKEND_BATCH, **QUIET)
        for m in reference:
            m.run_ticks(15_000)
        driver = MultiCell(vector)
        driver.run_ticks(15_000)
        _assert_fleets_equal(reference, logs_r, vector, logs_v)
        if numpy_available():
            assert driver.stats.vector_spans > 0
            assert driver.stats.vector_peels > 0
            # Noise-drawn targets land completions at different ticks,
            # so a trip evicts one cell while the others stay fused.
            assert driver.stats.partial_peels > 0

    def test_chunked_driving_matches_one_shot(self):
        seeds = [21, 22, 23]
        one_shot, logs_a = _fleet(seeds, BACKEND_BATCH, **QUIET)
        chunked, logs_b = _fleet(seeds, BACKEND_BATCH, **QUIET)
        MultiCell(one_shot).run_ticks(10_000)
        driver = MultiCell(chunked)
        remaining = 10_000
        for chunk in (1, 7, 93, 2048):
            driver.run_ticks(chunk)
            remaining -= chunk
        driver.run_ticks(remaining)
        _assert_fleets_equal(one_shot, logs_a, chunked, logs_b)

    def test_indices_subset_advances_only_those_cells(self):
        seeds = [31, 32, 33]
        machines, _ = _fleet(seeds, BACKEND_BATCH, **QUIET)
        driver = MultiCell(machines)
        driver.run_ticks(500, indices=[0, 2])
        assert machines[0].clock.tick == machines[2].clock.tick == 500
        assert machines[1].clock.tick == 0
        driver.run_ticks(500, indices=[1])
        assert machines[1].clock.tick == 500

    def test_heterogeneous_cells_never_fuse_but_stay_exact(self):
        # Different workloads => different structural fingerprints: no
        # cell ever finds a peer, everything runs the engine path.
        def populate(machine):
            heavy = machine.config.seed % 2 == 0
            machine.spawn(
                make_fg(input_noise=0.02 if heavy else 0.01),
                core=0, nice=-5,
            )
            for core in range(1, machine.config.num_cores):
                machine.spawn(make_bg(heavy=heavy), core=core, nice=5)

        seeds = [41, 42]
        reference, logs_r = _fleet(
            seeds, BACKEND_BATCH, populate=populate, **QUIET
        )
        vector, logs_v = _fleet(
            seeds, BACKEND_BATCH, populate=populate, **QUIET
        )
        for m in reference:
            m.run_ticks(8_000)
        driver = MultiCell(vector)
        driver.run_ticks(8_000)
        _assert_fleets_equal(reference, logs_r, vector, logs_v)

    def test_jittered_cells_take_the_engine_path_exactly(self):
        # Per-cell entropy (OS jitter) can never fuse; the driver must
        # hand such cells to their own engines wholesale.
        seeds = [51, 52]
        reference, logs_r = _fleet(seeds, BACKEND_BATCH)
        vector, logs_v = _fleet(seeds, BACKEND_BATCH)
        for m in reference:
            m.run_ticks(6_000)
        driver = MultiCell(vector)
        driver.run_ticks(6_000)
        _assert_fleets_equal(reference, logs_r, vector, logs_v)
        assert driver.stats.vector_spans == 0

    def test_scalar_backend_cells_use_the_reference_loop(self):
        seeds = [61, 62]
        reference, logs_r = _fleet(seeds, BACKEND_SCALAR, **QUIET)
        vector, logs_v = _fleet(seeds, BACKEND_SCALAR, **QUIET)
        for m in reference:
            m.run_ticks(5_000)
        MultiCell(vector).run_ticks(5_000)
        _assert_fleets_equal(reference, logs_r, vector, logs_v)


class TestPartialPeels:
    """Trips evict only the diverging cells; survivors stay fused.

    The shared model trajectory is a pure function of the shared state
    — never of the member set — so a fused group that loses a cell
    mid-span must keep producing the exact floats the smaller group
    would have computed from scratch.  These tests pin that invariant
    where it is most fragile: a single divergent cell among N, trips
    landing at span boundaries (zero-tick evictions under 1-tick
    budgets), and regrouping after the peeled cell recovers.
    """

    def _noisy_fg_fleet(self, seeds):
        def populate(machine):
            machine.spawn(
                make_fg(input_noise=0.05, total_gi=0.2), core=0, nice=-5
            )
            for core in range(1, machine.config.num_cores):
                machine.spawn(make_bg(heavy=core % 2 == 0),
                              core=core, nice=5)

        return _fleet(seeds, BACKEND_BATCH, populate=populate, **QUIET)

    def test_one_divergent_cell_among_n_fused(self):
        # Five cells, per-seed noise-drawn FG targets: the earliest
        # completion trips exactly one column while four keep fusing.
        seeds = [101, 102, 103, 104, 105]
        reference, logs_r = self._noisy_fg_fleet(seeds)
        vector, logs_v = self._noisy_fg_fleet(seeds)
        for m in reference:
            m.run_ticks(15_000)
        driver = MultiCell(vector)
        driver.run_ticks(15_000)
        _assert_fleets_equal(reference, logs_r, vector, logs_v)
        if numpy_available():
            assert driver.stats.partial_peels > 0
            assert driver.stats.vector_peels > 0

    def test_divergence_at_span_boundaries(self):
        # Tiny drive chunks force 1-tick span budgets around the
        # completion window, so trips land on the first tick of a
        # fused span (zero ticks committed before the eviction).
        seeds = [111, 112, 113, 114]
        reference, logs_r = self._noisy_fg_fleet(seeds)
        chunked, logs_c = self._noisy_fg_fleet(seeds)
        chunks = (2_500, 1, 1, 1, 2, 3, 500) * 4
        total = sum(chunks)
        for m in reference:
            m.run_ticks(total)
        driver = MultiCell(chunked)
        for chunk in chunks:
            driver.run_ticks(chunk)
        _assert_fleets_equal(reference, logs_r, chunked, logs_c)

    def test_regroup_after_recovery(self):
        # Single-phase FG + one long BG phase: the shared trajectory
        # sits at its rho fixed point, so a completion trip only
        # redraws the tripped cell's per-cell target — the replayed
        # scalar tick lands the cell back on the exact shared
        # trajectory and it rejoins the fused group next round.
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

        seeds = [121, 122, 123]
        reference, logs_r = _fleet(
            seeds, BACKEND_BATCH, populate=populate, **QUIET
        )
        vector, logs_v = _fleet(
            seeds, BACKEND_BATCH, populate=populate, **QUIET
        )
        for m in reference:
            m.run_ticks(18_000)
        driver = MultiCell(vector)
        driver.run_ticks(9_000)
        if numpy_available():
            assert driver.stats.partial_peels > 0
        before = driver.stats.vector_spans
        cells_before = driver.stats.cells_per_span
        driver.run_ticks(9_000)
        _assert_fleets_equal(reference, logs_r, vector, logs_v)
        if numpy_available():
            # Peels happened in the first half, yet full-width fused
            # spans keep forming in the second: cells regrouped.
            new_spans = driver.stats.vector_spans - before
            new_cells = driver.stats.cells_per_span - cells_before
            assert new_spans > 0
            assert new_cells >= 2 * new_spans


class TestKnobsAndFallbacks:
    """The cell cap and the no-numpy fallback only change scheduling."""

    def test_numpy_kill_switch_disables_fusion_not_results(
        self, monkeypatch
    ):
        # Without numpy the driver advances every cell through its own
        # batch engine: nothing fuses, and results stay the same.
        monkeypatch.setattr("repro.sim.vector._np", None)
        seeds = [71, 72, 73]
        reference, logs_r = _fleet(seeds, BACKEND_BATCH, **QUIET)
        vector, logs_v = _fleet(seeds, BACKEND_BATCH, **QUIET)
        for m in reference:
            m.run_ticks(8_000)
        driver = MultiCell(vector)
        driver.run_ticks(8_000)
        _assert_fleets_equal(reference, logs_r, vector, logs_v)
        assert driver.stats.vector_spans == 0

    def test_cell_cap_chunks_fusion_without_changing_results(
        self, monkeypatch
    ):
        monkeypatch.setenv(ENV_VECTOR_CELLS, "2")
        seeds = [81, 82, 83, 84, 85]
        reference, logs_r = _fleet(seeds, BACKEND_BATCH, **QUIET)
        vector, logs_v = _fleet(seeds, BACKEND_BATCH, **QUIET)
        for m in reference:
            m.run_ticks(8_000)
        driver = MultiCell(vector)
        driver.run_ticks(8_000)
        _assert_fleets_equal(reference, logs_r, vector, logs_v)
        if numpy_available():
            assert driver.stats.vector_spans > 0
            assert driver.stats.cells_per_span <= \
                2 * driver.stats.vector_spans


class TestEventAndEnergyEquivalence:
    """Timers, DVFS, pauses, partitions, and energy through the driver."""

    def _run_with_events(self, vectorized):
        config = MachineConfig(seed=13, timer_jitter_prob=0.5)
        machine = Machine(config, backend=BACKEND_BATCH)
        log = _records_of(machine)
        _spawn_mixed(machine)
        trace = []

        def periodic():
            tick = machine.clock.tick
            trace.append((tick, machine.read_counters(0).instructions))
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
        if vectorized:
            MultiCell([machine]).run_ticks(8_000)
        else:
            machine.run_ticks(8_000)
        return machine, log, trace

    def test_event_stream_identical(self):
        ref, log_r, trace_r = self._run_with_events(vectorized=False)
        vec, log_v, trace_v = self._run_with_events(vectorized=True)
        assert trace_r == trace_v
        assert log_r == log_v
        _assert_machines_equal(ref, vec)
        for core in range(ref.config.num_cores):
            assert ref.governor.grade(core) == vec.governor.grade(core)

    def test_energy_model_identical(self):
        from repro.sim.energy import EnergyModel

        totals = []
        for vectorized in (False, True):
            machine = Machine(
                MachineConfig(seed=5, **QUIET), backend=BACKEND_BATCH
            )
            machine.attach_energy_model(EnergyModel(
                machine.config.num_cores
            ))
            _spawn_mixed(machine)
            if vectorized:
                MultiCell([machine]).run_ticks(9_000)
            else:
                machine.run_ticks(9_000)
            totals.append(
                (machine.energy.system_joules, machine.energy.elapsed_s)
            )
        assert totals[0] == totals[1]


class TestHypothesisEquivalence:
    """Property: any quiet fleet advanced by MultiCell matches the
    per-machine batch engines bit for bit, under any drive chunking."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed_base=st.integers(min_value=0, max_value=2**16),
        cells=st.integers(min_value=2, max_value=5),
        noise=st.sampled_from([0.0, 0.01, 0.05]),
        total_gi=st.sampled_from([0.2, 0.4]),
        chunks=st.lists(
            st.integers(min_value=1, max_value=1500),
            min_size=1, max_size=4,
        ),
        cap=st.sampled_from([None, 1, 2, 3]),
    )
    def test_random_fleet_matches_batch(
        self, seed_base, cells, noise, total_gi, chunks, cap
    ):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if cap is None:
                monkeypatch.delenv(ENV_VECTOR_CELLS, raising=False)
            else:
                monkeypatch.setenv(ENV_VECTOR_CELLS, str(cap))
            self._check(seed_base, cells, noise, total_gi, chunks)

    def _check(self, seed_base, cells, noise, total_gi, chunks):
        def populate(machine):
            machine.spawn(
                make_fg(input_noise=noise, total_gi=total_gi),
                core=0, nice=-5,
            )
            for core in range(1, machine.config.num_cores):
                machine.spawn(make_bg(heavy=core % 2 == 0),
                              core=core, nice=5)

        seeds = [seed_base + i for i in range(cells)]
        reference, logs_r = _fleet(
            seeds, BACKEND_BATCH, populate=populate, **QUIET
        )
        vector, logs_v = _fleet(
            seeds, BACKEND_BATCH, populate=populate, **QUIET
        )
        total = sum(chunks)
        for m in reference:
            m.run_ticks(total)
        driver = MultiCell(vector)
        for chunk in chunks:
            driver.run_ticks(chunk)
        for ref, log_r, vec, log_v in zip(
            reference, logs_r, vector, logs_v
        ):
            _assert_machines_equal(ref, vec)
            assert log_r == log_v


class TestPolicyDecisionEquivalence:
    """The harness consumers must match their serial twins exactly."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_caches()
        yield
        clear_caches()

    def test_run_policy_batch_matches_serial_runs(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "vector")
        mix = mix_by_name("ferret rs")
        batch = run_policy_batch(
            mix, DIRIGENT, executions=3, warmup=1, seeds=[0, 1]
        )
        clear_caches()
        for seed, result in zip([0, 1], batch):
            serial = run_policy(
                mix, DIRIGENT, executions=3, warmup=1, seed=seed
            )
            assert result.durations_s == serial.durations_s
            assert result.deadlines_s == serial.deadlines_s
            assert result.bg_grade_histogram == serial.bg_grade_histogram
            assert result.partition_history == serial.partition_history
            assert result.elapsed_s == serial.elapsed_s
            assert result.fg_instr == serial.fg_instr
            assert result.bg_instr == serial.bg_instr

    def test_policy_sessions_fuse_peel_and_match(self, monkeypatch):
        # Quiet config + per-seed input noise: replicas of the same
        # (mix, policy) cell fuse, trip on their noise-drawn FG
        # completions, peel one tick, and rejoin — while every session
        # result stays bit-identical to its solo run.
        monkeypatch.setenv(ENV_BACKEND, "vector")
        config = MachineConfig(**QUIET)
        mix = mix_by_name("ferret rs")
        seeds = [0, 1, 2]
        sessions = [
            PolicySession(
                mix, BASELINE, executions=3, warmup=1, config=config,
                seed=seed,
            )
            for seed in seeds
        ]
        driver = drive_sessions_vectorized(sessions)
        for seed, session in zip(seeds, sessions):
            solo = run_policy(
                mix, BASELINE, executions=3, warmup=1, config=config,
                seed=seed,
            )
            result = session.result()
            assert result.durations_s == solo.durations_s
            assert result.elapsed_s == solo.elapsed_s
            assert result.bg_instr_per_s == solo.bg_instr_per_s
        if numpy_available():
            assert driver.stats.vector_spans > 0
            assert driver.stats.vector_peels > 0

    def test_faulted_run_policy_batch_matches_serial(self, monkeypatch):
        from repro.faults import scenario

        monkeypatch.setenv(ENV_BACKEND, "vector")
        mix = mix_by_name("ferret rs")
        plan = scenario("sensor-degraded", seed=21)
        batch = run_policy_batch(
            mix, DIRIGENT, executions=3, warmup=1, seeds=[0, 1],
            fault_plan=plan,
        )
        clear_caches()
        for seed, result in zip([0, 1], batch):
            serial = run_policy(
                mix, DIRIGENT, executions=3, warmup=1, seed=seed,
                fault_plan=plan,
            )
            assert result.durations_s == serial.durations_s
            assert result.elapsed_s == serial.elapsed_s
            rep_b, rep_s = result.fault_report, serial.fault_report
            assert rep_b is not None and rep_s is not None
            assert rep_b.event_signature == rep_s.event_signature
            assert rep_b.injected == rep_s.injected
            assert rep_b.degraded_entries == rep_s.degraded_entries
