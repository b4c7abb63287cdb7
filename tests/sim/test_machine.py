"""Unit and integration tests for repro.sim.machine."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.osal import SystemInterface
from tests.conftest import make_bg, make_fg, run_executions


class TestSpawn:
    def test_spawn_assigns_pids(self, machine, tiny_fg, tiny_bg):
        a = machine.spawn(tiny_fg, core=0)
        b = machine.spawn(tiny_bg, core=1)
        assert a.pid != b.pid
        assert machine.process_by_pid(a.pid) is a

    def test_spawn_same_core_twice_rejected(self, machine, tiny_fg, tiny_bg):
        machine.spawn(tiny_fg, core=0)
        with pytest.raises(ConfigurationError):
            machine.spawn(tiny_bg, core=0)

    def test_spawn_out_of_range_core_rejected(self, machine, tiny_fg):
        with pytest.raises(ConfigurationError):
            machine.spawn(tiny_fg, core=6)

    def test_process_listing(self, machine, tiny_fg, tiny_bg):
        fg = machine.spawn(tiny_fg, core=0)
        bg = machine.spawn(tiny_bg, core=1)
        assert machine.foreground_processes == [fg]
        assert machine.background_processes == [bg]

    def test_process_listing_cached_until_spawn(self, machine, tiny_fg,
                                                tiny_bg):
        # The runtime reads these every fine interval; repeated access
        # must not rebuild the lists, but a spawn must invalidate them.
        fg = machine.spawn(tiny_fg, core=0)
        assert machine.processes is machine.processes
        assert machine.foreground_processes is machine.foreground_processes
        assert machine.background_processes is machine.background_processes
        bg = machine.spawn(tiny_bg, core=1)
        assert machine.processes == [fg, bg]
        assert machine.foreground_processes == [fg]
        assert machine.background_processes == [bg]

    def test_unknown_pid_rejected(self, machine):
        with pytest.raises(SimulationError):
            machine.process_by_pid(99)

    def test_idle_core_returns_none(self, machine):
        assert machine.process_on_core(3) is None


class TestSystemInterfaceConformance:
    def test_machine_satisfies_protocol(self, machine):
        assert isinstance(machine, SystemInterface)

    def test_now_advances_with_ticks(self, machine):
        machine.run_ticks(10)
        assert machine.now() == pytest.approx(10 * machine.config.tick_s)

    def test_frequency_controls(self, machine):
        assert machine.num_frequency_grades() == 5
        machine.set_frequency_grade(0, 1)
        assert machine.frequency_grade(0) == 1
        assert machine.step_frequency(0, +1)
        assert machine.frequency_grade(0) == 2

    def test_pause_resume_by_pid(self, machine, tiny_bg):
        bg = machine.spawn(tiny_bg, core=1)
        machine.pause(bg.pid)
        assert machine.is_paused(bg.pid)
        machine.resume(bg.pid)
        assert not machine.is_paused(bg.pid)

    def test_core_of(self, machine, tiny_bg):
        bg = machine.spawn(tiny_bg, core=3)
        assert machine.core_of(bg.pid) == 3

    def test_read_backs_reject_bad_pids_and_cores(self, machine, tiny_bg):
        machine.spawn(tiny_bg, core=1)
        num_cores = machine.config.num_cores
        with pytest.raises(SimulationError, match="no process with pid 99"):
            machine.is_paused(99)
        for core in (-1, num_cores):
            with pytest.raises(SimulationError, match="out of range"):
                machine.frequency_grade(core)
            with pytest.raises(SimulationError, match="out of range"):
                machine.read_llc_misses(core)
            with pytest.raises(SimulationError, match="out of range"):
                machine.read_counters(core)

    def test_llc_misses_read_equals_the_snapshot_field(self, machine, tiny_bg):
        machine.spawn(tiny_bg, core=2)
        machine.run_ticks(20)
        for core in range(machine.config.num_cores):
            assert machine.read_llc_misses(core) == (
                machine.read_counters(core).llc_misses
            )
        assert machine.read_llc_misses(2) > 0

    def test_llc_ways(self, machine):
        assert machine.llc_ways() == 20

    def test_partition_passthrough(self, machine):
        machine.set_fg_partition([0], 4)
        assert machine.cache.mask_ways(0) == 4
        machine.clear_partitions()
        assert machine.cache.mask_ways(0) == 20


class TestExecutionDynamics:
    def test_fg_completes_repeatedly(self, quiet_machine, tiny_fg):
        quiet_machine.spawn(tiny_fg, core=0)
        records = run_executions(quiet_machine, 3)
        assert [r.index for r in records] == [0, 1, 2]
        assert records[0].end_s <= records[1].end_s <= records[2].end_s

    def test_completion_time_interpolated_within_tick(self, quiet_machine, tiny_fg):
        quiet_machine.spawn(tiny_fg, core=0)
        records = run_executions(quiet_machine, 1)
        tick = quiet_machine.config.tick_s
        # The interpolated completion should not sit on a tick boundary in
        # general; at minimum it must be positive and before "now".
        assert 0 < records[0].end_s <= quiet_machine.now()

    def test_executions_back_to_back(self, quiet_machine, tiny_fg):
        quiet_machine.spawn(tiny_fg, core=0)
        records = run_executions(quiet_machine, 2)
        assert records[1].start_s == pytest.approx(records[0].end_s)

    def test_record_instructions_match_target(self, quiet_machine, tiny_fg):
        quiet_machine.spawn(tiny_fg, core=0)
        records = run_executions(quiet_machine, 1)
        assert records[0].instructions == pytest.approx(
            tiny_fg.total_instructions, rel=1e-9
        )

    def test_paused_process_makes_no_progress(self, quiet_machine, tiny_bg):
        bg = quiet_machine.spawn(tiny_bg, core=1)
        quiet_machine.pause(bg.pid)
        quiet_machine.run_ticks(50)
        assert bg.progress == 0.0
        assert quiet_machine.read_counters(1).instructions == 0.0

    def test_contention_slows_fg(self, tiny_fg, tiny_bg, quiet_config):
        alone = Machine(quiet_config)
        alone.spawn(tiny_fg, core=0)
        alone_records = run_executions(alone, 3)

        crowded = Machine(quiet_config)
        crowded.spawn(tiny_fg, core=0)
        for core in range(1, 6):
            crowded.spawn(tiny_bg, core=core)
        crowded_records = run_executions(crowded, 3)
        assert (
            crowded_records[0].duration_s > alone_records[0].duration_s
        )

    def test_throttling_bg_speeds_fg(self, tiny_fg, tiny_bg):
        # Small cache-inertia constant so occupancy effects settle within
        # the short test run.
        config = MachineConfig(
            seed=42,
            os_jitter_sigma=0.0,
            timer_jitter_prob=0.0,
            cache_inertia_tau_s=0.005,
        )

        def contended_mean(bg_grade):
            machine = Machine(config)
            machine.spawn(tiny_fg, core=0)
            for core in range(1, 6):
                machine.spawn(tiny_bg, core=core)
                machine.set_frequency_grade(core, bg_grade)
            records = run_executions(machine, 8)
            return sum(r.duration_s for r in records[2:]) / len(records[2:])

        assert contended_mean(0) < contended_mean(4)

    def test_counters_accumulate(self, quiet_machine, tiny_fg):
        quiet_machine.spawn(tiny_fg, core=0)
        quiet_machine.run_ticks(100)
        snap = quiet_machine.read_counters(0)
        assert snap.instructions > 0
        assert snap.cycles > 0
        assert snap.llc_misses > 0
        assert snap.llc_accesses >= snap.llc_misses

    def test_rho_positive_under_load(self, quiet_machine, tiny_bg):
        for core in range(6):
            quiet_machine.spawn(tiny_bg, core=core)
        quiet_machine.run_ticks(20)
        assert quiet_machine.rho > 0.0


class TestOverheadAndTimers:
    def test_charge_overhead_steals_progress(self, quiet_config, tiny_fg):
        reference = Machine(quiet_config)
        reference.spawn(tiny_fg, core=0)
        reference.run_ticks(10)

        taxed = Machine(quiet_config)
        taxed.spawn(tiny_fg, core=0)
        for _ in range(10):
            taxed.charge_overhead(0, 0.5e-3)  # half of every tick
            taxed.tick()
        ref_instr = reference.read_counters(0).instructions
        taxed_instr = taxed.read_counters(0).instructions
        assert taxed_instr == pytest.approx(ref_instr * 0.5, rel=0.05)

    def test_charge_overhead_validation(self, machine):
        with pytest.raises(SimulationError):
            machine.charge_overhead(0, -1.0)
        with pytest.raises(SimulationError):
            machine.charge_overhead(9, 1e-6)

    def test_scheduled_wakeup_fires(self, quiet_machine):
        fired = []
        quiet_machine.schedule_wakeup(5e-3, lambda: fired.append(quiet_machine.now()))
        quiet_machine.run_ticks(10)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(5e-3)

    def test_periodic_wakeups(self, quiet_machine):
        fired = []

        def tick_cb():
            fired.append(quiet_machine.now())
            quiet_machine.schedule_wakeup(5e-3, tick_cb)

        quiet_machine.schedule_wakeup(5e-3, tick_cb)
        quiet_machine.run_ticks(51)
        assert len(fired) == 10


class TestDeterminism:
    def test_same_seed_same_trajectory(self, tiny_fg, tiny_bg):
        def run(seed):
            machine = Machine(MachineConfig(seed=seed))
            machine.spawn(tiny_fg, core=0)
            machine.spawn(tiny_bg, core=1)
            records = run_executions(machine, 3)
            return [r.duration_s for r in records]

        assert run(7) == run(7)

    def test_different_seed_different_trajectory(self, tiny_fg, tiny_bg):
        def run(seed):
            machine = Machine(MachineConfig(seed=seed))
            machine.spawn(tiny_fg, core=0)
            machine.spawn(tiny_bg, core=1)
            return [r.duration_s for r in run_executions(machine, 3)]

        assert run(7) != run(8)

    def test_run_seconds_matches_run_ticks(self, machine):
        machine.run_seconds(0.05)
        assert machine.clock.tick == 50

    def test_run_seconds_sub_tick_duration_runs_one_tick(self, machine):
        # Durations below tick_s/2 used to round down to zero ticks,
        # silently turning short sleeps into no-ops.
        machine.run_seconds(machine.config.tick_s / 10)
        assert machine.clock.tick == 1

    def test_run_seconds_zero_is_a_no_op(self, machine):
        machine.run_seconds(0.0)
        assert machine.clock.tick == 0

    def test_negative_runs_rejected(self, machine):
        with pytest.raises(SimulationError):
            machine.run_ticks(-1)
        with pytest.raises(SimulationError):
            machine.run_seconds(-1.0)
