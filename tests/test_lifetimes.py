"""No run outlives itself: every machine a call builds dies with the call.

Each test turns the cyclic garbage collector off (and back on in
``finally``), so a machine still alive once its call returns is held by
a reference — a reference cycle through the layers above the machine
included — not merely waiting for a collection.
"""

import gc
import weakref

import pytest

from repro.core.policies import BASELINE, DIRIGENT, STATIC_BOTH
from repro.errors import SimulationError
from repro.experiments import harness
from repro.experiments.chaos import run_fleet_cell
from repro.experiments.harness import PolicySession
from repro.experiments.mixes import mix_by_name
from repro.experiments.parallel import run_grid
from repro.faults import FLEET_SCENARIO_NAMES, scenario
from repro.sim.batch import BACKEND_BATCH, BACKEND_SCALAR, ENV_BACKEND
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine

MIX = mix_by_name("ferret rs")
SMALL = dict(executions=2, warmup=1)


@pytest.fixture
def built(monkeypatch):
    """Weak references to every Machine built during the test."""
    refs = []
    init = Machine.__init__

    def recording(machine, *args, **kwargs):
        init(machine, *args, **kwargs)
        refs.append(weakref.ref(machine))

    monkeypatch.setattr(Machine, "__init__", recording)
    harness.clear_caches()
    yield refs
    harness.clear_caches()


def _assert_all_dead(refs):
    assert refs, "the call built no machine"
    alive = [ref() for ref in refs if ref() is not None]
    assert alive == [], "%d of %d machines outlived their run" % (
        len(alive), len(refs))


class TestEveryMachineDiesWithItsCall:
    @pytest.mark.parametrize("policy, options", [
        (BASELINE, {}),
        (STATIC_BOTH, {"static_fg_ways": 6}),
        (DIRIGENT, {}),
        (DIRIGENT, {"fault_plan": scenario("sensor-degraded", seed=21)}),
    ], ids=["baseline", "static-both", "dirigent", "dirigent-faulted"])
    def test_run_policy(self, built, policy, options):
        enabled = gc.isenabled()
        gc.disable()
        try:
            harness.run_policy(MIX, policy, **options, **SMALL)
            _assert_all_dead(built)
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("call", [
        lambda: harness.measure_baseline(MIX, **SMALL),
        lambda: harness.measure_standalone(MIX.fg_name, **SMALL),
        lambda: harness.get_profile(MIX.fg_name),
        lambda: harness.find_static_partition(
            MIX, candidates=[4, 8], executions=2, warmup=1),
    ], ids=["baseline", "standalone", "profile", "static-partition"])
    def test_harness_entry_points(self, built, call):
        enabled = gc.isenabled()
        gc.disable()
        try:
            call()
            _assert_all_dead(built)
        finally:
            if enabled:
                gc.enable()

    def test_run_grid_in_process(self, built):
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_grid([MIX], [BASELINE, DIRIGENT], workers=1, **SMALL)
            _assert_all_dead(built)
        finally:
            if enabled:
                gc.enable()

    def test_fleet_catalog(self, built):
        # In catalog order: later rows replay sessions earlier rows
        # filed, so replays whose real session never runs are covered
        # beside finished, crashed and replaced sessions.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name in FLEET_SCENARIO_NAMES:
                run_fleet_cell(
                    name, num_nodes=3, executions=3, warmup=1, seed=0)
                _assert_all_dead(built)
                built.clear()
        finally:
            if enabled:
                gc.enable()


class TestClosedMachine:
    @pytest.mark.parametrize("backend", [BACKEND_SCALAR, BACKEND_BATCH])
    def test_refuses_to_run_but_stays_readable(self, monkeypatch, backend):
        monkeypatch.setenv(ENV_BACKEND, backend)
        enabled = gc.isenabled()
        gc.disable()
        try:
            machine, _, _ = harness.build_machine(
                MIX, MachineConfig(), seed=0)
            assert machine.backend == backend
            machine.run_ticks(200)
            counters = machine.read_counters(0)
            stats = machine.backend_stats()
            now = machine.now()
            machine.close()
            machine.close()  # closing twice is a no-op
            with pytest.raises(SimulationError):
                machine.run_ticks(1)
            with pytest.raises(SimulationError):
                machine.tick()
            assert machine.clock.tick == 200
            assert machine.now() == now
            assert machine.read_counters(0) == counters
            assert machine.backend_stats() == stats
        finally:
            if enabled:
                gc.enable()

    def test_finished_session_result_after_close(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            harness.clear_caches()
            session = PolicySession(MIX, DIRIGENT, **SMALL)
            session.run_to_end()
            assert session.done
            with pytest.raises(SimulationError):
                session.machine.run_ticks(1)
            result = session.result()
            assert result == session.result()
            assert result == harness.run_policy(MIX, DIRIGENT, **SMALL)
        finally:
            harness.clear_caches()
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("fault_plan", [
        None, scenario("sensor-degraded", seed=21),
    ], ids=["plain", "faulted"])
    def test_runtime_stop_drops_its_timers(self, fault_plan):
        enabled = gc.isenabled()
        gc.disable()
        try:
            harness.clear_caches()
            session = PolicySession(
                MIX, DIRIGENT, fault_plan=fault_plan, **SMALL)
            session.advance()
            runtime = session.runtime
            heap = session.machine.timers.pending_heap()

            def own():
                return [
                    entry for entry in heap
                    if getattr(entry[2], "__self__", None) is runtime
                ]

            assert own()
            runtime.stop()
            assert own() == []
            session.machine.close()
        finally:
            harness.clear_caches()
            if enabled:
                gc.enable()
