"""Tests for PolicySession (the incrementally driven run).

Single-session drivers run each session to the end in one machine run
(:meth:`PolicySession.run_to_end`); the fleet control plane still steps
sessions block by block.  Both must end on the same tick with the same
results.
"""

import pytest

from repro.cluster.dispatch import Cluster, ClusterNode
from repro.core.policies import BASELINE, DIRIGENT, STATIC_BOTH
from repro.errors import ExperimentError
from repro.experiments import harness
from repro.experiments.harness import (
    DRIVE_BLOCK_TICKS,
    PolicySession,
    clear_caches,
    measure_standalone,
    run_policy,
)
from repro.experiments.mixes import mix_by_name
from repro.experiments.parallel import run_grid
from repro.faults import scenario
from repro.sim.batch import BACKEND_BATCH, BACKEND_SCALAR, ENV_BACKEND
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.catalog import get_workload

EXECS = 5
WARMUP = 2

#: run-to-end cases: (mix, policy, extra PolicySession arguments).
RUN_TO_END_CASES = {
    "baseline": ("ferret rs", BASELINE, {}),
    "dirigent": ("ferret rs", DIRIGENT, {}),
    "dirigent-x3": ("raytrace x3 rs", DIRIGENT, {}),
    "static-partition": ("ferret rs", STATIC_BOTH, {"static_fg_ways": 6}),
    "warmup0": ("ferret rs", DIRIGENT, {"warmup": 0}),
    "faulted": (
        "ferret rs", DIRIGENT,
        {"fault_plan": scenario("full-chaos", seed=21)},
    ),
}


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _recording_sessions(monkeypatch):
    """Record every PolicySession the harness builds, in build order."""
    built = []

    class Recorded(PolicySession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(harness, "PolicySession", Recorded)
    return built


def _block_driven(mix, policy, **kwargs):
    """A twin session stepped the way the lockstep drivers step it."""
    session = PolicySession(mix_by_name(mix), policy, **kwargs)
    while not session.done:
        session.advance(DRIVE_BLOCK_TICKS)
    return session


def _assert_same_run(result, end_tick, twin):
    expected = twin.result()
    assert result == expected
    assert list(result.bg_grade_histogram.items()) == list(
        expected.bg_grade_histogram.items()
    )
    assert end_tick == twin.machine.clock.tick


class TestPolicySession:
    def test_incremental_drive_matches_run_policy(self, monkeypatch):
        # Ticking the scalar kernel by hand bookkeeps on the same block
        # boundaries, so it ends with run_policy's exact result.
        built = _recording_sessions(monkeypatch)
        mix = mix_by_name("ferret rs")
        via_function = run_policy(
            mix, BASELINE, executions=EXECS, warmup=WARMUP
        )
        session = PolicySession(
            mix, BASELINE, executions=EXECS, warmup=WARMUP
        )
        while not session.done:
            session.tick()
        via_session = session.result()
        assert via_session == via_function
        assert session.machine.clock.tick == built[-1].machine.clock.tick

    @pytest.mark.parametrize("backend", [BACKEND_SCALAR, BACKEND_BATCH])
    @pytest.mark.parametrize("case", sorted(RUN_TO_END_CASES))
    def test_run_to_end_matches_block_driving(
        self, monkeypatch, backend, case
    ):
        monkeypatch.setenv(ENV_BACKEND, backend)
        mix, policy, extra = RUN_TO_END_CASES[case]
        kwargs = dict(executions=EXECS, warmup=WARMUP)
        kwargs.update(extra)
        built = _recording_sessions(monkeypatch)
        result = run_policy(mix_by_name(mix), policy, **kwargs)
        end_tick = built[-1].machine.clock.tick
        monkeypatch.setattr(harness, "PolicySession", PolicySession)
        twin = _block_driven(mix, policy, **kwargs)
        _assert_same_run(result, end_tick, twin)
        if case == "faulted":
            assert result.fault_report.event_signature

    def test_run_to_end_raises_at_the_block_driven_tick_guard(self):
        # No test finishes near the real guard; shrink it so both
        # drivers give up, on the same block boundary.
        ends = []
        for run_to_end in (True, False):
            session = PolicySession(
                mix_by_name("ferret rs"), DIRIGENT, executions=EXECS,
                warmup=WARMUP,
            )
            session._max_ticks = 5 * DRIVE_BLOCK_TICKS + 7
            with pytest.raises(ExperimentError, match="tick guard"):
                if run_to_end:
                    session.run_to_end()
                else:
                    while not session.done:
                        session.advance(DRIVE_BLOCK_TICKS)
            assert not session.done
            ends.append(session.machine.clock.tick)
        assert ends[0] == ends[1] == 6 * DRIVE_BLOCK_TICKS

    def test_serial_seeded_grid_matches_block_driving(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, BACKEND_BATCH)
        seeds = (0, 1)
        mix = mix_by_name("ferret rs")
        built = _recording_sessions(monkeypatch)
        sweep = run_grid(
            [mix], [DIRIGENT], executions=EXECS, warmup=WARMUP,
            seeds=seeds, workers=1,
        )
        results = [sweep.get(mix, DIRIGENT, seed) for seed in seeds]
        ends = [
            session.machine.clock.tick for session in built
            if session.policy == DIRIGENT
        ]
        assert len(ends) == len(seeds)
        monkeypatch.setattr(harness, "PolicySession", PolicySession)
        for seed, result, end_tick in zip(seeds, results, ends):
            twin = _block_driven(
                "ferret rs", DIRIGENT, executions=EXECS, warmup=WARMUP,
                seed=seed,
            )
            _assert_same_run(result, end_tick, twin)

    def test_zero_fault_cluster_matches_block_driving(self):
        nodes = [
            ClusterNode("n%d" % seed, mix_by_name("ferret rs"), DIRIGENT,
                        executions=EXECS, seed=seed, warmup=WARMUP)
            for seed in (3, 4)
        ]
        result = Cluster(nodes).run()
        for node, seed in zip(nodes, (3, 4)):
            twin = _block_driven(
                "ferret rs", DIRIGENT, executions=EXECS, warmup=WARMUP,
                seed=seed,
            )
            _assert_same_run(
                result.node_results[node.name],
                node.session.machine.clock.tick, twin,
            )

    @pytest.mark.parametrize("warmup", [0, WARMUP])
    def test_measure_standalone_matches_block_driving(
        self, monkeypatch, warmup
    ):
        machines = []

        class Recorded(Machine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                machines.append(self)

        monkeypatch.setattr(harness, "Machine", Recorded)
        result = measure_standalone("ferret", executions=EXECS,
                                    warmup=warmup)
        durations, mpki, end_tick = _standalone_by_blocks(
            "ferret", EXECS, warmup
        )
        assert result.durations_s == durations
        assert result.mpki == mpki
        assert machines[-1].clock.tick == end_tick

    def test_result_before_done_rejected(self):
        session = PolicySession(
            mix_by_name("ferret rs"), BASELINE, executions=EXECS,
            warmup=WARMUP,
        )
        with pytest.raises(ExperimentError):
            session.result()

    def test_completions_progress(self):
        session = PolicySession(
            mix_by_name("ferret rs"), BASELINE, executions=EXECS,
            warmup=WARMUP,
        )
        assert session.completions() == [0]
        while not session.done:
            session.tick()
        assert session.completions()[0] >= EXECS + WARMUP

    def test_tick_after_done_is_noop(self):
        session = PolicySession(
            mix_by_name("ferret rs"), BASELINE, executions=EXECS,
            warmup=WARMUP,
        )
        while not session.done:
            session.tick()
        now = session.machine.now()
        session.tick()
        assert session.machine.now() == now

    def test_runtime_attached_for_dirigent(self):
        session = PolicySession(
            mix_by_name("ferret rs"), DIRIGENT, executions=EXECS,
            warmup=WARMUP,
        )
        assert session.runtime is not None
        assert session.runtime.coarse_controller is not None

    def test_invalid_executions_rejected(self):
        with pytest.raises(ExperimentError):
            PolicySession(
                mix_by_name("ferret rs"), BASELINE, executions=0
            )


def _standalone_by_blocks(fg_name, executions, warmup):
    """``measure_standalone``'s block-by-block loop, on its own machine.

    Returns ``(durations, mpki, end_tick)``.
    """
    config = MachineConfig()
    machine = Machine(config.with_seed(
        harness._derive_seed(config.seed, "alone:%s" % fg_name, 0)
    ))
    machine.spawn(get_workload(fg_name), core=0, nice=-5)
    machine.settle_cache()
    records = []
    snaps = {}
    target = warmup + executions

    def on_completion(proc, record):
        records.append(record)
        if len(records) == warmup and warmup > 0:
            snaps["start"] = machine.read_counters(0)
        elif len(records) == target:
            snaps["end"] = machine.read_counters(0)

    machine.add_completion_listener(on_completion)
    if warmup == 0:
        machine.run_ticks(1)
        snaps.setdefault("start", machine.read_counters(0))
    while len(records) < target:
        machine.run_ticks(DRIVE_BLOCK_TICKS)
    delta = snaps["end"].delta(snaps["start"])
    return (
        tuple(r.duration_s for r in records[warmup:target]),
        delta.mpki,
        machine.clock.tick,
    )
