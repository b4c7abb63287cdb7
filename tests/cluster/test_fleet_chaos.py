"""Fleet chaos acceptance: self-healing QoS, determinism, kill switch.

The headline pins: under node-crash and partition scenarios the
failover-enabled control plane holds >= 90% fleet-wide FG deadline
attainment while the no-failover baseline is demonstrably worse, and
the fleet ``event_signature`` is identical across the scalar and
batch backends.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterNode, ControlPlaneConfig, control
from repro.core.policies import BASELINE, DIRIGENT, Policy
from repro.experiments import chaos, harness
from repro.experiments.harness import (
    DRIVE_BLOCK_TICKS,
    PolicySession,
    clear_caches,
)
from repro.experiments.mixes import mix_by_name
from repro.faults import FLEET_SCENARIO_NAMES, NodeFaultPlan, NodeFaultSpec
from repro.sim.batch import (
    BACKEND_BATCH,
    BACKEND_SCALAR,
    ENV_BACKEND,
    resolve_backend,
)
from repro.sim.config import ENV_WORKERS, MachineConfig

EXECS = 10
WARMUP = 3
FLEET = 6
SEED = 0


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def build_fleet(num_nodes=FLEET, executions=EXECS, warmup=WARMUP, seed=SEED):
    mix = mix_by_name("raytrace rs")
    return [
        ClusterNode("n%d" % i, mix, DIRIGENT, executions=executions,
                    warmup=warmup, seed=seed + i)
        for i in range(num_nodes)
    ]


CRASH_PLAN = NodeFaultPlan(
    scenario="pinned-crash", seed=SEED,
    overrides=(
        NodeFaultSpec(node="n1", kind="crash", onset_s=0.5),
        NodeFaultSpec(node="n4", kind="crash", onset_s=1.0),
    ),
)

PARTITION_PLAN = NodeFaultPlan(
    scenario="pinned-partition", seed=SEED,
    overrides=(
        NodeFaultSpec(node="n2", kind="partition", onset_s=0.5),
    ),
)


class TestSelfHealingQoS:
    """Failover buys >= 90% attainment; without it the fleet is worse."""

    @pytest.mark.parametrize(
        "plan", [CRASH_PLAN, PARTITION_PLAN],
        ids=["node-crash", "partition"],
    )
    def test_failover_beats_no_failover(self, plan):
        healed = Cluster(build_fleet()).run(
            fault_plan=plan,
            control=ControlPlaneConfig(failover=True),
        )
        unhealed = Cluster(build_fleet()).run(
            fault_plan=plan,
            control=ControlPlaneConfig(failover=False),
        )
        assert healed.fg_success_ratio >= 0.9
        assert healed.failovers == len(plan.overrides)
        assert healed.stranded_executions == 0
        # No failover: every faulted node's undelivered executions count
        # as missed, so the fleet is demonstrably worse.
        assert unhealed.fg_success_ratio < healed.fg_success_ratio
        assert unhealed.failovers == 0
        lost = len(plan.overrides) * EXECS
        assert unhealed.fg_success_ratio <= 1.0 - lost / (FLEET * EXECS)

    def test_detection_and_recovery_latencies_reported(self):
        result = Cluster(build_fleet()).run(fault_plan=CRASH_PLAN)
        assert len(result.time_to_detection_s) == 2
        assert len(result.time_to_recovery_s) == 2
        cfg = ControlPlaneConfig.from_env()
        for ttd, ttr in zip(
            result.time_to_detection_s, result.time_to_recovery_s
        ):
            assert cfg.dead_timeout_s <= ttd < cfg.dead_timeout_s + 0.2
            assert ttr >= ttd
        assert result.node_health["n1"] == "dead"
        assert result.node_health["n0"] == "alive"
        # Replacement sessions appear as home@host entries.
        assert any("@" in label for label in result.node_results)

    def test_failover_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_FAILOVER", "0")
        result = Cluster(build_fleet()).run(fault_plan=CRASH_PLAN)
        assert result.fleet_report is not None
        assert not result.fleet_report.failover_enabled
        assert result.failovers == 0
        assert result.stranded_executions > 0


class TestQuarantine:
    def test_flapping_node_quarantined(self):
        plan = NodeFaultPlan(
            scenario="pinned-flap", seed=SEED,
            overrides=(
                NodeFaultSpec(node="n1", kind="flap", onset_s=0.5,
                              down_s=0.5, up_s=0.5, cycles=2),
            ),
        )
        result = Cluster(build_fleet(num_nodes=4)).run(fault_plan=plan)
        report = result.fleet_report
        assert report.quarantines >= 1
        kinds = {event[2] for event in report.event_signature}
        assert "quarantine" in kinds
        assert "node-recovered" in kinds
        # The flapper ends the run alive again.
        assert result.node_health["n1"] == "alive"


MIXED_PLAN = NodeFaultPlan(
    scenario="pinned-mixed", seed=SEED,
    overrides=(
        NodeFaultSpec(node="n0", kind="crash", onset_s=0.6),
        NodeFaultSpec(node="n2", kind="flap", onset_s=0.5,
                      down_s=0.5, up_s=0.5, cycles=2),
    ),
)


def _small_fleet_run():
    cluster = Cluster(build_fleet(num_nodes=4, executions=6, warmup=2))
    return cluster.run(fault_plan=MIXED_PLAN)


class TestDeterminism:
    # The two-leg tests clear caches between the legs: the first leg
    # records every session it ran live to done untouched, home nodes
    # and failover replacements alike, and a second leg that replayed
    # them would no longer check the simulator.

    def test_repeat_runs_identical(self):
        first = _small_fleet_run()
        clear_caches()
        second = _small_fleet_run()
        assert first.fleet_report.event_signature == \
            second.fleet_report.event_signature
        assert first.node_results == second.node_results
        assert first.fg_success_ratio == second.fg_success_ratio

    def test_signature_identical_across_backends(self, monkeypatch):
        signatures = {}
        outcomes = {}
        for backend in ("scalar", "batch"):
            monkeypatch.setenv(ENV_BACKEND, backend)
            clear_caches()
            result = _small_fleet_run()
            signatures[backend] = result.fleet_report.event_signature
            outcomes[backend] = (
                result.fg_success_ratio,
                result.failovers,
                result.stranded_executions,
            )
        assert signatures["scalar"] == signatures["batch"]
        assert outcomes["scalar"] == outcomes["batch"]


@pytest.fixture
def replay_counts(monkeypatch):
    """Count the replays the controller starts and the ones caught up.

    ``fault_named`` counts replayed home nodes the fault schedule names,
    ``replacements`` lists the real sessions of replayed failover
    replacements, and ``caught_up_at`` the rounds each catch-up
    replayed first.
    """
    counts = {
        "replays": 0, "fault_named": 0, "replacements": [],
        "catch_ups": 0, "caught_up_at": [],
    }
    start = control.FleetController._start
    catch_up = control._Replay.catch_up

    def counting_start(self, session, key):
        started = start(self, session, key)
        if isinstance(started, control._Replay):
            counts["replays"] += 1
            homes = {node.session: node.name for node in self._nodes}
            if session not in homes:
                counts["replacements"].append(session)
            elif self._schedule.spec_for(homes[session]) is not None:
                counts["fault_named"] += 1
        return started

    def counting_catch_up(self):
        counts["catch_ups"] += 1
        counts["caught_up_at"].append(self.rounds)
        return catch_up(self)

    monkeypatch.setattr(control.FleetController, "_start", counting_start)
    monkeypatch.setattr(control._Replay, "catch_up", counting_catch_up)
    return counts


def _assert_same(result, expected, label=""):
    assert result == expected, label
    assert repr(result) == repr(expected), label


#: One crash and no shedding: the control plane acts on no session.
ONE_CRASH_PLAN = NodeFaultPlan(
    scenario="pinned-crash", seed=SEED,
    overrides=(NodeFaultSpec(node="n1", kind="crash", onset_s=0.5),),
)
NO_SHED = ControlPlaneConfig(shed_threshold=1.0)

#: n0 crashes early and its stream moves to n1; at a low threshold
#: fleet degraded mode then sheds BG work on n1 (3-node fleets).
EARLY_CRASH_PLAN = NodeFaultPlan(
    scenario="pinned-early-crash", seed=SEED,
    overrides=(NodeFaultSpec(node="n0", kind="crash", onset_s=0.2),),
)
LOW_SHED = ControlPlaneConfig(shed_threshold=0.05)

#: n1 is throttled from 0.5 s on.
SLOW_ONSET_S = 0.5
SLOW_PLAN = NodeFaultPlan(
    scenario="pinned-slow", seed=SEED,
    overrides=(NodeFaultSpec(node="n1", kind="slow", onset_s=SLOW_ONSET_S),),
)


class TestNodeReplay:
    """Replaying recorded sessions changes no result."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_catalog_identical_with_and_without_records(
        self, seed, replay_counts
    ):
        def cell(name):
            return chaos.run_fleet_cell(
                name, num_nodes=3, executions=3, warmup=1, seed=seed,
            )

        in_order = [cell(name) for name in FLEET_SCENARIO_NAMES]
        # At this size both seeds replay fault-named homes from the
        # node-crash row on, and failover replacements an earlier row
        # filed (seed 0: slow-node, flapping and fleet-chaos; seed 3:
        # slow-node, rack-failure and fleet-chaos).
        assert replay_counts["fault_named"] > 0
        assert replay_counts["replacements"]
        for name, warm in zip(FLEET_SCENARIO_NAMES, in_order):
            clear_caches()
            _assert_same(warm, cell(name), name)

    def test_shed_catches_a_replay_up(self, replay_counts):
        # The shed on n1 comes while n1's recorded run is still
        # replaying.
        def fleet_run():
            cluster = Cluster(build_fleet(num_nodes=3, executions=4, warmup=2))
            return cluster.run(fault_plan=EARLY_CRASH_PLAN, control=LOW_SHED)

        Cluster(build_fleet(num_nodes=3, executions=4, warmup=2)).run()
        replayed = fleet_run()
        assert replay_counts["catch_ups"] > 0
        assert replayed.fleet_report.sheds > 0
        clear_caches()
        _assert_same(replayed, fleet_run())

    def test_fault_free_nodes_replay_without_simulating(self):
        # The control plane acts on no session, so no home node
        # simulates: the crashed n1's replay just stops counting rounds.
        Cluster(build_fleet(num_nodes=4, executions=6, warmup=2)).run()
        nodes = build_fleet(num_nodes=4, executions=6, warmup=2)
        result = Cluster(nodes).run(
            fault_plan=ONE_CRASH_PLAN, control=NO_SHED
        )
        assert result.failovers == 1
        assert result.fleet_report.sheds == 0
        for node in nodes:
            assert node.session.machine.clock.tick == 0, node.name
            if node.name != "n1":
                assert node.name in result.node_results

    def test_replacement_replays_on_a_second_run(self, replay_counts):
        # The first run files every session it ran live to done
        # untouched, n1's replacement included; the second replays it.
        def fleet_run():
            cluster = Cluster(build_fleet(num_nodes=4, executions=6, warmup=2))
            return cluster.run(fault_plan=ONE_CRASH_PLAN, control=NO_SHED)

        first = fleet_run()
        assert first.failovers == 1
        assert replay_counts["replays"] == 0
        second = fleet_run()
        [replacement] = replay_counts["replacements"]
        assert replacement.machine.clock.tick == 0
        assert replay_counts["catch_ups"] == 0
        _assert_same(second, first)

    def test_slow_node_replays_until_its_throttle(self, replay_counts):
        # n1 starts as a replay of its zero-fault run and is caught up
        # in the round its throttle first applies, then runs live.
        def fleet_run():
            cluster = Cluster(build_fleet(num_nodes=3, executions=4, warmup=2))
            return cluster.run(fault_plan=SLOW_PLAN, control=NO_SHED)

        Cluster(build_fleet(num_nodes=3, executions=4, warmup=2)).run()
        replayed = fleet_run()
        assert replay_counts["fault_named"] == 1
        round_s = DRIVE_BLOCK_TICKS * MachineConfig().tick_s
        assert replay_counts["caught_up_at"] == [
            int(SLOW_ONSET_S / round_s)
        ]
        clear_caches()
        _assert_same(replayed, fleet_run())


class TestNodeRecords:
    """The replay memo: dropped by clear_caches, keyed on every field."""

    ARGS = dict(
        name="n0", mix=mix_by_name("ferret rs"), policy=BASELINE,
        executions=2, warmup=1, config=None, seed=5,
    )

    def _node(self, **changes):
        return ClusterNode(**dict(self.ARGS, **changes))

    def test_clear_caches_drops_records(self):
        Cluster([self._node()]).run()
        assert self._node().recorded() is not None
        clear_caches()
        assert not harness._NODE_RECORDS
        assert self._node().recorded() is None

    def test_record_holds_rounds_records_and_result(self):
        node = self._node()
        Cluster([node]).run()
        session = node.session
        # A None config resolves to the default machine, as in the
        # run cache key.
        rounds, records, seen, result = self._node(
            config=MachineConfig()
        ).recorded()
        assert rounds == session._ticks // DRIVE_BLOCK_TICKS
        assert records == session.measured_records()
        assert result == node.result()
        # The clock tick each measured record was seen at, in order.
        assert [len(task) for task in seen] == [len(t) for t in records]
        for task_seen in seen:
            assert list(task_seen) == sorted(task_seen)
            assert 0 < task_seen[0] and task_seen[-1] <= session._ticks

    @pytest.mark.parametrize("field, value", [
        ("mix", mix_by_name("bodytrack bwaves")),
        # Same name, different settings: keyed on the policy itself.
        ("policy", Policy(name="Baseline", static_bg_grade=0)),
        ("executions", 3),
        ("warmup", 2),
        ("config", MachineConfig(os_jitter_sigma=0.0)),
        ("seed", 6),
    ])
    def test_record_never_serves_another_run(self, field, value):
        Cluster([self._node()]).run()
        assert self._node(**{field: value}).recorded() is None

    def test_record_never_serves_another_backend(self, monkeypatch):
        Cluster([self._node()]).run()
        other = (
            BACKEND_SCALAR if resolve_backend() != BACKEND_SCALAR
            else BACKEND_BATCH
        )
        monkeypatch.setenv(ENV_BACKEND, other)
        assert self._node().recorded() is None

    def test_record_never_serves_other_deadlines(self):
        # A failover replacement is judged by its home stream's
        # deadlines, which its own run arguments do not determine.
        Cluster([self._node()]).run()
        args = {k: v for k, v in self.ARGS.items() if k != "name"}
        seed = args["seed"]
        same = PolicySession(**args)
        other = PolicySession(deadlines_s=(0.5,), **args)
        records = harness._NODE_RECORDS
        assert harness.node_record_key(same, None, seed) in records
        assert harness.node_record_key(other, None, seed) not in records

    @pytest.mark.parametrize("plan, config, kind", [
        (EARLY_CRASH_PLAN, LOW_SHED, "shed"),
        (SLOW_PLAN, NO_SHED, "throttle"),
    ], ids=["shed", "throttle"])
    def test_touched_sessions_never_filed(self, plan, config, kind):
        nodes = build_fleet(num_nodes=3, executions=4, warmup=2)
        result = Cluster(nodes).run(fault_plan=plan, control=config)
        assert (result.fleet_report.sheds > 0) == (kind == "shed")
        # n1 was acted on before it was done; n2, untouched, is filed.
        assert nodes[1].recorded() is None
        assert nodes[2].recorded() is not None


class TestReplayAnswers:
    """A replay answers as its real session would, round for round."""

    @pytest.mark.parametrize("warmup", [0, 2])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_every_round_matches_the_real_session(self, seed, warmup):
        # Recorded by a zero-fault run, replayed against block-by-block
        # driving.
        def node():
            return ClusterNode(
                "n0", mix_by_name("raytrace rs"), DIRIGENT, executions=3,
                warmup=warmup, seed=seed,
            )

        recorded = node()
        Cluster([recorded]).run()
        replay = control._Replay(node().session, recorded.recorded())
        real = node().session
        while True:
            assert replay.measured_records() == real.measured_records()
            assert (replay.done, replay._ticks) == (real.done, real._ticks)
            if real.done:
                break
            real.advance(DRIVE_BLOCK_TICKS)
            replay.advance(DRIVE_BLOCK_TICKS)
        assert replay.result() == real.result()

    def test_record_seen_in_a_blocks_last_tick_counts_that_round(self):
        # Completing in block 11's last tick, a dt-long finish puts
        # end_s one ulp past the block's end time: the tick it was seen
        # at, not end_s, decides the round it counts from.
        tick_s = MachineConfig().tick_s
        end_s = 0.35100000000000003 + tick_s
        assert end_s > 11 * DRIVE_BLOCK_TICKS * tick_s
        record = ((end_s, 0.3),)
        replay = control._Replay(
            None, (20, (record,), ((11 * DRIVE_BLOCK_TICKS,),), None)
        )
        for _ in range(10):
            replay.advance(DRIVE_BLOCK_TICKS)
        assert replay.measured_records() == ((),)
        replay.advance(DRIVE_BLOCK_TICKS)
        assert replay.measured_records() == (record,)


RATES = st.sampled_from([0.0, 0.5, 1.0])


class TestRandomNodeFaultPlans:
    """Random node-fault plans: no raise, and replays change nothing."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crash=RATES, partition=RATES, slow=RATES, flap=RATES,
        # The zero-fault nodes run about 5.6 s.
        onset_lo=st.floats(min_value=0.0, max_value=5.0),
        onset_width=st.floats(min_value=0.0, max_value=0.5),
    )
    @example(seed=0, crash=0.0, partition=0.0, slow=0.0, flap=0.0,
             onset_lo=2.0, onset_width=0.5)
    @settings(max_examples=10, deadline=None)
    def test_replays_change_no_result(
        self, seed, crash, partition, slow, flap, onset_lo, onset_width
    ):
        plan = NodeFaultPlan(
            scenario="random", seed=seed, crash_rate=crash,
            partition_rate=partition, slow_rate=slow, flap_rate=flap,
            onset_window_s=(onset_lo, onset_lo + onset_width),
        )

        def fleet_run(fault_plan):
            nodes = build_fleet(num_nodes=3, executions=2, warmup=1)
            return Cluster(nodes).run(fault_plan=fault_plan)

        clear_caches()
        plain = fleet_run(None)
        first = fleet_run(plan)
        if plan.is_zero:
            assert first.fleet_report.event_signature == ()
            _assert_same(replace(first, fleet_report=None), plain)
            return
        second = fleet_run(plan)
        clear_caches()
        third = fleet_run(plan)
        _assert_same(second, first)
        _assert_same(third, first)


class TestFleetChaosWarmup:
    def test_no_baseline_runs_inside_fleet_cells(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "1")
        inside = []
        baselines_inside = []
        run_policy = harness.run_policy
        run_fleet_cell = chaos.run_fleet_cell

        def counting_run_policy(mix, policy, *args, **kwargs):
            if inside and policy == BASELINE:
                baselines_inside.append((mix.name, kwargs.get("seed")))
            return run_policy(mix, policy, *args, **kwargs)

        def fleet_cell(*args, **kwargs):
            inside.append(True)
            try:
                return run_fleet_cell(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(harness, "run_policy", counting_run_policy)
        monkeypatch.setattr(chaos, "run_fleet_cell", fleet_cell)
        # Nodes run raytrace at seeds 3 and 5 and ferret at seed 4.
        chaos.run_fleet_chaos(
            scenarios=("none", "node-crash"), num_nodes=3,
            mixes=("raytrace rs", "ferret rs"), executions=3, warmup=2,
            seed=3,
        )
        assert baselines_inside == []
