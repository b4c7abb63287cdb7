"""Tests for node-level fault plans and the zero-plan bit-identity pin."""

import pytest

from repro.cluster import Cluster, ClusterNode
from repro.core.policies import DIRIGENT
from repro.errors import FaultError
from repro.experiments.harness import clear_caches
from repro.experiments.mixes import mix_by_name
from repro.faults import (
    FLEET_SCENARIO_NAMES,
    ZERO_NODE_FAULTS,
    FleetSchedule,
    NodeFaultPlan,
    NodeFaultSpec,
    fleet_scenario,
)

NAMES = ["n0", "n1", "n2", "n3", "n4", "n5"]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestNodeFaultSpec:
    def test_kind_validated(self):
        with pytest.raises(FaultError, match="unknown node-fault kind"):
            NodeFaultSpec(node="n0", kind="meltdown", onset_s=1.0)

    def test_flap_needs_cycle_shape(self):
        with pytest.raises(FaultError):
            NodeFaultSpec(node="n0", kind="flap", onset_s=1.0, cycles=0)
        with pytest.raises(FaultError):
            NodeFaultSpec(node="n0", kind="flap", onset_s=1.0, cycles=2,
                          down_s=0.0, up_s=0.5)

    def test_crash_down_forever(self):
        spec = NodeFaultSpec(node="n0", kind="crash", onset_s=2.0)
        assert not spec.is_down(1.999)
        assert spec.is_down(2.0)
        assert spec.is_down(1e9)

    def test_flap_down_intervals(self):
        spec = NodeFaultSpec(node="n0", kind="flap", onset_s=1.0,
                             down_s=0.5, up_s=0.25, cycles=2)
        assert spec.down_intervals() == ((1.0, 1.5), (1.75, 2.25))
        assert spec.is_down(1.2)
        assert not spec.is_down(1.6)
        assert spec.is_down(2.0)
        assert not spec.is_down(2.25)

    def test_partition_and_slow_never_down(self):
        for kind in ("partition", "slow"):
            spec = NodeFaultSpec(node="n0", kind=kind, onset_s=1.0)
            assert spec.down_intervals() == ()
            assert not spec.is_down(5.0)


class TestNodeFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(FaultError, match="crash_rate"):
            NodeFaultPlan(crash_rate=1.5)
        with pytest.raises(FaultError, match="onset_window_s"):
            NodeFaultPlan(onset_window_s=(3.0, 1.0))
        with pytest.raises(FaultError, match="rack_rate needs rack_size"):
            NodeFaultPlan(rack_rate=0.5)

    def test_zero_plan_draws_nothing(self):
        assert ZERO_NODE_FAULTS.is_zero
        assert ZERO_NODE_FAULTS.schedule(NAMES) == FleetSchedule(specs=())

    def test_overrides_defeat_is_zero(self):
        plan = NodeFaultPlan(overrides=(
            NodeFaultSpec(node="n0", kind="crash", onset_s=1.0),
        ))
        assert not plan.is_zero

    def test_schedule_deterministic(self):
        plan = NodeFaultPlan(scenario="x", seed=11, crash_rate=0.5,
                             slow_rate=0.5)
        assert plan.schedule(NAMES) == plan.schedule(NAMES)
        other = plan.with_seed(12).schedule(NAMES)
        assert other != plan.schedule(NAMES)

    def test_per_kind_streams_independent(self):
        """Enabling another kind never moves an existing kind's draws."""
        alone = NodeFaultPlan(seed=5, slow_rate=0.6).schedule(NAMES)
        combined = NodeFaultPlan(
            seed=5, slow_rate=0.6, flap_rate=0.6
        ).schedule(NAMES)
        slow_alone = {s.node: s for s in alone.specs if s.kind == "slow"}
        slow_combined = {
            s.node: s for s in combined.specs if s.kind == "slow"
        }
        # Flap has lower precedence than slow, so every slow fault
        # drawn alone survives verbatim in the combined plan.
        assert slow_alone == slow_combined

    def test_precedence_crash_beats_flap(self):
        plan = NodeFaultPlan(seed=0, crash_rate=1.0, flap_rate=1.0)
        schedule = plan.schedule(NAMES)
        assert len(schedule.specs) == len(NAMES)
        assert all(spec.kind == "crash" for spec in schedule.specs)

    def test_rack_failure_correlated(self):
        plan = NodeFaultPlan(seed=2, rack_size=3, rack_rate=1.0)
        schedule = plan.schedule(NAMES)
        assert len(schedule.specs) == len(NAMES)
        racks = {}
        for spec in schedule.specs:
            assert spec.kind == "crash"
            racks.setdefault(spec.rack, set()).add(spec.onset_s)
        assert set(racks) == {0, 1}
        # One shared onset per rack: the failure is correlated.
        assert all(len(onsets) == 1 for onsets in racks.values())

    def test_override_unknown_node_rejected(self):
        plan = NodeFaultPlan(overrides=(
            NodeFaultSpec(node="ghost", kind="crash", onset_s=1.0),
        ))
        with pytest.raises(FaultError, match="unknown node"):
            plan.schedule(NAMES)

    def test_catalog(self):
        assert "none" in FLEET_SCENARIO_NAMES
        for name in FLEET_SCENARIO_NAMES:
            plan = fleet_scenario(name, seed=9)
            assert plan.seed == 9
        with pytest.raises(FaultError, match="unknown fleet scenario"):
            fleet_scenario("nope")


class TestFleetSchedule:
    def test_injection_events_include_flap_edges(self):
        schedule = FleetSchedule(specs=(
            NodeFaultSpec(node="n1", kind="flap", onset_s=1.0,
                          down_s=0.5, up_s=0.5, cycles=2),
            NodeFaultSpec(node="n0", kind="crash", onset_s=0.5),
        ))
        events = schedule.injection_events()
        kinds = [(event[1], event[2]) for event in events]
        assert kinds == [
            ("n0", "node-crash"),
            ("n1", "flap-down"), ("n1", "flap-up"),
            ("n1", "flap-down"), ("n1", "flap-up"),
        ]
        assert schedule.injection_counts() == {
            "node-flap": 1, "node-crash": 1,
        }


class TestZeroPlanBitIdentity:
    """A zero plan must be bit-identical to no plan at all."""

    EXECS = 5

    def _nodes(self):
        mix = mix_by_name("ferret rs")
        return [
            ClusterNode("n%d" % i, mix, DIRIGENT, executions=self.EXECS,
                        warmup=2, seed=20 + i)
            for i in range(3)
        ]

    def test_zero_plan_matches_plain_run(self):
        plain = Cluster(self._nodes()).run()
        zero = Cluster(self._nodes()).run(fault_plan=ZERO_NODE_FAULTS)
        assert zero.node_results == plain.node_results
        assert zero.fg_success_ratio == plain.fg_success_ratio
        assert zero.total_bg_instr_per_s == plain.total_bg_instr_per_s
        # The zero-plan run reports an empty fleet signature: no control
        # plane was installed, nothing happened.
        assert zero.fleet_report is not None
        assert zero.fleet_report.event_signature == ()
        assert zero.fleet_report.total_injected == 0
        assert zero.failovers == 0
        assert zero.stranded_executions == 0
        # And the plain run carries no report at all.
        assert plain.fleet_report is None
