"""Unit tests for the fine time scale controller policy."""

import pytest

from repro.core.fine import FgStatus, FineGrainController
from repro.errors import ControlError
from tests.core.fakes import FakeSystem

#: FG on core 0; five BG tasks (pids 11-15) on cores 1-5.
BG_PIDS = (11, 12, 13, 14, 15)
PID_TO_CORE = {pid: core for core, pid in enumerate(BG_PIDS, start=1)}


def make_controller(**kwargs):
    system = FakeSystem(pid_to_core=dict(PID_TO_CORE))
    controller = FineGrainController(system, BG_PIDS, **kwargs)
    return system, controller


def status(ratio, pid=1, core=0, deadline=1.0):
    return FgStatus(
        pid=pid, core=core, predicted_total_s=ratio * deadline,
        deadline_s=deadline,
    )


class TestFgStatus:
    def test_ratio(self):
        assert status(1.2).ratio == pytest.approx(1.2)

    def test_zero_deadline_rejected(self):
        with pytest.raises(ControlError):
            FgStatus(pid=1, core=0, predicted_total_s=1.0, deadline_s=0.0).ratio


class TestAheadBranch:
    def test_resume_paused_bg_first(self):
        system, controller = make_controller()
        system.pause(11)
        system.pause(12)
        decision = controller.decide([status(0.5)])
        assert decision.action == "bg-resume"
        assert not system.is_paused(11)
        assert not system.is_paused(12)

    def test_speed_up_throttled_bg_second(self):
        system, controller = make_controller()
        system.grades[1] = 2
        system.grades[2] = 0
        decision = controller.decide([status(0.5)])
        assert decision.action == "bg-speedup"
        assert system.grades[1] == 3
        assert system.grades[2] == 1
        assert system.grades[3] == 4  # untouched, already max

    def test_throttle_fg_when_bg_unconstrained(self):
        system, controller = make_controller()
        decision = controller.decide([status(0.5)])
        assert decision.action == "fg-throttle"
        assert system.grades[0] == 3

    def test_fg_at_min_cannot_throttle_further(self):
        system, controller = make_controller()
        system.grades[0] = 0
        decision = controller.decide([status(0.5)])
        assert decision.action == "none"

    def test_one_grade_per_decision_on_release(self):
        system, controller = make_controller()
        system.grades[1] = 0
        controller.decide([status(0.5)])
        assert system.grades[1] == 1  # gradual release


class TestDeadband:
    def test_no_action_near_target(self):
        system, controller = make_controller(
            ahead_margin=0.02, deadline_guard=0.05
        )
        # target ratio = 0.95; deadband is (0.93, 0.95).
        decision = controller.decide([status(0.94)])
        assert decision.action == "none"
        assert system.actions == []

    def test_slightly_past_target_is_behind(self):
        system, controller = make_controller(
            ahead_margin=0.02, deadline_guard=0.05
        )
        system.grades[0] = 2
        decision = controller.decide([status(0.96)])
        assert decision.action == "fg-max"


class TestBehindBranch:
    def test_fg_raised_to_max_first(self):
        system, controller = make_controller()
        system.grades[0] = 1
        decision = controller.decide([status(1.2)])
        assert decision.action == "fg-max"
        assert system.grades[0] == 4

    def test_bg_clamped_to_min_second(self):
        system, controller = make_controller()
        decision = controller.decide([status(1.02)])
        assert decision.action == "bg-throttle"
        assert all(system.grades[core] == 0 for core in range(1, 6))

    def test_pause_requires_large_lag(self):
        system, controller = make_controller(
            pause_margin=0.08, deadline_guard=0.05
        )
        for core in range(1, 6):
            system.grades[core] = 0
        decision = controller.decide([status(1.02)])
        assert decision.action == "none"  # 1.02 < 0.95 + 0.08

    def test_pause_most_intrusive_bg(self):
        system, controller = make_controller(
            pause_margin=0.08, deadline_guard=0.05
        )
        for core in range(1, 6):
            system.grades[core] = 0
        intrusiveness = {11: 10.0, 12: 500.0, 13: 50.0, 14: 1.0, 15: 0.0}
        decision = controller.decide([status(1.2)], intrusiveness)
        assert decision.action == "bg-pause"
        assert system.is_paused(12)
        assert not system.is_paused(13)

    def test_paused_tasks_not_paused_again(self):
        system, controller = make_controller(
            pause_margin=0.08, deadline_guard=0.05
        )
        for core in range(1, 6):
            system.grades[core] = 0
        for pid in BG_PIDS[:4]:
            system.pause(pid)
        controller.decide([status(1.5)], {pid: 1.0 for pid in BG_PIDS})
        assert system.is_paused(15)

    def test_all_paused_nothing_to_do(self):
        system, controller = make_controller()
        for core in range(1, 6):
            system.grades[core] = 0
        for pid in BG_PIDS:
            system.pause(pid)
        decision = controller.decide([status(1.5)])
        assert decision.action == "none"


class TestMultiFg:
    def test_all_same_tendency_uses_single_policy(self):
        system, controller = make_controller()
        decision = controller.decide([status(0.5), status(0.6, pid=2, core=1)])
        assert decision.action == "fg-throttle"
        assert system.grades[0] == 3
        assert system.grades[1] == 3

    def test_mixed_tendency_drives_bg_by_slowest(self):
        system, controller = make_controller()
        ahead = status(0.5, pid=1, core=0)
        behind = status(1.2, pid=2, core=1)
        decision = controller.decide([ahead, behind])
        # Slowest FG is already at max => BG throttled; the ahead FG is
        # individually throttled one grade.
        assert decision.action.startswith("bg-throttle")
        assert "+fg-throttle" in decision.action
        assert system.grades[0] == 3  # ahead FG yielded
        assert all(system.grades[core] == 0 for core in range(2, 6))

    def test_empty_statuses_rejected(self):
        _, controller = make_controller()
        with pytest.raises(ControlError):
            controller.decide([])


class TestDecisionRecords:
    def test_decisions_accumulate(self):
        system, controller = make_controller()
        controller.decide([status(0.5)])
        controller.decide([status(1.2)])
        assert len(controller.decisions) == 2

    def test_record_contents(self):
        system, controller = make_controller()
        system.pause(11)
        system.time_s = 3.5
        decision = controller.decide([status(1.2)])
        assert decision.time_s == 3.5
        assert decision.worst_ratio == pytest.approx(1.2)
        assert decision.bg_paused == 1
        assert set(decision.bg_grades) == set(range(1, 6))

    def test_validation(self):
        with pytest.raises(ControlError):
            make_controller(ahead_margin=1.5)
        with pytest.raises(ControlError):
            make_controller(pause_margin=-0.1)
        with pytest.raises(ControlError):
            make_controller(deadline_guard=1.0)


class TestFakeSystemConformance:
    def test_fake_satisfies_protocol(self):
        from repro.sim.osal import SystemInterface

        system = FakeSystem(pid_to_core=dict(PID_TO_CORE))
        assert isinstance(system, SystemInterface)


class _CountingStatus(FgStatus):
    """An FgStatus that counts how often its ratio is computed."""

    computed = []

    @property
    def ratio(self):
        _CountingStatus.computed.append(self.pid)
        return FgStatus.ratio.fget(self)


class TestOneRatioPerStatus:
    @pytest.mark.parametrize("ratios, action", [
        ((0.5, 0.6, 0.7), "fg-throttle"),  # all ahead
        ((0.5, 1.3, 1.3), "fg-max"),       # behind, one ahead yields
        ((0.94, 0.95, 0.93), "none"),      # in the band
    ])
    def test_each_ratio_is_computed_once(self, ratios, action):
        system, controller = make_controller()
        fg_cores = (0, 6, 7)
        system.grades.update({6: 2, 7: 4})  # FG 2 starts below max
        statuses = [
            _CountingStatus(pid=pid, core=core,
                            predicted_total_s=ratio, deadline_s=1.0)
            for pid, core, ratio in zip((1, 2, 3), fg_cores, ratios)
        ]
        _CountingStatus.computed = []
        decision = controller.decide(statuses)
        assert decision.action.startswith(action)
        assert sorted(_CountingStatus.computed) == [1, 2, 3]
        assert decision.worst_ratio == max(ratios)
