"""Unit tests for the fleet control plane (no simulations)."""

import pytest

from repro.cluster import (
    ControlPlaneConfig,
    FailoverDispatcher,
    HeartbeatMonitor,
)
from repro.errors import ExperimentError
from repro.sched.reservation import TaskStream

NAMES = ["n0", "n1", "n2"]


def config(**overrides):
    return ControlPlaneConfig(**overrides)


class TestControlPlaneConfig:
    def test_defaults_valid(self):
        cfg = config()
        assert cfg.failover
        assert cfg.dead_timeout_s > cfg.suspect_timeout_s

    def test_validation(self):
        with pytest.raises(ExperimentError):
            config(suspect_timeout_s=0.0)
        with pytest.raises(ExperimentError):
            config(suspect_timeout_s=0.5, dead_timeout_s=0.4)
        with pytest.raises(ExperimentError):
            config(max_retries=-1)
        with pytest.raises(ExperimentError):
            config(backoff_factor=0.5)
        with pytest.raises(ExperimentError):
            config(period_headroom=1.0)
        with pytest.raises(ExperimentError):
            config(shed_threshold=0.0)

    def test_from_env_reads_knobs(self, monkeypatch):
        # The failover switch is the one knob; the heartbeat timeouts
        # keep their defaults whatever the environment holds.
        monkeypatch.setenv("REPRO_FLEET_SUSPECT_S", "0.2")
        monkeypatch.setenv("REPRO_FLEET_DEAD_S", "0.9")
        monkeypatch.setenv("REPRO_FLEET_FAILOVER", "0")
        cfg = ControlPlaneConfig.from_env()
        assert cfg.suspect_timeout_s == config().suspect_timeout_s
        assert cfg.dead_timeout_s == config().dead_timeout_s
        assert not cfg.failover

    def test_from_env_overrides_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_FAILOVER", "0")
        cfg = ControlPlaneConfig.from_env(failover=True)
        assert cfg.failover


class TestHeartbeatMonitor:
    def test_walks_alive_suspect_dead(self):
        monitor = HeartbeatMonitor(NAMES, config())
        assert monitor.states() == {name: "alive" for name in NAMES}
        monitor.beat("n0", 0.1)
        monitor.beat("n1", 0.1)
        # n2 never beats: suspect once the gap crosses 0.15s...
        transitions = monitor.observe(0.2)
        assert transitions == [("n2", "alive", "suspect")]
        # ...and dead past 0.4s; the others stay alive.
        monitor.beat("n0", 0.35)
        monitor.beat("n1", 0.35)
        transitions = monitor.observe(0.45)
        assert transitions == [("n2", "suspect", "dead")]
        assert monitor.state("n0") == "alive"
        assert monitor.state("n2") == "dead"

    def test_beat_revives(self):
        monitor = HeartbeatMonitor(NAMES, config())
        monitor.observe(1.0)
        assert monitor.state("n0") == "dead"
        transitions = monitor.beat("n0", 1.1)
        assert transitions == [("n0", "dead", "alive")]
        # A fresh beat means no immediate re-demotion (n1/n2 were
        # already declared dead at the first observe).
        assert monitor.observe(1.2) == []
        assert monitor.state("n0") == "alive"

    def test_no_repeat_transitions(self):
        monitor = HeartbeatMonitor(NAMES, config())
        assert len(monitor.observe(5.0)) == len(NAMES)
        assert monitor.observe(6.0) == []


class TestFailoverDispatcher:
    def _stream(self, name, reservation=0.4, period=1.0):
        return TaskStream(
            name=name, period_s=period, reservation_s=reservation
        )

    def test_place_prefers_first_fitting_candidate(self):
        dispatcher = FailoverDispatcher(NAMES, config(capacity_cores=1.0))
        dispatcher.admit_home("n1", [self._stream("a", reservation=0.9)])
        host = dispatcher.try_place(
            [self._stream("b", reservation=0.4)], ["n1", "n2"]
        )
        assert host == "n2"  # n1 has no headroom left

    def test_place_respects_capacity(self):
        dispatcher = FailoverDispatcher(NAMES, config(capacity_cores=1.0))
        for name in NAMES:
            dispatcher.admit_home(name, [self._stream(name, reservation=0.9)])
        assert dispatcher.try_place(
            [self._stream("x", reservation=0.4)], NAMES
        ) is None

    def test_release_restores_capacity(self):
        dispatcher = FailoverDispatcher(NAMES, config(capacity_cores=1.0))
        dispatcher.admit_home("n0", [self._stream("a", reservation=0.9)])
        assert dispatcher.try_place(
            [self._stream("b", reservation=0.4)], ["n0"]
        ) is None
        dispatcher.release("n0")
        assert dispatcher.try_place(
            [self._stream("b", reservation=0.4)], ["n0"]
        ) == "n0"

    def test_home_admission_is_unconditional(self):
        dispatcher = FailoverDispatcher(NAMES, config(capacity_cores=1.0))
        # An overloaded home node is recorded as-is...
        dispatcher.admit_home("n0", [
            self._stream("a", reservation=0.9),
            self._stream("b", reservation=0.9),
        ])
        assert dispatcher.reserved_utilization(["n0"]) > 1.0
        # ...so its apparent headroom for failovers is honest (none).
        assert dispatcher.try_place(
            [self._stream("c", reservation=0.1)], ["n0"]
        ) is None

    def test_utilization_and_capacity(self):
        dispatcher = FailoverDispatcher(NAMES, config(capacity_cores=2.0))
        dispatcher.admit_home("n0", [self._stream("a", reservation=1.0)])
        assert dispatcher.reserved_utilization(["n0"]) == pytest.approx(1.0)
        assert dispatcher.capacity(NAMES) == pytest.approx(6.0)
