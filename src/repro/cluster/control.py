"""Self-healing fleet control plane: detect, fail over, quarantine, shed.

This module runs a faulted cluster (:class:`repro.cluster.Cluster` with
a non-zero :class:`repro.faults.NodeFaultPlan`) the way a datacenter
control plane would run real nodes:

* a :class:`HeartbeatMonitor` consumes per-node beats and walks each
  node through ``alive -> suspect -> dead`` on beat-gap timeouts — it
  never sees the fault schedule, only the beats the schedule lets
  through;
* a :class:`FailoverDispatcher` re-places the FG streams of dead nodes
  onto survivors through :class:`repro.sched.ReservationScheduler`
  admission, with bounded retries under deterministic exponential
  backoff plus seeded jitter (suspect nodes are drained: never chosen
  as targets, not yet evacuated);
* nodes that flap back alive are *quarantined* — excluded as failover
  targets until a dwell passes without another incident (the fleet
  analogue of the single-node normal -> degraded -> safe ladder);
* when the reserved utilization of the surviving fleet crosses a
  threshold the controller enters *fleet degraded mode* and sheds BG
  work on the nodes absorbing re-placed streams.

Determinism: the controller advances every live session in fixed
rounds of ``DRIVE_BLOCK_TICKS`` machine ticks, and every control-plane
event time is derived from the round counter.  Machines are
bit-identical across the scalar and batch backends (pinned by the
equivalence suites), so completions land in the same rounds and the
merged injection + control event stream — the fleet
``event_signature`` — is identical across backends and repeat runs.

The controller changes a session in three ways only: it advances it
one round at a time while its host is up, fleet degraded mode pauses
its BG work, and a slow-node fault pins its core frequencies.  Crash,
partition and flap faults only withhold rounds, so until the
controller acts on its machine a session's state is a function of its
build arguments and the rounds it was advanced.  Every session the
controller starts at tick 0 — home node or failover replacement —
replays when an earlier run in the process filed its outcome
(zero-fault :meth:`repro.cluster.Cluster.run` files every node; the
controller files every session it started at tick 0 and ran live to
done untouched): a :class:`_Replay` counts rounds instead of
simulating and answers everything the controller reads of a session
as the real one would at the same round.  Acting on a replay's machine
(:meth:`FleetController._act_on`) first catches the real session up,
round for round, and runs it live from there.

Accounting is partial-credit: a stream's target is its node's measured
execution count, credit comes from completions delivered before the
placement's loss-of-service cutover plus everything its replacements
deliver, and undelivered executions count as missed in the fleet-wide
FG attainment — so failover visibly buys QoS and stranded work
visibly costs it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ExperimentError
from repro.experiments.harness import (
    _NODE_RECORDS,
    DRIVE_BLOCK_TICKS,
    PolicySession,
    RunResult,
    node_record_key,
    record_node,
)
from repro.experiments.metrics import (
    DEADLINE_SIGMA_FACTOR,
    deadline_for,
    duration_stats,
)
from repro.faults.fleet import FleetFaultReport, NodeFaultPlan, NodeFaultSpec
from repro.sched.reservation import ReservationScheduler, TaskStream
from repro.sim.config import (
    env_fleet_dead_s,
    env_fleet_suspect_s,
    fleet_failover_enabled,
)
from repro.sim.timebase import derive_rng
from repro.workloads import get_workload

#: Node health states the monitor reports.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Tunables of the fleet control plane.

    Defaults are plain literals; :meth:`from_env` resolves the
    env-overridable ones (heartbeat timeouts, the failover kill switch)
    at call time, never at import.

    Attributes:
        suspect_timeout_s: Beat gap before a node turns suspect
            (drained as a failover target).
        dead_timeout_s: Beat gap before a node is declared dead (its
            streams are re-placed).
        failover: Master switch for re-placement; monitoring and
            accounting run either way.
        max_retries: Re-placement attempts per incident before the
            stream is stranded.
        backoff_base_s: First retry delay.
        backoff_factor: Multiplier per further retry.
        backoff_jitter_s: Upper bound of the seeded uniform jitter
            added to each backoff.
        quarantine_dwell_s: How long a recovered (flapping) node stays
            quarantined before it can host failovers again.
        capacity_cores: Latency-critical capacity per node offered to
            admission control.
        period_headroom: A stream's admission period is its deadline
            times this factor (period > reservation keeps one stream
            under one core of utilization).
        shed_threshold: Fleet-wide reserved-utilization fraction (of
            surviving capacity) above which BG work is shed on nodes
            hosting re-placed streams.
    """

    suspect_timeout_s: float = 0.15
    dead_timeout_s: float = 0.4
    failover: bool = True
    max_retries: int = 4
    backoff_base_s: float = 0.064
    backoff_factor: float = 2.0
    backoff_jitter_s: float = 0.032
    quarantine_dwell_s: float = 1.0
    capacity_cores: float = 2.0
    period_headroom: float = 1.25
    shed_threshold: float = 0.75

    def __post_init__(self) -> None:
        if self.suspect_timeout_s <= 0:
            raise ExperimentError("suspect_timeout_s must be positive")
        if self.dead_timeout_s <= self.suspect_timeout_s:
            raise ExperimentError(
                "dead_timeout_s must exceed suspect_timeout_s"
            )
        if self.max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if self.backoff_base_s <= 0 or self.backoff_factor < 1.0:
            raise ExperimentError("backoff must be positive and growing")
        if self.backoff_jitter_s < 0:
            raise ExperimentError("backoff_jitter_s must be >= 0")
        if self.quarantine_dwell_s < 0:
            raise ExperimentError("quarantine_dwell_s must be >= 0")
        if self.capacity_cores <= 0:
            raise ExperimentError("capacity_cores must be positive")
        if self.period_headroom <= 1.0:
            raise ExperimentError("period_headroom must exceed 1")
        if not 0.0 < self.shed_threshold <= 1.0:
            raise ExperimentError("shed_threshold must be in (0, 1]")

    @classmethod
    def from_env(cls, **overrides) -> "ControlPlaneConfig":
        """Config with the env-overridable knobs resolved now."""
        values = dict(
            suspect_timeout_s=env_fleet_suspect_s(),
            dead_timeout_s=env_fleet_dead_s(),
            failover=fleet_failover_enabled(),
        )
        values.update(overrides)
        return cls(**values)


class HeartbeatMonitor:
    """Tracks per-node liveness from heartbeat arrival gaps.

    The monitor is schedule-blind: a partitioned node computes on
    happily, but its beats never arrive, so it walks to ``dead`` like a
    crashed one — exactly the ambiguity a real control plane faces.
    """

    def __init__(
        self, node_names: Sequence[str], config: ControlPlaneConfig
    ) -> None:
        self._suspect_s = config.suspect_timeout_s
        self._dead_s = config.dead_timeout_s
        self._last_beat: Dict[str, float] = {
            name: 0.0 for name in node_names
        }
        self._state: Dict[str, str] = {name: ALIVE for name in node_names}

    def state(self, node: str) -> str:
        """Current health state of ``node``."""
        return self._state[node]

    def states(self) -> Dict[str, str]:
        """Snapshot of every node's health state."""
        return dict(self._state)

    def last_beat(self, node: str) -> float:
        """Arrival time of the node's last seen beat."""
        return self._last_beat[node]

    def beat(self, node: str, now: float) -> List[Tuple[str, str, str]]:
        """Deliver one beat; returns ``(node, old, new)`` transitions.

        A beat from a suspect or dead node flips it back to alive — the
        caller decides whether that recovery earns a quarantine.
        """
        self._last_beat[node] = now
        old = self._state[node]
        if old == ALIVE:
            return []
        self._state[node] = ALIVE
        return [(node, old, ALIVE)]

    def observe(self, now: float) -> List[Tuple[str, str, str]]:
        """Advance timeout state machines; returns transitions in order."""
        transitions: List[Tuple[str, str, str]] = []
        for node, last in self._last_beat.items():
            gap = now - last
            old = self._state[node]
            if gap >= self._dead_s and old != DEAD:
                self._state[node] = DEAD
                transitions.append((node, old, DEAD))
            elif self._suspect_s <= gap < self._dead_s and old == ALIVE:
                self._state[node] = SUSPECT
                transitions.append((node, old, SUSPECT))
        return transitions


class FailoverDispatcher:
    """Reservation-gated re-placement of streams onto surviving nodes.

    Holds one :class:`ReservationScheduler` per node.  Initial (home)
    admissions record what each node already runs; failover placements
    go first-fit over the candidate nodes in the order given, so
    placement is deterministic given the candidate set.
    """

    def __init__(
        self, node_names: Sequence[str], config: ControlPlaneConfig,
    ) -> None:
        self._config = config
        self._schedulers: Dict[str, ReservationScheduler] = {
            name: ReservationScheduler(config.capacity_cores)
            for name in node_names
        }

    def admit_home(self, node: str, streams: Sequence[TaskStream]) -> None:
        """Record the node's own streams (admitted unconditionally).

        A home stream is already running whether or not it fits the
        advertised capacity; recording it keeps failover admission
        honest about what survivors can still absorb.
        """
        scheduler = self._schedulers[node]
        for stream in streams:
            if not scheduler.try_admit(stream):
                scheduler._admitted.append(stream)

    def release(self, node: str) -> None:
        """Void a dead node's reservations (its capacity is gone)."""
        self._schedulers[node] = ReservationScheduler(
            self._config.capacity_cores
        )

    def try_place(
        self,
        streams: Sequence[TaskStream],
        candidates: Sequence[str],
    ) -> Optional[str]:
        """First-fit a stream bundle onto one candidate node.

        All of a node's FG streams move together (they are one mix on
        one machine).  Returns the chosen node name, or None when no
        candidate has the capacity.
        """
        total = sum(stream.utilization for stream in streams)
        for node in candidates:
            scheduler = self._schedulers[node]
            if total <= scheduler.headroom + 1e-12:
                for stream in streams:
                    scheduler.try_admit(stream)
                return node
        return None

    def reserved_utilization(self, nodes: Sequence[str]) -> float:
        """Total reserved utilization over ``nodes``, in cores."""
        return sum(
            self._schedulers[node].reserved_utilization for node in nodes
        )

    def capacity(self, nodes: Sequence[str]) -> float:
        """Total advertised capacity over ``nodes``, in cores."""
        return self._config.capacity_cores * len(nodes)


class _Replay:
    """A session replayed from its filed outcome.

    Answers ``done``, ``_ticks``, ``measured_records()``, ``result()``
    and ``deadlines`` exactly as the real session would after as many
    ``advance(DRIVE_BLOCK_TICKS)`` calls as rounds counted; a round
    costs a counter increment.  Mid-run it holds the records the real
    session's completion listener would have seen by then, by the
    clock tick each was seen at.
    """

    def __init__(self, session: PolicySession, record) -> None:
        #: The real session, built but never advanced.
        self.session = session
        self._rounds, self._records, self._seen, self._result = record
        self.rounds = 0

    @property
    def done(self) -> bool:
        return self.rounds >= self._rounds

    @property
    def _ticks(self) -> int:
        return self.rounds * DRIVE_BLOCK_TICKS

    @property
    def deadlines(self) -> Optional[Tuple[float, ...]]:
        return self.session.deadlines

    def advance(self, ticks: int) -> None:
        """Count one round (``ticks`` is always ``DRIVE_BLOCK_TICKS``)."""
        if not self.done:
            self.rounds += 1

    def measured_records(self) -> Tuple[Tuple[Tuple[float, float], ...], ...]:
        """Mid-run: the records seen by the real session's clock tick."""
        if self.done:
            return self._records
        now = self._ticks
        return tuple(
            task[:bisect_right(seen, now)]
            for task, seen in zip(self._records, self._seen)
        )

    def result(self) -> RunResult:
        if not self.done:
            raise ExperimentError("session has not finished")
        return self._result

    def catch_up(self) -> PolicySession:
        """The real session, advanced through the rounds counted."""
        for _ in range(self.rounds):
            self.session.advance(DRIVE_BLOCK_TICKS)
        return self.session


@dataclass
class _Placement:
    """One hosting assignment of a stream: a session on a host node."""

    #: A :class:`_Replay` stands in for a filed run until the
    #: controller acts on its machine.
    session: PolicySession
    host: str
    label: str
    #: Completions with machine-clock ``end_s`` <= cutover are credited;
    #: inf means the placement is (still) fully reachable.
    cutover_s: float = math.inf
    #: Live placements are advanced and can complete; a placement dies
    #: when its host crashes out or its stream moves elsewhere.
    live: bool = True


@dataclass
class _Stream:
    """One FG stream's fleet-level lifecycle."""

    home: str
    target: int
    warmup: int
    deadlines: Optional[Tuple[float, ...]]
    placements: List[_Placement] = field(default_factory=list)
    state: str = "running"  # running | failing | done | stranded
    attempts: int = 0
    next_retry_s: float = 0.0
    incident_onset_s: float = 0.0
    incidents: int = 0

    @property
    def hosting(self) -> _Placement:
        """The placement currently responsible for the stream."""
        return self.placements[-1]


class FleetController:
    """Runs one faulted cluster to resolution under the control plane.

    Built by :meth:`repro.cluster.Cluster.run` for non-zero plans; the
    zero-plan path never constructs one, which is what makes zero-fault
    bit-identity structural rather than coincidental.
    """

    def __init__(
        self,
        nodes: Sequence,  # Sequence[repro.cluster.dispatch.ClusterNode]
        plan: NodeFaultPlan,
        config: Optional[ControlPlaneConfig] = None,
    ) -> None:
        self._nodes = list(nodes)
        self._plan = plan
        self._config = config or ControlPlaneConfig.from_env()
        self._names = [node.name for node in self._nodes]
        self._schedule = plan.schedule(self._names)
        tick_values = {
            node.session.machine.config.tick_s for node in self._nodes
        }
        if len(tick_values) != 1:
            raise ExperimentError("fleet nodes must share one tick length")
        self._tick_s = tick_values.pop()
        self._round_s = DRIVE_BLOCK_TICKS * self._tick_s
        self._events: List[Tuple[float, str, str, str]] = []
        self._retry_rng = derive_rng(plan.seed, "fleet/failover")
        #: Sessions started at tick 0 and not yet acted on, with their
        #: replay-memo keys.
        self._untouched: Dict[PolicySession, tuple] = {}

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    def _quantize(self, t: float) -> float:
        """First round boundary at or after ``t`` (effect times)."""
        return round(
            math.ceil(t / self._round_s - 1e-9) * self._round_s, 9
        )

    def _record(self, t: float, node: str, kind: str, detail: str) -> None:
        self._events.append((round(t, 9), node, kind, detail))

    def _node_by_name(self, name: str):
        for node in self._nodes:
            if node.name == name:
                return node
        raise ExperimentError("unknown node %r" % name)

    def _incident_onset(self, spec: Optional[NodeFaultSpec],
                        t_end: float) -> float:
        """True service-loss time behind a detection at ``t_end``."""
        if spec is None:
            return t_end
        if spec.kind == "flap":
            starts = [
                start for start, _ in spec.down_intervals()
                if self._quantize(start) <= t_end
            ]
            if starts:
                return self._quantize(starts[-1])
        return self._quantize(spec.onset_s)

    def _streams_for(self, node) -> List[TaskStream]:
        """Admission streams of one node's FG tasks.

        Reservation is the task deadline (a tail bound by construction:
        deadlines are mu + k*sigma of clean Baseline completions) and
        the period is the deadline padded by ``period_headroom``.
        Sessions without deadlines (Baseline nodes) fall back to the
        harness's nominal duration estimate.
        """
        deadlines = node.session.deadlines
        if not deadlines:
            est = get_workload(node.mix.fg_name).total_instructions / 1.5e9
            deadlines = tuple([est] * node.mix.fg_count)
        return [
            TaskStream(
                name="%s/fg%d" % (node.name, i),
                period_s=deadline * self._config.period_headroom,
                reservation_s=deadline,
            )
            for i, deadline in enumerate(deadlines)
        ]

    # ------------------------------------------------------------------
    # The fleet loop
    # ------------------------------------------------------------------

    def run(self):
        """Drive the fleet to resolution; returns a ClusterResult.

        Nothing drives the run's sessions once it returns (or raises),
        so it closes every one: finished, crashed, abandoned and
        replaced sessions, and the real session behind every replay.
        """
        streams: Dict[str, _Stream] = {}
        try:
            return self._run(streams)
        finally:
            for stream in streams.values():
                for placement in stream.placements:
                    session = placement.session
                    if isinstance(session, _Replay):
                        session = session.session
                    session.machine.close()

    def _run(self, streams: Dict[str, _Stream]):
        """The fleet loop of :meth:`run`, filling ``streams`` as it goes."""
        config = self._config
        monitor = HeartbeatMonitor(self._names, config)
        dispatcher = FailoverDispatcher(self._names, config)
        specs: Dict[str, Optional[NodeFaultSpec]] = {
            name: self._schedule.spec_for(name) for name in self._names
        }
        for node in self._nodes:
            dispatcher.admit_home(node.name, self._streams_for(node))
            session = node.session
            streams[node.name] = _Stream(
                home=node.name,
                target=node.executions,
                warmup=node.warmup,
                deadlines=session.deadlines,
                placements=[_Placement(
                    session=(
                        session if session._ticks
                        else self._start(session, node._run_key)
                    ),
                    host=node.name,
                    label=node.name,
                )],
            )

        for t, node_name, kind, detail in self._schedule.injection_events():
            self._record(self._quantize(t), node_name, kind, detail)

        onset_latched: Set[str] = set()
        flap_down_now: Dict[str, bool] = {}
        detected: Set[str] = set()
        quarantine_until: Dict[str, float] = {}
        health: Dict[str, List[Tuple[float, str]]] = {
            name: [(0.0, "up")] for name in self._names
        }
        ttd: List[float] = []
        ttr: List[float] = []
        failovers = 0
        retries = 0
        quarantines = 0
        sheds = 0
        suspect_events = 0
        dead_events = 0
        shed_hosts: Set[str] = set()
        lost_node_s = 0.0
        # Generous convergence guard; individual sessions also keep
        # their own tick guards.
        max_rounds = 4 * max(
            node.session._max_ticks for node in self._nodes
        ) // DRIVE_BLOCK_TICKS

        def node_down(name: str, t: float) -> bool:
            spec = specs.get(name)
            return spec is not None and spec.is_down(t)

        rounds = 0
        while True:
            t = round(rounds * self._round_s, 9)
            t_end = round((rounds + 1) * self._round_s, 9)

            # 1. Schedule-driven node state.  Sustained throttles are
            # (re)asserted every round so the per-node runtime can never
            # permanently override the cap; crash/partition onsets pin
            # the placement cutovers that partial credit keys on.
            for name in self._names:
                spec = specs[name]
                if spec is None:
                    continue
                if spec.kind == "slow" and t_end > spec.onset_s:
                    if name not in onset_latched:
                        onset_latched.add(name)
                        health[name].append(
                            (self._quantize(spec.onset_s), "slow")
                        )
                    self._apply_throttle(name, spec, streams)
                elif spec.kind == "crash" and t >= spec.onset_s \
                        and name not in onset_latched:
                    onset_latched.add(name)
                    health[name].append(
                        (self._quantize(spec.onset_s), "down")
                    )
                    for stream in streams.values():
                        for placement in stream.placements:
                            if placement.host == name:
                                placement.cutover_s = min(
                                    placement.cutover_s,
                                    self._quantize(spec.onset_s),
                                )
                elif spec.kind == "partition" and t_end > spec.onset_s \
                        and name not in onset_latched:
                    onset_latched.add(name)
                    health[name].append(
                        (self._quantize(spec.onset_s), "partitioned")
                    )
                    for stream in streams.values():
                        for placement in stream.placements:
                            if placement.host == name:
                                placement.cutover_s = min(
                                    placement.cutover_s,
                                    self._quantize(spec.onset_s),
                                )
                elif spec.kind == "flap":
                    down = spec.is_down(t)
                    if down != flap_down_now.get(name, False):
                        flap_down_now[name] = down
                        health[name].append((t, "down" if down else "up"))

            # Late placements on a node that crashes later need their
            # cutover pinned too; re-checking latched crash nodes keeps
            # that invariant without per-placement bookkeeping.
            for name in onset_latched:
                spec = specs[name]
                if spec is not None and spec.kind == "crash":
                    for stream in streams.values():
                        for placement in stream.placements:
                            if placement.host == name:
                                placement.cutover_s = min(
                                    placement.cutover_s,
                                    self._quantize(spec.onset_s),
                                )

            # 2. Advance live sessions on up nodes by one round.
            advancing: List[PolicySession] = []
            for name in self._names:
                if node_down(name, t):
                    lost_node_s += self._round_s
                    continue
                for stream in streams.values():
                    for placement in stream.placements:
                        if (
                            placement.live
                            and placement.host == name
                            and not placement.session.done
                        ):
                            advancing.append(placement.session)
            self._advance(advancing)

            # 3. Heartbeats that survive the schedule reach the monitor.
            for name in self._names:
                spec = specs[name]
                beating = not node_down(name, t)
                if spec is not None and beating:
                    if spec.kind == "partition" and t_end > spec.onset_s:
                        beating = False
                    elif spec.kind == "slow" and t_end > spec.onset_s:
                        # A throttled node agent is starved too: beats
                        # arrive stretched, which is what lets the
                        # monitor see the slowdown at all.
                        beating = rounds % spec.beat_stretch == 0
                if not beating:
                    continue
                for node_name, old, _new in monitor.beat(name, t_end):
                    self._record(
                        t_end, node_name, "node-recovered", "was=%s" % old
                    )
                    health[node_name].append((t_end, "recovered"))
                    if config.quarantine_dwell_s > 0:
                        until = round(
                            t_end + config.quarantine_dwell_s, 9
                        )
                        quarantine_until[node_name] = until
                        quarantines += 1
                        self._record(
                            t_end, node_name, "quarantine",
                            "until=%.3f" % until,
                        )

            # 4. Timeout transitions and stream consequences.
            for name, old, new in monitor.observe(t_end):
                self._record(t_end, name, "node-%s" % new, "was=%s" % old)
                health[name].append((t_end, new))
                if new == SUSPECT:
                    suspect_events += 1
                    continue
                dead_events += 1
                spec = specs.get(name)
                onset = self._incident_onset(spec, t_end)
                if name not in detected:
                    detected.add(name)
                    ttd.append(round(t_end - onset, 9))
                dispatcher.release(name)
                for stream in streams.values():
                    placement = stream.hosting
                    if (
                        placement.host != name
                        or not placement.live
                        or stream.state in ("done", "stranded")
                    ):
                        continue
                    can_progress = spec is not None and spec.kind in (
                        "partition", "slow", "flap"
                    )
                    if config.failover:
                        placement.cutover_s = min(
                            placement.cutover_s,
                            round(
                                placement.session._ticks * self._tick_s, 9
                            ),
                        )
                        placement.live = False
                        stream.state = "failing"
                        stream.attempts = 0
                        stream.next_retry_s = t_end
                        stream.incident_onset_s = onset
                        stream.incidents += 1
                    elif not can_progress:
                        placement.live = False
                        stream.state = "stranded"
                        self._record(
                            t_end, stream.home, "stream-stranded",
                            "no-failover",
                        )
                    # else: no failover but the node still computes
                    # (partition/slow) or will return (flap) — let it
                    # run; partial credit handles the damage.

            # 5. Quarantine releases.
            for name in sorted(quarantine_until):
                if t_end >= quarantine_until[name] \
                        and monitor.state(name) == ALIVE:
                    del quarantine_until[name]
                    self._record(t_end, name, "quarantine-release", "")
                    health[name].append((t_end, "requalified"))

            # 6. Failover processing, in fleet node order.
            for name in self._names:
                stream = streams[name]
                if stream.state != "failing" \
                        or t_end < stream.next_retry_s:
                    continue
                outcome = self._try_failover(
                    stream, monitor, dispatcher, quarantine_until, t_end,
                )
                if outcome == "done":
                    continue
                if outcome == "placed":
                    failovers += 1
                    ttr.append(round(t_end - stream.incident_onset_s, 9))
                    host = stream.hosting.host
                    util = dispatcher.reserved_utilization(self._names)
                    alive = [
                        n for n in self._names
                        if monitor.state(n) == ALIVE
                    ]
                    cap = dispatcher.capacity(alive)
                    if cap > 0 and util / cap > config.shed_threshold \
                            and host not in shed_hosts:
                        shed_hosts.add(host)
                        sheds += 1
                        self._shed_bg(host, streams)
                        self._record(
                            t_end, host, "bg-shed",
                            "util=%.2f cap=%.2f" % (util, cap),
                        )
                elif stream.attempts > config.max_retries:
                    stream.state = "stranded"
                    self._record(
                        t_end, stream.home, "stream-stranded",
                        "retries-exhausted",
                    )
                else:
                    retries += 1
                    backoff = (
                        config.backoff_base_s
                        * config.backoff_factor ** (stream.attempts - 1)
                        + self._retry_rng.uniform(
                            0.0, config.backoff_jitter_s
                        )
                    )
                    stream.next_retry_s = round(t_end + backoff, 9)
                    self._record(
                        t_end, stream.home, "failover-retry",
                        "attempt=%d" % stream.attempts,
                    )

            # 7. Resolution check.
            unresolved = False
            for stream in streams.values():
                if stream.state in ("done", "stranded"):
                    continue
                if stream.state == "failing":
                    unresolved = True
                    continue
                live = [p for p in stream.placements if p.live]
                if live and all(p.session.done for p in live):
                    stream.state = "done"
                    continue
                unresolved = True
            if not unresolved:
                break
            rounds += 1
            if rounds > max_rounds:
                raise ExperimentError(
                    "fleet run did not resolve within the round guard "
                    "(%d rounds)" % rounds
                )

        # A session that ran live from tick 0 to done untouched ran
        # exactly the run its key names.
        for stream in streams.values():
            for placement in stream.placements:
                key = self._untouched.get(placement.session)
                if key is not None and placement.session.done:
                    record_node(key, placement.session)

        report = FleetFaultReport(
            scenario=self._plan.scenario,
            fault_seed=self._plan.seed,
            injected=self._schedule.injection_counts(),
            events=len(self._events),
            event_signature=tuple(sorted(self._events)),
            failover_enabled=config.failover,
            failovers=failovers,
            failover_retries=retries,
            quarantines=quarantines,
            sheds=sheds,
            suspect_events=suspect_events,
            dead_events=dead_events,
            time_to_detection_s=tuple(ttd),
            time_to_recovery_s=tuple(ttr),
            lost_node_s=round(lost_node_s, 9),
        )
        return self._finalize(
            streams, health, monitor, report,
            elapsed_s=round((rounds + 1) * self._round_s, 9),
        )

    # ------------------------------------------------------------------
    # Round mechanics
    # ------------------------------------------------------------------

    def _advance(self, sessions: Sequence[PolicySession]) -> None:
        """One round of machine time for each distinct session."""
        seen: Dict[int, PolicySession] = {}
        for session in sessions:
            seen.setdefault(id(session), session)
        for session in seen.values():
            session.advance(DRIVE_BLOCK_TICKS)

    def _start(self, session: PolicySession, key: tuple) -> PolicySession:
        """A session starting at tick 0, as a replay when one is filed."""
        self._untouched[session] = key
        record = _NODE_RECORDS.get(key)
        return session if record is None else _Replay(session, record)

    def _act_on(self, placement: _Placement) -> Optional[PolicySession]:
        """The real session of a placement the controller acts on.

        The only way the controller reaches a session's machine.  A
        replay is caught up first and runs live from here; the session
        counts as touched, so it is never filed.  None for a finished
        session, whose outcome no action changes any more.
        """
        session = placement.session
        if session.done:
            return None
        if isinstance(session, _Replay):
            session = placement.session = session.catch_up()
        self._untouched.pop(session, None)
        return session

    def _apply_throttle(
        self, name: str, spec: NodeFaultSpec,
        streams: Dict[str, _Stream],
    ) -> None:
        for stream in streams.values():
            for placement in stream.placements:
                if placement.live and placement.host == name:
                    session = self._act_on(placement)
                    if session is None:
                        continue
                    machine = session.machine
                    for core in range(machine.config.num_cores):
                        machine.set_frequency_grade(
                            core, spec.throttle_grade
                        )

    def _try_failover(
        self,
        stream: _Stream,
        monitor: HeartbeatMonitor,
        dispatcher: FailoverDispatcher,
        quarantine_until: Dict[str, float],
        t_end: float,
    ) -> str:
        """One placement attempt: 'placed', 'done', or 'no-capacity'."""
        node = self._node_by_name(stream.home)
        remaining = stream.target - min(self._credited_counts(stream))
        if remaining <= 0:
            stream.state = "done"
            return "done"
        stream.attempts += 1
        candidates = [
            name for name in self._names
            if name != stream.hosting.host
            and monitor.state(name) == ALIVE
            and name not in quarantine_until
        ]
        host = dispatcher.try_place(self._streams_for(node), candidates)
        if host is None:
            return "no-capacity"
        seed = derive_rng(
            self._plan.seed,
            "fleet/replacement/%s/%d" % (stream.home, stream.incidents),
        ).randrange(1 << 31)
        session = PolicySession(
            node.mix,
            node.policy,
            deadlines_s=stream.deadlines,
            executions=remaining,
            warmup=stream.warmup,
            config=node.config,
            seed=seed,
        )
        stream.placements.append(_Placement(
            session=self._start(
                session, node_record_key(session, node.config, seed)
            ),
            host=host,
            label="%s@%s" % (stream.home, host),
        ))
        stream.state = "running"
        self._record(
            t_end, stream.home, "failover-placed",
            "host=%s remaining=%d attempt=%d"
            % (host, remaining, stream.attempts),
        )
        return "placed"

    def _shed_bg(self, host: str, streams: Dict[str, _Stream]) -> None:
        """Fleet degraded mode: drop BG work on an absorbing node.

        Pausing goes through the machine, so an unmanaged (Baseline)
        node sheds for good while a Dirigent node's runtime may
        re-admit BG once its own control loop judges the FG safe —
        per-node autonomy is the paper's operating model.
        """
        for stream in streams.values():
            for placement in stream.placements:
                if placement.live and placement.host == host:
                    session = self._act_on(placement)
                    if session is None:
                        continue
                    for proc in session._bg_procs:
                        session.machine.pause(proc.pid)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _credited_records(
        self, stream: _Stream
    ) -> List[List[Tuple[float, float]]]:
        """Credited ``(end_s, duration_s)`` per FG task, capped at target."""
        node = self._node_by_name(stream.home)
        per_task: List[List[Tuple[float, float]]] = [
            [] for _ in range(node.mix.fg_count)
        ]
        for placement in stream.placements:
            for i, task_records in enumerate(
                placement.session.measured_records()
            ):
                for end_s, duration_s in task_records:
                    if end_s <= placement.cutover_s \
                            and len(per_task[i]) < stream.target:
                        per_task[i].append((end_s, duration_s))
        return per_task

    def _credited_counts(self, stream: _Stream) -> List[int]:
        return [len(task) for task in self._credited_records(stream)]

    def _finalize(
        self,
        streams: Dict[str, _Stream],
        health: Dict[str, List[Tuple[float, str]]],
        monitor: HeartbeatMonitor,
        report: FleetFaultReport,
        elapsed_s: float,
    ):
        """Fleet-wide attainment, stranded work, and the ClusterResult."""
        from repro.cluster.dispatch import ClusterResult

        total_target = 0
        total_met = 0
        stranded_exec = 0
        stranded_streams = 0
        node_results: Dict[str, RunResult] = {}
        bg_rate = 0.0
        for name in self._names:
            stream = streams[name]
            missing = 0
            for i, task_records in enumerate(
                self._credited_records(stream)
            ):
                durations = [d for _, d in task_records]
                if stream.deadlines:
                    deadline = stream.deadlines[i]
                elif durations:
                    deadline = deadline_for(
                        duration_stats(durations), DEADLINE_SIGMA_FACTOR
                    )
                else:
                    deadline = 0.0
                total_target += stream.target
                total_met += sum(1 for d in durations if d <= deadline)
                missing += stream.target - len(durations)
            stranded_exec += missing
            if missing > 0:
                stranded_streams += 1
            for placement in stream.placements:
                if not placement.session.done:
                    continue
                run_result = placement.session.result()
                node_results[placement.label] = run_result
                bg_rate += run_result.bg_instr_per_s
        if total_target == 0:
            raise ExperimentError("cluster produced no measured executions")
        report = dc_replace(
            report,
            stranded_streams=stranded_streams,
            stranded_executions=stranded_exec,
        )
        return ClusterResult(
            node_results=node_results,
            fg_success_ratio=total_met / total_target,
            total_bg_instr_per_s=bg_rate,
            node_labels={
                node.name: (node.mix.name, node.policy.name, node.seed)
                for node in self._nodes
            },
            node_health=monitor.states(),
            health_timelines={
                name: tuple(entries) for name, entries in health.items()
            },
            failovers=report.failovers,
            failover_retries=report.failover_retries,
            stranded_streams=stranded_streams,
            stranded_executions=stranded_exec,
            time_to_detection_s=report.time_to_detection_s,
            time_to_recovery_s=report.time_to_recovery_s,
            fleet_elapsed_s=elapsed_s,
            fleet_report=report,
        )
