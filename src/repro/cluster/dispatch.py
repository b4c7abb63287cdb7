"""Multi-node cluster layer.

The paper positions Dirigent as orthogonal to cluster schedulers
(Paragon, Quasar, Bubble-Up, ...): "Dirigent can be integrated with these
schemes to manage performance on each node".  This module provides that
integration point on the simulated substrate:

* :class:`ClusterNode` — one node running a mix under a policy (a
  wrapped :class:`repro.experiments.harness.PolicySession`);
* :class:`Cluster` — runs many nodes to completion and aggregates FG
  success and batch throughput cluster-wide; with ``vectorized=True``
  the nodes advance through one multi-cell structure-of-arrays driver
  (:func:`repro.experiments.harness.drive_sessions_vectorized`), so
  nodes whose simulated state coincides fuse into cell-axis kernels —
  node results are bit-identical either way, because nodes share no
  simulated state and the vector driver is bit-exact per machine;
* :class:`ReservationDispatcher` — admission control that places FG task
  streams onto nodes using the tail reservations of their measured
  completion-time distributions (:mod:`repro.sched`), the hand-off a
  QoS-aware cluster scheduler would perform.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import Policy
from repro.errors import ExperimentError
from repro.experiments.harness import (
    _NODE_RECORDS,
    PolicySession,
    RunResult,
    drive_sessions_vectorized,
    node_record_key,
    record_node,
)
from repro.experiments.mixes import Mix
from repro.faults.fleet import FleetFaultReport, NodeFaultPlan
from repro.sched.reservation import (
    ReservationScheduler,
    TaskStream,
    reservation_for,
)
from repro.sim.config import MachineConfig, fleet_failover_enabled
from repro.sim.spanplan import SpanStats


class ClusterNode:
    """One node of the cluster: a named policy session.

    The construction arguments are kept on the node: the fleet control
    plane reuses them when it spawns a replacement session for a
    failed-over stream, and ``ClusterResult.node_labels`` reports them
    so chaos tables are self-describing.  They also key the node's
    entry in the in-memory replay memo (:meth:`record`,
    :func:`repro.experiments.harness.node_record_key`), which a faulted
    fleet replays the node from until its control plane acts on the
    node's machine.
    """

    def __init__(
        self,
        name: str,
        mix: Mix,
        policy: Policy,
        executions: int,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
        warmup: int = 5,
    ) -> None:
        self.name = name
        self.mix = mix
        self.policy = policy
        self.executions = executions
        self.config = config
        self.seed = seed
        self.warmup = warmup
        self.session = PolicySession(
            mix,
            policy,
            executions=executions,
            warmup=warmup,
            config=config,
            seed=seed,
        )
        # The session's key in the fleet replay memo.
        self._run_key = node_record_key(self.session, config, seed)

    @property
    def done(self) -> bool:
        """True once the node finished its measured executions."""
        return self.session.done

    def tick(self) -> None:
        """Advance the node by one simulator tick."""
        self.session.tick()

    def result(self) -> RunResult:
        """The node's measured results (valid once done)."""
        return self.session.result()

    def record(self) -> None:
        """File the finished session's outcome for fleet runs to replay.

        Only for a session driven from tick 0 to done with nothing but
        its own runtime acting on the machine.
        """
        record_node(self._run_key, self.session)

    def recorded(self) -> Optional[Tuple[int, tuple, tuple, RunResult]]:
        """The filed ``(rounds, measured_records, seen, result)``, or None."""
        return _NODE_RECORDS.get(self._run_key)


@dataclass(frozen=True)
class ClusterResult:
    """Aggregated outcome of a cluster run.

    The fleet fields default to their clean-run values, so plain (and
    zero-fault) runs carry the same payload they always did plus the
    self-describing labels.

    Attributes:
        node_results: Per-node results keyed by node name; a faulted
            run adds completed replacement sessions under
            ``"<home>@<host>"`` labels.
        fg_success_ratio: Execution-weighted FG success over all nodes.
            Under a fault plan this is the *fleet-wide deadline
            attainment*: every stream's full execution target counts,
            credit comes from completions delivered before the hosting
            node's loss of service plus re-placed work, and stranded
            executions count as missed.
        total_bg_instr_per_s: Sum of BG instruction rates over all
            completed sessions.
        node_labels: ``name -> (mix, policy, seed)`` for every node.
        node_health: Final monitor state per node (``alive``/``suspect``
            /``dead``; empty for clean runs).
        health_timelines: Per-node ``(time_s, state)`` transitions
            merging schedule onsets and monitor verdicts.
        failovers: Streams successfully re-placed onto survivors.
        failover_retries: Placement attempts that backed off.
        stranded_streams: Streams with undelivered executions.
        stranded_executions: FG executions never delivered fleet-wide
            (the stranded-throughput headline number).
        time_to_detection_s: Per-incident onset -> dead-declaration lag.
        time_to_recovery_s: Per-failover onset -> re-placement lag.
        fleet_elapsed_s: Fleet-virtual seconds until resolution (0 for
            clean runs, which do not share a fleet clock).
        fleet_report: Fleet fault/control accounting (None without a
            plan; empty-signature for a zero plan).
    """

    node_results: Dict[str, RunResult]
    fg_success_ratio: float
    total_bg_instr_per_s: float
    node_labels: Dict[str, Tuple[str, str, int]] = field(
        default_factory=dict
    )
    node_health: Dict[str, str] = field(default_factory=dict)
    health_timelines: Dict[str, Tuple[Tuple[float, str], ...]] = field(
        default_factory=dict
    )
    failovers: int = 0
    failover_retries: int = 0
    stranded_streams: int = 0
    stranded_executions: int = 0
    time_to_detection_s: Tuple[float, ...] = ()
    time_to_recovery_s: Tuple[float, ...] = ()
    fleet_elapsed_s: float = 0.0
    fleet_report: Optional[FleetFaultReport] = None


class Cluster:
    """A set of nodes run to completion.

    By default a clean run drives each node to the end in turn with
    :meth:`PolicySession.run_to_end`.  ``vectorized=True`` opts the run
    into the multi-cell structure-of-arrays driver: all unfinished
    nodes advance together in block-tick lockstep, and nodes whose
    simulated state coincides (e.g. replicas of the same mix/policy at
    different seeds) fuse into cell-axis kernels.  Nodes share no
    simulated state, so the result of every node — and therefore of
    the cluster — is bit-identical either way; :attr:`vector_stats`
    exposes the driver's fusion counters after a vectorized run.
    """

    def __init__(
        self, nodes: Sequence[ClusterNode], vectorized: bool = False
    ) -> None:
        if not nodes:
            raise ExperimentError("cluster needs at least one node")
        names = [node.name for node in nodes]
        duplicates = sorted(
            name for name, count in Counter(names).items() if count > 1
        )
        if duplicates:
            raise ExperimentError(
                "node names must be unique (duplicated: %s)"
                % ", ".join(repr(name) for name in duplicates)
            )
        self._nodes = list(nodes)
        self._vectorized = vectorized
        self.vector_stats: Optional[SpanStats] = None

    @property
    def nodes(self) -> List[ClusterNode]:
        """The cluster's nodes."""
        return list(self._nodes)

    def run(
        self,
        fault_plan: Optional[NodeFaultPlan] = None,
        control: Optional["object"] = None,
    ) -> ClusterResult:
        """Step all nodes until each finished its executions.

        A non-zero ``fault_plan`` hands the run to the fleet control
        plane (:class:`repro.cluster.control.FleetController`), which
        injects the planned node faults and — when failover is enabled —
        re-places streams off dead nodes.  ``control`` optionally
        carries a :class:`repro.cluster.control.ControlPlaneConfig`.
        A ``None`` or zero plan takes the exact pre-fleet code path, so
        zero-fault runs are bit-identical to plain runs by construction
        (the only addition is the empty report / label metadata).  It
        files each node's outcome in memory, so later faulted runs of
        the same nodes replay each node until the control plane acts on
        its machine.
        """
        if fault_plan is not None and not fault_plan.is_zero:
            # Imported here: control.py imports ClusterResult from this
            # module, so a top-level import would be a cycle.
            from repro.cluster.control import FleetController

            controller = FleetController(
                self._nodes,
                fault_plan,
                config=control,
                vectorized=self._vectorized,
            )
            result = controller.run()
            self.vector_stats = controller.vector_stats
            return result
        fresh = [node for node in self._nodes if not node.session._ticks]
        if self._vectorized:
            driver = drive_sessions_vectorized(
                [node.session for node in self._nodes]
            )
            self.vector_stats = driver.stats
        else:
            # Each node runs to the end through its batched fast path.
            # Done is detected on DRIVE_BLOCK_TICKS boundaries, where
            # PolicySession.tick bookkeeps too, and nodes share no
            # state, so running them one after another matches stepping
            # them in lockstep.
            for node in self._nodes:
                node.session.run_to_end()
        # Nodes run from tick 0 to done untouched: faulted fleets of
        # the same nodes replay them, whatever fault a plan names for
        # them, until the control plane acts on their machines.
        for node in fresh:
            node.record()
        results = {node.name: node.result() for node in self._nodes}
        met = 0
        total = 0
        bg_rate = 0.0
        for result in results.values():
            for deadline, durations in zip(
                result.deadlines_s, result.durations_s
            ):
                total += len(durations)
                met += sum(1 for d in durations if d <= deadline)
            bg_rate += result.bg_instr_per_s
        if total == 0:
            raise ExperimentError("cluster produced no measured executions")
        report = None
        if fault_plan is not None:
            report = FleetFaultReport(
                scenario=fault_plan.scenario,
                fault_seed=fault_plan.seed,
                failover_enabled=fleet_failover_enabled(),
            )
        return ClusterResult(
            node_results=results,
            fg_success_ratio=met / total,
            total_bg_instr_per_s=bg_rate,
            node_labels={
                node.name: (node.mix.name, node.policy.name, node.seed)
                for node in self._nodes
            },
            fleet_report=report,
        )


@dataclass(frozen=True)
class StreamRequest:
    """An FG task stream a tenant asks the cluster to host.

    Attributes:
        name: Stream label.
        period_s: Task inter-arrival period.
        durations_s: Measured completion-time distribution of the task
            under the management policy the nodes will run.
    """

    name: str
    period_s: float
    durations_s: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ExperimentError("period must be positive")
        if not self.durations_s:
            raise ExperimentError("stream needs a duration distribution")


class ReservationDispatcher:
    """First-fit placement of task streams onto nodes by reservation.

    Each node offers ``capacity_cores`` of latency-critical capacity; a
    stream's footprint is the tail reservation of its duration
    distribution divided by its period.  Streams that fit nowhere are
    rejected (the cluster scheduler would look for another rack).
    """

    def __init__(
        self,
        num_nodes: int,
        capacity_cores: float = 1.0,
        target_percentile: float = 0.95,
    ) -> None:
        if num_nodes < 1:
            raise ExperimentError("need at least one node")
        self._schedulers = [
            ReservationScheduler(capacity_cores) for _ in range(num_nodes)
        ]
        self._percentile = target_percentile
        self.placements: Dict[str, int] = {}
        self.rejected: List[str] = []

    @property
    def num_nodes(self) -> int:
        """Number of nodes being packed."""
        return len(self._schedulers)

    def place(self, request: StreamRequest) -> Optional[int]:
        """Place one stream; returns the node index or None if rejected."""
        reservation = reservation_for(
            list(request.durations_s), self._percentile
        )
        stream = TaskStream(
            name=request.name,
            period_s=request.period_s,
            reservation_s=reservation,
        )
        for index, scheduler in enumerate(self._schedulers):
            if scheduler.try_admit(stream):
                self.placements[request.name] = index
                return index
        self.rejected.append(request.name)
        return None

    def place_all(self, requests: Sequence[StreamRequest]) -> int:
        """Place many streams; returns how many were admitted."""
        admitted = 0
        for request in requests:
            if self.place(request) is not None:
                admitted += 1
        return admitted

    def utilization(self) -> List[float]:
        """Reserved utilization per node."""
        return [s.reserved_utilization for s in self._schedulers]
