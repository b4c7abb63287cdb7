"""Node-level fault plans: seeded chaos at fleet scale.

Where :mod:`repro.faults.plan` corrupts a *runtime's view* of one
machine, this module breaks whole *nodes* of a cluster: fail-stop
crashes, sustained frequency throttles ("slow nodes"), control-plane
partitions (the node keeps computing but its heartbeats never arrive),
flapping nodes that cycle down and up, and correlated rack failures
that take several nodes down at once.

The same determinism contract applies.  A :class:`NodeFaultPlan` is a
frozen, declarative description; materializing it against a node list
(:meth:`NodeFaultPlan.schedule`) draws from one RNG stream per
``(node, kind)`` — and per rack — via
:func:`repro.sim.timebase.derive_rng`, so a zero rate for one kind
never perturbs another kind's draws, and a zero plan draws nothing at
all.  ``Cluster.run`` installs no control plane for a zero plan, so
zero-fault fleet runs are *structurally* identical to plain runs —
bit-identity by construction.

Every fault time in a materialized :class:`FleetSchedule` is a plain
float of virtual fleet seconds, independent of the simulation backend;
the control plane quantizes them to its round cadence, so the combined
:class:`FleetFaultReport` ``event_signature`` is comparable across
scalar and batch backends the same way the single-node signature is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultError
from repro.sim.timebase import derive_rng

#: Node-fault kinds, in precedence order: when several draws hit the
#: same node, the earliest kind in this tuple wins (a crashed node
#: cannot also meaningfully flap).
NODE_FAULT_KINDS: Tuple[str, ...] = ("crash", "partition", "slow", "flap")


@dataclass(frozen=True)
class NodeFaultSpec:
    """One materialized node fault.

    Attributes:
        node: Node name the fault applies to.
        kind: One of :data:`NODE_FAULT_KINDS`.
        onset_s: Fleet-virtual second the fault takes effect.
        throttle_grade: DVFS grade a slow node is pinned to.
        beat_stretch: Heartbeat-period multiplier of a slow node (its
            starved node agent beats this many rounds apart).
        down_s: Seconds a flapping node stays down per cycle.
        up_s: Seconds a flapping node stays up between downs.
        cycles: Down/up cycles of a flapping node.
        rack: Rack index for correlated (rack) crashes, else None.
    """

    node: str
    kind: str
    onset_s: float
    throttle_grade: int = 0
    beat_stretch: int = 16
    down_s: float = 0.0
    up_s: float = 0.0
    cycles: int = 0
    rack: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in NODE_FAULT_KINDS:
            raise FaultError(
                "unknown node-fault kind %r (kinds: %s)"
                % (self.kind, ", ".join(NODE_FAULT_KINDS))
            )
        if self.onset_s < 0:
            raise FaultError("onset_s must be >= 0")
        if self.kind == "flap":
            if self.cycles < 1:
                raise FaultError("a flap fault needs cycles >= 1")
            if self.down_s <= 0 or self.up_s <= 0:
                raise FaultError("flap down_s and up_s must be positive")
        if self.throttle_grade < 0:
            raise FaultError("throttle_grade must be >= 0")
        if self.beat_stretch < 1:
            raise FaultError("beat_stretch must be >= 1")

    def down_intervals(self) -> Tuple[Tuple[float, float], ...]:
        """Half-open ``[start, end)`` intervals the node is down.

        A crash is one unbounded interval; a flap is ``cycles`` bounded
        ones; slow and partitioned nodes never stop computing.
        """
        if self.kind == "crash":
            return ((self.onset_s, float("inf")),)
        if self.kind == "flap":
            period = self.down_s + self.up_s
            return tuple(
                (self.onset_s + k * period,
                 self.onset_s + k * period + self.down_s)
                for k in range(self.cycles)
            )
        return ()

    def is_down(self, t: float) -> bool:
        """True when the node cannot compute (or beat) at time ``t``."""
        return any(start <= t < end for start, end in self.down_intervals())


@dataclass(frozen=True)
class FleetSchedule:
    """A fault plan materialized against a concrete node list."""

    specs: Tuple[NodeFaultSpec, ...]

    def spec_for(self, node: str) -> Optional[NodeFaultSpec]:
        """The node's fault, or None for a healthy node."""
        for spec in self.specs:
            if spec.node == node:
                return spec
        return None

    def injection_counts(self) -> Dict[str, int]:
        """Per-kind count of materialized node faults."""
        counts: Dict[str, int] = {}
        for spec in self.specs:
            kind = "node-%s" % spec.kind
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def injection_events(self) -> List[Tuple[float, str, str, str]]:
        """Discrete injection events as (time, node, kind, detail).

        Flap faults contribute one event per down and up edge; the
        control plane merges these with its own detection/recovery
        events into the fleet ``event_signature``.
        """
        events: List[Tuple[float, str, str, str]] = []
        for spec in self.specs:
            if spec.kind == "flap":
                for cycle, (start, end) in enumerate(spec.down_intervals()):
                    events.append((
                        start, spec.node, "flap-down", "cycle=%d" % cycle
                    ))
                    events.append((
                        end, spec.node, "flap-up", "cycle=%d" % cycle
                    ))
                continue
            detail = ""
            if spec.kind == "slow":
                detail = "grade=%d stretch=%d" % (
                    spec.throttle_grade, spec.beat_stretch
                )
            elif spec.rack is not None:
                detail = "rack=%d" % spec.rack
            events.append((
                spec.onset_s, spec.node, "node-%s" % spec.kind, detail
            ))
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return events


@dataclass(frozen=True)
class NodeFaultPlan:
    """Seeded description of one fleet chaos scenario.

    Rates are *per node* (or per rack): each node draws once per
    enabled kind from its own ``fleet/<node>/<kind>`` stream, so plans
    compose the way single-node :class:`repro.faults.FaultPlan` rates
    do — enabling one kind never changes another kind's draws.

    Attributes:
        scenario: Catalog name (reporting; free-form for custom plans).
        seed: Root seed of every node-fault stream.
        crash_rate: Per-node probability of a fail-stop crash.
        partition_rate: Per-node probability of a control-plane
            partition: the node keeps computing, but its heartbeats are
            never seen and its completed work cannot be collected.
        slow_rate: Per-node probability of a sustained throttle.
        flap_rate: Per-node probability of a flapping fault.
        onset_window_s: ``(lo, hi)`` fleet seconds the onset of each
            drawn fault is uniform over.
        slow_grade: DVFS grade slow nodes are pinned to.
        slow_beat_stretch: Heartbeat-period multiplier of slow nodes.
        flap_down_s / flap_up_s / flap_cycles: Flap cycle shape.
        rack_size: Nodes per rack (0 disables rack faults); racks are
            contiguous index ranges of the node list.
        rack_rate: Per-rack probability that the whole rack crashes.
        overrides: Explicit per-node faults that bypass the draws
            entirely (tests and targeted experiments).
    """

    scenario: str = "none"
    seed: int = 0
    crash_rate: float = 0.0
    partition_rate: float = 0.0
    slow_rate: float = 0.0
    flap_rate: float = 0.0
    onset_window_s: Tuple[float, float] = (2.0, 6.0)
    slow_grade: int = 0
    slow_beat_stretch: int = 16
    flap_down_s: float = 0.5
    flap_up_s: float = 0.5
    flap_cycles: int = 3
    rack_size: int = 0
    rack_rate: float = 0.0
    overrides: Tuple[NodeFaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "crash_rate", "partition_rate", "slow_rate", "flap_rate",
            "rack_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultError("%s must be in [0, 1], got %r" % (name, rate))
        lo, hi = self.onset_window_s
        if lo < 0 or hi < lo:
            raise FaultError(
                "onset_window_s must satisfy 0 <= lo <= hi, got %r"
                % (self.onset_window_s,)
            )
        if self.rack_size < 0:
            raise FaultError("rack_size must be >= 0")
        if self.rack_rate > 0 and self.rack_size < 1:
            raise FaultError("rack_rate needs rack_size >= 1")
        if self.flap_down_s <= 0 or self.flap_up_s <= 0:
            raise FaultError("flap_down_s and flap_up_s must be positive")
        if self.flap_cycles < 1:
            raise FaultError("flap_cycles must be >= 1")
        if self.slow_grade < 0:
            raise FaultError("slow_grade must be >= 0")
        if self.slow_beat_stretch < 1:
            raise FaultError("slow_beat_stretch must be >= 1")

    @property
    def is_zero(self) -> bool:
        """True when the plan faults no node.

        ``Cluster.run`` installs no control plane for a zero plan, so a
        zero-fault fleet run is structurally identical to a plain run.
        """
        return (
            self.crash_rate == 0.0
            and self.partition_rate == 0.0
            and self.slow_rate == 0.0
            and self.flap_rate == 0.0
            and self.rack_rate == 0.0
            and not self.overrides
        )

    def with_seed(self, seed: int) -> "NodeFaultPlan":
        """Copy of this plan with a different fault seed."""
        return replace(self, seed=seed)

    def schedule(self, node_names: Sequence[str]) -> FleetSchedule:
        """Materialize the plan against ``node_names``.

        Draw order is fixed (racks, then kinds in precedence order,
        nodes in list order) and every ``(node, kind)`` pair owns its
        stream, so the schedule is a pure function of (plan, names).
        """
        names = list(node_names)
        if len(set(names)) != len(names):
            raise FaultError("node names must be unique")
        for spec in self.overrides:
            if spec.node not in names:
                raise FaultError(
                    "override for unknown node %r" % spec.node
                )
        chosen: Dict[str, NodeFaultSpec] = {
            spec.node: spec for spec in self.overrides
        }
        lo, hi = self.onset_window_s
        if self.rack_rate > 0.0 and self.rack_size >= 1:
            for rack_start in range(0, len(names), self.rack_size):
                rack = rack_start // self.rack_size
                rng = derive_rng(self.seed, "fleet/rack/%d" % rack)
                if rng.random() >= self.rack_rate:
                    continue
                onset = rng.uniform(lo, hi)
                for node in names[rack_start:rack_start + self.rack_size]:
                    if node not in chosen:
                        chosen[node] = NodeFaultSpec(
                            node=node, kind="crash", onset_s=onset,
                            rack=rack,
                        )
        drawers = (
            ("crash", self.crash_rate),
            ("partition", self.partition_rate),
            ("slow", self.slow_rate),
            ("flap", self.flap_rate),
        )
        for kind, rate in drawers:
            if rate <= 0.0:
                continue
            for node in names:
                rng = derive_rng(self.seed, "fleet/%s/%s" % (node, kind))
                hit = rng.random() < rate
                onset = rng.uniform(lo, hi)
                if not hit or node in chosen:
                    # The draw happened either way: a higher-precedence
                    # fault claiming the node never shifts this stream.
                    continue
                if kind == "slow":
                    chosen[node] = NodeFaultSpec(
                        node=node, kind="slow", onset_s=onset,
                        throttle_grade=self.slow_grade,
                        beat_stretch=self.slow_beat_stretch,
                    )
                elif kind == "flap":
                    chosen[node] = NodeFaultSpec(
                        node=node, kind="flap", onset_s=onset,
                        down_s=self.flap_down_s, up_s=self.flap_up_s,
                        cycles=self.flap_cycles,
                    )
                else:
                    chosen[node] = NodeFaultSpec(
                        node=node, kind=kind, onset_s=onset,
                    )
        return FleetSchedule(specs=tuple(
            chosen[node] for node in names if node in chosen
        ))


@dataclass(frozen=True)
class FleetFaultReport:
    """Fleet-level fault and self-healing accounting of one cluster run.

    The fleet analogue of :class:`repro.faults.FaultReport`: what the
    plan broke, what the control plane saw, and how recovery went.

    Attributes:
        scenario: Fleet scenario the run executed under.
        fault_seed: Resolved seed of the node-fault streams.
        injected: Materialized node-fault count per kind.
        events: Total discrete events logged (injections + control).
        event_signature: The merged injection + control-plane event
            stream as primitive ``(time, node, kind, detail)`` tuples —
            identical across backends and repeat runs.
        failover_enabled: Whether re-placement was armed
            (``REPRO_FLEET_FAILOVER``).
        failovers: Streams successfully re-placed onto survivors.
        failover_retries: Re-placement attempts that found no capacity
            and backed off.
        stranded_streams: Streams whose executions could not all be
            delivered by any node.
        stranded_executions: FG executions never delivered fleet-wide.
        quarantines: Nodes quarantined after flapping back alive.
        sheds: BG shed actions taken in fleet degraded mode.
        suspect_events: ALIVE->SUSPECT transitions observed.
        dead_events: Dead declarations observed.
        time_to_detection_s: Per-incident onset -> dead-declaration lag.
        time_to_recovery_s: Per-failover onset -> re-placement lag.
        lost_node_s: Node-seconds of capacity lost to down nodes.
    """

    scenario: str = "none"
    fault_seed: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    events: int = 0
    event_signature: Tuple[tuple, ...] = ()
    failover_enabled: bool = True
    failovers: int = 0
    failover_retries: int = 0
    stranded_streams: int = 0
    stranded_executions: int = 0
    quarantines: int = 0
    sheds: int = 0
    suspect_events: int = 0
    dead_events: int = 0
    time_to_detection_s: Tuple[float, ...] = ()
    time_to_recovery_s: Tuple[float, ...] = ()
    lost_node_s: float = 0.0

    @property
    def total_injected(self) -> int:
        """Total materialized node faults across every kind."""
        return sum(self.injected.values())


#: The zero node-fault plan: running with it is pinned bit-identical to
#: running with no plan at all (tests/faults/test_fleet_plan.py).
ZERO_NODE_FAULTS = NodeFaultPlan(scenario="none")

#: Documented fleet scenarios.  Rates are sized for the 4-8 node fleets
#: the chaos table and acceptance tests run: high enough that a typical
#: seed faults one to three nodes, low enough that survivors exist to
#: absorb the failed-over streams.
FLEET_SCENARIOS: Dict[str, NodeFaultPlan] = {
    "none": ZERO_NODE_FAULTS,
    "node-crash": NodeFaultPlan(scenario="node-crash", crash_rate=0.35),
    "partition": NodeFaultPlan(scenario="partition", partition_rate=0.35),
    "slow-node": NodeFaultPlan(scenario="slow-node", slow_rate=0.35),
    "flapping": NodeFaultPlan(scenario="flapping", flap_rate=0.35),
    "rack-failure": NodeFaultPlan(
        scenario="rack-failure", rack_size=2, rack_rate=0.4,
    ),
    "fleet-chaos": NodeFaultPlan(
        scenario="fleet-chaos",
        crash_rate=0.15,
        partition_rate=0.10,
        slow_rate=0.15,
        flap_rate=0.10,
    ),
}

#: Catalog order used by the fleet chaos suite and CLI listings.
FLEET_SCENARIO_NAMES: Tuple[str, ...] = tuple(FLEET_SCENARIOS)


def fleet_scenario(name: str, seed: int = 0) -> NodeFaultPlan:
    """Catalog scenario ``name`` with its fault streams seeded by ``seed``.

    Raises:
        FaultError: for a name not in the catalog.
    """
    plan = FLEET_SCENARIOS.get(name)
    if plan is None:
        raise FaultError(
            "unknown fleet scenario %r (catalog: %s)"
            % (name, ", ".join(FLEET_SCENARIO_NAMES))
        )
    return plan.with_seed(seed)
