"""Chaos suite: Dirigent QoS under seeded fault-injection scenarios.

Runs the managed (Dirigent) configuration against each chaos scenario of
the catalog (:data:`repro.faults.SCENARIOS`) and reports QoS alongside
the fault and degradation accounting.  Deadlines are always taken from
the *clean* Baseline run — faults must not move the goalposts — and the
machine itself stays fault-free (only the runtime's sensor/actuator view
is corrupted), so success ratios measure how well the control loop copes
with bad inputs, not a different workload.

Chaos runs are never disk-cached: they are cheap at smoke sizes and the
fault surface is exactly what the cache key does not capture.  Fleet
cells keep to that, but within one process a fleet session replays
the in-memory record of an earlier identical run instead of simulating
it again, until the control plane acts on its machine: the zero-fault
``none`` row records every node, faulted rows record every session
they ran live to done untouched (failover replacements recur across
rows), and a replay the control plane sheds BG work on or throttles
before it is done is caught up and run live
(:mod:`repro.cluster.control`).  Crash, partition and flap faults only
withhold rounds, so the nodes they name replay too.  Results are
identical with or without records; ``clear_caches()`` drops them.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import Cluster, ClusterNode, ClusterResult
from repro.core.policies import BASELINE, DIRIGENT
from repro.errors import ExperimentError
from repro.experiments.figures import FigureResult
from repro.experiments.harness import (
    RunResult,
    default_executions,
    run_policy,
)
from repro.experiments.mixes import Mix, mix_by_name
from repro.experiments.parallel import run_grid
from repro.experiments.report import sweep_summary
from repro.faults import (
    FLEET_SCENARIO_NAMES,
    SCENARIO_NAMES,
    fleet_scenario,
    scenario,
)

#: Mixes the chaos suite (and the CI smoke job) exercises by default:
#: one cache-sensitive and one compute-bound FG against the streaming
#: BG the paper leans on.
DEFAULT_CHAOS_MIXES: Tuple[str, ...] = ("bodytrack bwaves", "ferret bwaves")


def run_chaos(
    mixes: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    executions: Optional[int] = None,
    warmup: int = 3,
    seed: int = 0,
) -> FigureResult:
    """Run the chaos scenario suite and tabulate QoS plus fault stats.

    Args:
        mixes: Mix names to run (default :data:`DEFAULT_CHAOS_MIXES`).
        scenarios: Scenario names (default: the full catalog, including
            the zero-fault ``"none"`` control row).
        executions: Measured FG executions per run.
        warmup: Executions discarded before measurement.
        seed: Experiment seed; also folded into the fault streams.
    """
    mix_names = tuple(mixes) if mixes else DEFAULT_CHAOS_MIXES
    scenario_names = tuple(scenarios) if scenarios else SCENARIO_NAMES
    # Warm the clean-Baseline deadlines through the (parallel, cached)
    # sweep engine before the serial chaos cells ask for them one by
    # one.  Executions are resolved first so the warm sweep's cache
    # keys match what each chaos cell's `deadlines_for` will look up.
    resolved = (
        executions if executions is not None else default_executions()
    )
    warm_sweep = run_grid(
        [mix_by_name(name) for name in mix_names],
        [BASELINE],
        executions=resolved,
        warmup=warmup,
        seed=seed,
    )
    rows: List[Tuple[object, ...]] = []
    hardened = None
    for mix_name in mix_names:
        mix = mix_by_name(mix_name)
        for name in scenario_names:
            result = run_chaos_cell(
                mix, name, executions=executions, warmup=warmup, seed=seed
            )
            report = result.fault_report
            if report is None:
                raise ExperimentError(
                    "chaos run of %r produced no fault report" % mix_name
                )
            hardened = report.hardening_enabled
            rows.append((
                mix.name,
                name,
                "%.3f" % result.fg_success_ratio,
                "%.4f" % result.fg_stats.mean_s,
                report.total_injected,
                report.samples_dropped,
                report.rejected_samples,
                report.actuations_retried,
                report.actuations_failed,
                report.degraded_entries,
                report.safe_entries,
                "%.1f%%" % (
                    100.0 * report.degraded_fraction(result.elapsed_s)
                ),
            ))
    return FigureResult(
        name="chaos",
        title="FG QoS under fault injection (Dirigent, hardening %s)"
        % ("on" if hardened else "OFF"),
        headers=(
            "Mix", "Scenario", "Success", "MeanS", "Injected", "Drops",
            "Rejected", "Retried", "ActFail", "DegEnter", "SafeEnter",
            "Degraded",
        ),
        rows=tuple(rows),
        notes=(
            "deadlines come from the clean Baseline run; the machine is "
            "fault-free — only the runtime's sensor/actuator view is "
            "corrupted",
            "hardening kill switch: REPRO_DEGRADED_MODE=0",
        ) + tuple(
            "baseline warm-up %s" % line for line in sweep_summary(warm_sweep)
        ),
    )


def run_chaos_cell(
    mix: Mix,
    scenario_name: str,
    executions: Optional[int] = None,
    warmup: int = 3,
    seed: int = 0,
) -> RunResult:
    """One chaos cell: the Dirigent policy on ``mix`` under a scenario."""
    return run_policy(
        mix,
        DIRIGENT,
        executions=executions,
        warmup=warmup,
        seed=seed,
        fault_plan=scenario(scenario_name, seed=seed),
    )


#: Mix the fleet chaos suite runs on every node by default.  The FG has
#: enough headroom under Dirigent that fleet attainment is governed by
#: the control plane (detection + re-placement), not by per-node misses.
DEFAULT_FLEET_MIX = "raytrace rs"

#: Fleet chaos defaults: node count and per-node measured executions.
DEFAULT_FLEET_NODES = 5
DEFAULT_FLEET_EXECUTIONS = 10


def build_fleet(
    num_nodes: int = DEFAULT_FLEET_NODES,
    mix_names: Optional[Sequence[str]] = None,
    executions: int = DEFAULT_FLEET_EXECUTIONS,
    warmup: int = 3,
    seed: int = 0,
) -> List[ClusterNode]:
    """Construct the chaos fleet: Dirigent nodes over round-robin mixes.

    Nodes are named ``n0..n<N-1>`` and seeded ``seed + i`` so every
    node's trajectory is distinct but the fleet as a whole is a pure
    function of ``seed``.
    """
    if num_nodes < 2:
        raise ExperimentError("a fleet needs at least two nodes")
    names = tuple(mix_names) if mix_names else (DEFAULT_FLEET_MIX,)
    return [
        ClusterNode(
            "n%d" % i,
            mix_by_name(names[i % len(names)]),
            DIRIGENT,
            executions=executions,
            seed=seed + i,
            warmup=warmup,
        )
        for i in range(num_nodes)
    ]


def run_fleet_cell(
    scenario_name: str,
    num_nodes: int = DEFAULT_FLEET_NODES,
    mix_names: Optional[Sequence[str]] = None,
    executions: int = DEFAULT_FLEET_EXECUTIONS,
    warmup: int = 3,
    seed: int = 0,
    vectorized: bool = False,
) -> ClusterResult:
    """One fleet chaos cell: a fresh fleet under one node-fault scenario."""
    cluster = Cluster(
        build_fleet(
            num_nodes,
            mix_names=mix_names,
            executions=executions,
            warmup=warmup,
            seed=seed,
        ),
        vectorized=vectorized,
    )
    return cluster.run(fault_plan=fleet_scenario(scenario_name, seed=seed))


def _signature_digest(result: ClusterResult) -> str:
    """Short stable digest of the fleet event signature.

    The digest is a pure function of the (sorted, rounded) event tuple,
    so equal digests across backends certify equal control-plane
    histories without printing the whole stream.
    """
    report = result.fleet_report
    signature = report.event_signature if report else ()
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()[:12]


def _mean_ms(values: Sequence[float]) -> str:
    if not values:
        return "-"
    return "%.0f" % (1000.0 * sum(values) / len(values))


def run_fleet_chaos(
    scenarios: Optional[Sequence[str]] = None,
    num_nodes: int = DEFAULT_FLEET_NODES,
    mixes: Optional[Sequence[str]] = None,
    executions: int = DEFAULT_FLEET_EXECUTIONS,
    warmup: int = 3,
    seed: int = 0,
    vectorized: bool = False,
) -> FigureResult:
    """Run the fleet scenario catalog and tabulate fleet-wide QoS.

    Each row is one scenario over a fresh fleet: fleet-wide FG deadline
    attainment (stranded executions count as missed), failover traffic,
    detection/recovery latencies, and the event-signature digest that
    the cross-backend determinism check compares.

    Baseline deadlines are warmed through the parallel sweep engine
    first, exactly like the single-node suite, so the serial fleet
    cells find them cached.
    """
    scenario_names = (
        tuple(scenarios) if scenarios else FLEET_SCENARIO_NAMES
    )
    mix_names = tuple(mixes) if mixes else (DEFAULT_FLEET_MIX,)
    # Exactly the (mix, seed) pairs build_fleet creates: node i runs
    # mix i mod len(mix_names) at seed + i.
    node_seeds: Dict[str, List[int]] = {}
    for i in range(num_nodes):
        node_seeds.setdefault(mix_names[i % len(mix_names)], []).append(
            seed + i
        )
    warm_sweeps = [
        run_grid(
            [mix_by_name(name)],
            [BASELINE],
            executions=executions,
            warmup=warmup,
            seeds=seeds,
        )
        for name, seeds in node_seeds.items()
    ]
    rows: List[Tuple[object, ...]] = []
    failover_enabled = True
    for name in scenario_names:
        result = run_fleet_cell(
            name,
            num_nodes=num_nodes,
            mix_names=mix_names,
            executions=executions,
            warmup=warmup,
            seed=seed,
            vectorized=vectorized,
        )
        report = result.fleet_report
        if report is None:
            raise ExperimentError(
                "fleet chaos run of %r produced no fleet report" % name
            )
        failover_enabled = report.failover_enabled
        rows.append((
            name,
            num_nodes,
            "%.3f" % result.fg_success_ratio,
            report.total_injected,
            result.failovers,
            result.failover_retries,
            result.stranded_executions,
            _mean_ms(result.time_to_detection_s),
            _mean_ms(result.time_to_recovery_s),
            report.quarantines,
            report.sheds,
            _signature_digest(result),
        ))
    return FigureResult(
        name="fleet-chaos",
        title="Fleet QoS under node-fault scenarios (failover %s)"
        % ("on" if failover_enabled else "OFF"),
        headers=(
            "Scenario", "Nodes", "Attain", "Injected", "Failover",
            "Retries", "Stranded", "TTDms", "TTRms", "Quar", "Shed",
            "Signature",
        ),
        rows=tuple(rows),
        notes=(
            "attainment counts stranded executions as missed; "
            "signature digests are identical across backends",
            "failover kill switch: REPRO_FLEET_FAILOVER=0; heartbeat "
            "knobs: REPRO_FLEET_SUSPECT_S / REPRO_FLEET_DEAD_S",
        ) + tuple(
            "baseline warm-up %s" % line
            for sweep in warm_sweeps for line in sweep_summary(sweep)
        ),
    )
