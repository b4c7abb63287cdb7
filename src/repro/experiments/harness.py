"""Experiment harness: run a workload mix under a policy, collect metrics.

The harness mirrors the paper's methodology:

1. FG tasks are pinned one per core starting at core 0 (lowest niceness);
   BG tasks fill the remaining cores (highest niceness); the Dirigent
   runtime is pinned to a core shared with a BG task.
2. Each FG benchmark's deadline is ``mu + 0.3 sigma`` of its completion
   time under the **Baseline** configuration (free contention, all cores
   at maximum frequency).
3. FG metrics are computed over ``executions`` completions per FG task
   after a warmup; BG performance is total BG instructions per second
   over the same measurement window, normalized to Baseline.

Offline profiles, standalone and Baseline runs, static-partition
sweeps and default-option policy runs go through
:func:`repro.experiments.diskcache.cached`, each under one key tuple
that holds every value its result depends on, so figure drivers and
sweep workers share them.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace as dc_replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.policies import BASELINE, Policy
from repro.core.profile import ExecutionProfile, OfflineProfiler
from repro.core.runtime import (
    DirigentRuntime,
    ManagedTask,
    PredictionRecord,
    RuntimeOptions,
)
from repro.errors import ExperimentError
from repro.experiments.diskcache import cached, clear_memo, get_cache
from repro.experiments.metrics import (
    DEADLINE_SIGMA_FACTOR,
    DurationStats,
    deadline_for,
    duration_stats,
    success_ratio,
)
from repro.experiments.mixes import Mix
from repro.sim.batch import resolve_backend
from repro.sim.config import MachineConfig, default_executions
from repro.sim.counters import CounterSnapshot
from repro.sim.jitter import shared_jitter
from repro.sim.machine import Machine
from repro.sim.process import ExecutionRecord, Process
from repro.workloads.catalog import get_rotate_pair, get_workload
from repro.workloads.rotate import spawn_rotating_background

if TYPE_CHECKING:
    # Fault injection is imported where a plan is applied: most runs
    # have none, and a figure process never loads it.
    from repro.faults import FaultInjector, FaultPlan, FaultReport

# The default execution count comes from
# repro.sim.config.default_executions(), which re-reads REPRO_EXECUTIONS
# on every call: harness entry points take ``executions=None`` and
# resolve it at call time, so sweep workers and tests observe
# environment changes made after import (the old import-time module
# constant froze the variable's value at first import).

#: Executions discarded before measurement begins.
DEFAULT_WARMUP = 5

#: Ticks between bookkeeping checks while driving a session block by
#: block (:meth:`PolicySession.advance`, the fleet controller).  Runs
#: driven to the end in one call stop on the same block boundaries.
DRIVE_BLOCK_TICKS = 32

#: Machine-readable registry of the result-cache namespaces this module
#: writes and the identifiers every key tuple for each namespace must
#: fold in.  ``repro lint``'s ``COV003`` cross-checks it against the
#: actual ``cached(...)`` call sites: an undeclared namespace, a
#: declared-but-unused one, and a key tuple missing a required
#: identifier are all errors — so a new result-relevant parameter
#: cannot silently stay out of a cache key.  Every key folds the active
#: simulation backend in, so results produced by one backend are never
#: served to a run under the other.  The symbol ``backend`` also matches
#: a direct ``resolve_backend()`` call inside the tuple (the two
#: spellings are the same value by construction).
CACHE_KEY_FIELDS = {
    "profile": ("fg_name", "config", "sampling_period_s", "backend"),
    "baseline": ("mix", "config", "executions", "warmup", "seed",
                 "backend"),
    "standalone": ("fg_name", "config", "executions", "warmup", "seed",
                   "backend"),
    "partition": ("mix", "config", "seed", "candidates", "executions",
                  "warmup", "knee_tolerance", "backend"),
    "run": ("mix", "policy", "executions", "warmup", "config", "seed",
            "backend"),
}

#: Fleet sessions that ran from tick 0 to done untouched by the control
#: plane, keyed by :func:`node_record_key`, as ``(rounds to done,
#: measured_records(), the clock tick the session saw each of those
#: records at, result())``; :mod:`repro.cluster` records and replays
#: them.  In memory only.
_NODE_RECORDS: Dict[
    Tuple[
        Mix, Policy, int, int, MachineConfig, int, str,
        Optional[Tuple[float, ...]],
    ],
    Tuple[
        int,
        Tuple[Tuple[Tuple[float, float], ...], ...],
        Tuple[Tuple[int, ...], ...],
        "RunResult",
    ],
] = {}


def node_record_key(
    session: "PolicySession", config: Optional[MachineConfig], seed: int
) -> Tuple[
    Mix, Policy, int, int, MachineConfig, int, str,
    Optional[Tuple[float, ...]],
]:
    """A fleet session's key in :data:`_NODE_RECORDS`.

    The "run" cache-key fields the session was built from (``config``
    and ``seed`` as passed to it) plus the deadlines it is judged by:
    a failover replacement takes its home stream's deadlines, not its
    own Baseline's.
    """
    return (
        session.mix, session.policy, session._executions, session._warmup,
        config or MachineConfig(), seed, session.machine.backend,
        session.deadlines,
    )


def record_node(key: tuple, session: "PolicySession") -> None:
    """File a finished fleet session's outcome under ``key``.

    Only for a session driven from tick 0 to done with nothing but its
    own runtime acting on the machine.
    """
    warmup, target = session._warmup, session._target
    _NODE_RECORDS[key] = (
        session._ticks // DRIVE_BLOCK_TICKS,
        session.measured_records(),
        tuple(
            tuple(session._seen[p.pid][warmup:target])
            for p in session._fg_procs
        ),
        session.result(),
    )


@dataclass(frozen=True)
class RunResult:
    """Outcome of running one mix under one policy.

    Attributes:
        mix: The workload mix.
        policy_name: Name of the policy that ran.
        deadlines_s: Deadline per FG task (same benchmark => same value).
        durations_s: Measured execution times per FG task, post-warmup.
        bg_instr_per_s: BG instructions per second in the measurement
            window.
        elapsed_s: Length of the measurement window.
        fg_instr: FG instructions retired in the window (all FG cores).
        fg_misses: FG LLC misses in the window.
        bg_misses: BG LLC misses in the window.
        bg_instr: BG instructions in the window.
        prediction_logs: Midpoint prediction records per FG task (empty
            unless a runtime with prediction recording ran).
        bg_grade_histogram: Histogram of BG core DVFS grades sampled by
            the runtime (empty without a runtime).
        partition_history: FG partition sizes chosen by the coarse
            controller over time (empty without coarse control).
        fault_report: Fault-injection and degradation accounting; only
            present when the run executed under a ``FaultPlan``.
    """

    mix: Mix
    policy_name: str
    deadlines_s: Tuple[float, ...]
    durations_s: Tuple[Tuple[float, ...], ...]
    bg_instr_per_s: float
    elapsed_s: float
    fg_instr: float
    fg_misses: float
    bg_misses: float
    bg_instr: float
    prediction_logs: Tuple[Tuple[PredictionRecord, ...], ...] = ()
    bg_grade_histogram: Dict[int, int] = field(default_factory=dict)
    partition_history: Tuple[int, ...] = ()
    fault_report: Optional[FaultReport] = None

    @property
    def all_durations(self) -> List[float]:
        """Execution times pooled over all FG tasks."""
        return [d for task in self.durations_s for d in task]

    @property
    def fg_stats(self) -> DurationStats:
        """Duration statistics pooled over all FG tasks."""
        return duration_stats(self.all_durations)

    @property
    def fg_success_ratio(self) -> float:
        """Fraction of FG executions meeting their task's deadline."""
        total = 0
        met = 0
        for deadline, durations in zip(self.deadlines_s, self.durations_s):
            total += len(durations)
            met += sum(1 for d in durations if d <= deadline)
        if total == 0:
            raise ExperimentError("run produced no measured executions")
        return met / total

    @property
    def fg_mpki(self) -> float:
        """FG misses per kilo-instruction over the window."""
        if self.fg_instr <= 0:
            return 0.0
        return self.fg_misses / self.fg_instr * 1000.0


def fg_cores_of(mix: Mix, config: MachineConfig) -> List[int]:
    """Cores assigned to FG tasks (0 .. fg_count-1)."""
    if mix.fg_count >= config.num_cores:
        raise ExperimentError(
            "mix %r needs at least one BG core on a %d-core machine"
            % (mix.name, config.num_cores)
        )
    return list(range(mix.fg_count))


def bg_cores_of(mix: Mix, config: MachineConfig) -> List[int]:
    """Cores assigned to BG tasks (the rest of the machine)."""
    return list(range(mix.fg_count, config.num_cores))


def build_machine(
    mix: Mix, config: MachineConfig, seed: int = 0
) -> Tuple[Machine, List[Process], List[Process]]:
    """Create a machine with the mix's processes pinned and ready."""
    machine = Machine(config.with_seed(_derive_seed(config.seed, mix.name, seed)))
    fg_spec = get_workload(mix.fg_name)
    fg_procs = [
        machine.spawn(fg_spec, core=core, nice=-5)
        for core in fg_cores_of(mix, config)
    ]
    bg_cores = bg_cores_of(mix, config)
    if mix.is_rotate:
        bg_procs = spawn_rotating_background(
            machine,
            get_rotate_pair(mix.rotate_name),
            cores=bg_cores,
            nice=5,
            seed=machine.config.seed,
        )
    else:
        bg_spec = get_workload(mix.bg_name)
        bg_procs = [machine.spawn(bg_spec, core=core, nice=5) for core in bg_cores]
    machine.settle_cache()
    return machine, fg_procs, bg_procs


def get_profile(
    fg_name: str,
    config: Optional[MachineConfig] = None,
    sampling_period_s: float = 5e-3,
) -> ExecutionProfile:
    """Offline profile of an FG benchmark (cached)."""
    config = config or MachineConfig()
    key = (fg_name, config, sampling_period_s, resolve_backend())
    return cached("profile", key, lambda: OfflineProfiler(
        machine_config=config, sampling_period_s=sampling_period_s
    ).profile(get_workload(fg_name)))


def run_policy(
    mix: Mix,
    policy: Policy,
    deadlines_s: Optional[Sequence[float]] = None,
    executions: Optional[int] = None,
    warmup: int = DEFAULT_WARMUP,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    static_fg_ways: Optional[int] = None,
    observe_predictor: bool = False,
    runtime_options: Optional[RuntimeOptions] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> RunResult:
    """Run ``mix`` under ``policy`` and return measured results.

    Args:
        mix: The workload mix.
        policy: Resource-management configuration.
        deadlines_s: Per-FG-task deadlines; required when the policy's
            fine controller runs (otherwise optional, used for metrics).
            Computed from the Baseline run when omitted.
        executions: Measured FG executions per task (default:
            ``REPRO_EXECUTIONS`` or 40, read at call time).
        warmup: Executions discarded before measurement.
        config: Machine configuration (defaults to the paper machine).
        seed: Experiment seed, combined with the config seed and mix name.
        static_fg_ways: Partition size for static-partition policies
            (found by :func:`find_static_partition` when omitted).
        observe_predictor: Run the Dirigent runtime in observe-only mode
            (sampling and predicting, controlling nothing) — used by the
            predictor-accuracy experiments on the Baseline configuration.
        runtime_options: Override the runtime's tunables.
        fault_plan: Inject faults into the runtime's sensor/actuator
            surfaces per this plan (``repro.faults``).  The machine and
            all measured ground truth stay fault-free; a zero-fault plan
            (or None) runs bit-identically to a plain run.
    """
    session = PolicySession(
        mix,
        policy,
        deadlines_s=deadlines_s,
        executions=executions,
        warmup=warmup,
        config=config,
        seed=seed,
        static_fg_ways=static_fg_ways,
        observe_predictor=observe_predictor,
        runtime_options=runtime_options,
        fault_plan=fault_plan,
    )
    session.run_to_end()
    return session.result()


class PolicySession:
    """An incrementally driven policy run (one node's experiment).

    :func:`run_policy` drives one session to completion with
    :meth:`run_to_end`; the cluster layer (:mod:`repro.cluster`) steps
    several sessions in lockstep.  Construction performs all setup
    (machine, static settings, runtime); call :meth:`run_to_end`, or
    :meth:`advance` / :meth:`tick` until :attr:`done`, then
    :meth:`result`.
    """

    def __init__(
        self,
        mix: Mix,
        policy: Policy,
        deadlines_s: Optional[Sequence[float]] = None,
        executions: Optional[int] = None,
        warmup: int = DEFAULT_WARMUP,
        config: Optional[MachineConfig] = None,
        seed: int = 0,
        static_fg_ways: Optional[int] = None,
        observe_predictor: bool = False,
        runtime_options: Optional[RuntimeOptions] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if executions is None:
            executions = default_executions()
        if executions < 1:
            raise ExperimentError("executions must be >= 1")
        config = config or MachineConfig()
        # Non-Baseline policies are judged against the Baseline deadlines;
        # pass an explicit empty tuple to opt out (e.g. partition sweeps).
        if deadlines_s is None and policy.name != BASELINE.name:
            deadlines_s = deadlines_for(
                mix, executions=executions, warmup=warmup, config=config,
                seed=seed,
            )
        self.mix = mix
        self.policy = policy
        self._deadlines = deadlines_s
        self._executions = executions
        self._warmup = warmup
        machine, fg_procs, bg_procs = build_machine(mix, config, seed)
        self.machine = machine
        self._fg_procs = fg_procs
        self._bg_procs = bg_procs

        # Fault injection wraps only the runtime's view of the machine;
        # the machine itself — and with it the completion stream and all
        # measured ground truth — stays fault-free.  With no plan (or a
        # zero-fault plan) no wrapper exists at all, so plain runs are
        # bit-identical by construction.
        self._fault_plan = fault_plan
        self._injector: Optional[FaultInjector] = None
        runtime_system = machine
        if fault_plan is not None and not fault_plan.is_zero:
            from repro.faults import FaultInjector, FaultySystem

            self._injector = FaultInjector(
                fault_plan,
                seed=_derive_seed(
                    fault_plan.seed, "faults:%s" % mix.name, seed
                ),
            )
            runtime_system = FaultySystem(machine, self._injector)

        # Static frequency settings.
        if policy.static_bg_grade is not None:
            for proc in bg_procs:
                machine.set_frequency_grade(proc.core, policy.static_bg_grade)
        if policy.static_fg_grade is not None:
            for proc in fg_procs:
                machine.set_frequency_grade(proc.core, policy.static_fg_grade)

        # Static cache partition.
        if policy.static_partition:
            ways = static_fg_ways
            if ways is None:
                ways = find_static_partition(mix, config=config, seed=seed)
            machine.set_fg_partition([p.core for p in fg_procs], ways)

        self.runtime: Optional[DirigentRuntime] = None
        if policy.uses_runtime or observe_predictor:
            task_deadlines = list(deadlines_s) if deadlines_s else [
                math.inf
            ] * len(fg_procs)
            base_opts = runtime_options or RuntimeOptions()
            opts = dc_replace(
                base_opts,
                enable_fine=policy.fine_control,
                enable_coarse=policy.coarse_control,
                initial_fg_ways=policy.initial_fg_ways,
            )
            profile = get_profile(mix.fg_name, config, opts.sampling_period_s)
            if self._injector is not None:
                profile = self._injector.corrupt_profile(profile)
            tasks = [
                ManagedTask(
                    pid=proc.pid,
                    core=proc.core,
                    profile=profile,
                    deadline_s=deadline,
                    ema_weight=opts.ema_weight,
                    predictor_scaling=opts.predictor_scaling,
                )
                for proc, deadline in zip(fg_procs, task_deadlines)
            ]
            runtime = DirigentRuntime(
                runtime_system, tasks, [p.pid for p in bg_procs],
                options=opts,
            )
            machine.add_completion_listener(
                lambda proc, record: runtime.on_fg_completion(
                    proc.pid,
                    record.end_s,
                    record.duration_s,
                    record.instructions,
                    record.llc_misses,
                )
            )
            runtime.start()
            self.runtime = runtime

        # Collect execution records per FG task, with the clock tick
        # each was seen at (the machine starts at tick 0): fleet replays
        # answer mid-run by it.
        self._records: Dict[int, List[ExecutionRecord]] = {
            p.pid: [] for p in fg_procs
        }
        self._seen: Dict[int, List[int]] = {p.pid: [] for p in fg_procs}
        clock = machine.clock

        def collect(proc: Process, record: ExecutionRecord) -> None:
            bucket = self._records.get(proc.pid)
            if bucket is not None:
                bucket.append(record)
                self._seen[proc.pid].append(clock.tick)

        machine.add_completion_listener(collect)

        # Open the measurement window from the completion stream rather
        # than by per-tick polling: a listener fires at exactly the tick
        # the warmup-th completion lands (same counters, same clock), so
        # the machine can be driven in batched blocks in between.
        def open_window(proc: Process, record: ExecutionRecord) -> None:
            if self._meas_start is None and all(
                len(bucket) >= self._warmup
                for bucket in self._records.values()
            ):
                self._meas_start = _counter_totals(
                    self.machine, self._fg_cores, self._bg_cores
                )

        machine.add_completion_listener(open_window)

        self._target = warmup + executions
        self._fg_cores = [p.core for p in fg_procs]
        self._bg_cores = [p.core for p in bg_procs]
        self._meas_start: Optional[Dict[str, float]] = None
        est_duration = get_workload(mix.fg_name).total_instructions / 1.5e9
        self._max_ticks = int(
            (self._target * est_duration * 12 + 60.0) / config.tick_s
        )
        self._ticks = 0
        self._done = False

    @property
    def done(self) -> bool:
        """True once every FG task has completed its target executions.

        A done session has closed its machine (:meth:`Machine.close`).
        """
        return self._done

    def completions(self) -> List[int]:
        """Completed executions per FG task so far."""
        return [len(self._records[p.pid]) for p in self._fg_procs]

    @property
    def deadlines(self) -> Optional[Tuple[float, ...]]:
        """The session's per-task deadlines (None for self-judged runs).

        The fleet control plane hands these to replacement sessions so
        a re-placed stream is judged against the *original* goalposts,
        not deadlines recomputed for its shortened execution count.
        """
        if self._deadlines is None:
            return None
        return tuple(self._deadlines)

    def measured_records(self) -> Tuple[Tuple[Tuple[float, float], ...], ...]:
        """Post-warmup ``(end_s, duration_s)`` pairs per FG task so far.

        Valid at any point of the run (not just once done): the fleet
        control plane uses it for partial-credit accounting of sessions
        a node fault cut short.  Times are the session machine's own
        clock.
        """
        warmup, target = self._warmup, self._target
        return tuple(
            tuple(
                (r.end_s, r.duration_s)
                for r in self._records[p.pid][warmup:target]
            )
            for p in self._fg_procs
        )

    def tick(self) -> None:
        """Advance the node by one simulator tick.

        Used by the cluster layer to step several sessions in lockstep;
        single-node runs go through the batched :meth:`advance`.
        """
        if self._done:
            return
        self.machine.tick()
        self._ticks += 1
        if self._ticks % DRIVE_BLOCK_TICKS == 0 or self._meas_start is None:
            self._bookkeep()

    def advance(self, ticks: int = DRIVE_BLOCK_TICKS) -> None:
        """Advance the node by up to ``ticks`` ticks through the machine's
        batched fast path, then run the completion/guard bookkeeping.

        The measurement window still opens at the exact warmup
        completion tick (a completion listener handles it), so block
        driving changes nothing about what is measured.
        """
        if self._done:
            return
        if self._meas_start is None and self._warmup == 0:
            # With no warmup the window opens after the first tick (no
            # completion ever fires "at" it); take that tick alone.
            self.machine.run_ticks(1)
            self._ticks += 1
            self._bookkeep()
            ticks -= 1
            if ticks <= 0 or self._done:
                return
        self.machine.run_ticks(ticks)
        self._ticks += ticks
        self._bookkeep()

    def run_to_end(self) -> None:
        """Drive the node to :attr:`done` in one machine run.

        Ends on the very tick ``while not done: advance()`` ends on, so
        results are identical: when the last needed execution completes,
        a completion listener ends the run at the close of that
        ``DRIVE_BLOCK_TICKS`` block, the boundary where block driving
        would first see the node done.  A node not done at the first
        block boundary past the tick guard raises, as there.
        """
        if self._done:
            return
        machine = self.machine
        clock = machine.clock
        block = DRIVE_BLOCK_TICKS
        # Block driving from here closes a block every ``block`` ticks
        # counted from ``base`` (the lone no-warmup tick included).
        base = clock.tick
        blocks = max(1, (self._max_ticks - self._ticks) // block + 1)
        last = base + blocks * block
        if self._meas_start is None and self._warmup == 0:
            self.advance(1)
            if self._done:
                return
        target = self._target
        buckets = list(self._records.values())

        def end_with_block(proc: Process, record: ExecutionRecord) -> None:
            if all(len(bucket) >= target for bucket in buckets):
                now = clock.tick
                machine.end_run_at(now + (base - now) % block)

        machine.add_completion_listener(end_with_block)
        start = clock.tick
        machine.run_ticks(last - start)
        self._ticks += clock.tick - start
        self._bookkeep()

    def _bookkeep(self) -> None:
        done = self.completions()
        if self._meas_start is None and all(
            d >= self._warmup for d in done
        ):
            self._meas_start = _counter_totals(
                self.machine, self._fg_cores, self._bg_cores
            )
        if all(d >= self._target for d in done):
            self._done = True
            if self.runtime is not None:
                self.runtime.stop()
            # Nothing drives a finished session again; result() reads
            # only the counters and the clock, which stay readable.
            self.machine.close()
            return
        if self._ticks > self._max_ticks:
            raise ExperimentError(
                "run of %r under %s did not finish within the tick "
                "guard (%d completions of %d)"
                % (
                    self.mix.name,
                    self.policy.name,
                    min(done),
                    self._target,
                )
            )

    def result(self) -> RunResult:
        """Measured results; only valid once :attr:`done`."""
        if not self._done:
            raise ExperimentError("session has not finished")
        if self._meas_start is None:
            raise ExperimentError("measurement window never opened")
        meas_end = _counter_totals(
            self.machine, self._fg_cores, self._bg_cores
        )
        meas_start = self._meas_start
        elapsed = meas_end["time"] - meas_start["time"]
        bg_instr = meas_end["bg_instr"] - meas_start["bg_instr"]

        warmup, target = self._warmup, self._target
        durations = tuple(
            tuple(
                r.duration_s for r in self._records[p.pid][warmup:target]
            )
            for p in self._fg_procs
        )
        deadlines_s = self._deadlines
        if deadlines_s is None:
            # Baseline (or observe-only) runs define their own deadlines.
            deadlines_s = [
                deadline_for(duration_stats(list(task)), DEADLINE_SIGMA_FACTOR)
                for task in durations
            ]

        prediction_logs: Tuple[Tuple[PredictionRecord, ...], ...] = ()
        grade_hist: Dict[int, int] = {}
        partition_history: Tuple[int, ...] = ()
        if self.runtime is not None:
            prediction_logs = tuple(
                tuple(task.prediction_log) for task in self.runtime.tasks
            )
            grade_hist = dict(self.runtime.bg_grade_histogram)
            if self.runtime.coarse_controller is not None:
                partition_history = tuple(
                    self.runtime.coarse_controller.partition_history
                )

        return RunResult(
            mix=self.mix,
            policy_name=self.policy.name,
            deadlines_s=tuple(deadlines_s),
            durations_s=durations,
            bg_instr_per_s=bg_instr / elapsed if elapsed > 0 else 0.0,
            elapsed_s=elapsed,
            fg_instr=meas_end["fg_instr"] - meas_start["fg_instr"],
            fg_misses=meas_end["fg_misses"] - meas_start["fg_misses"],
            bg_misses=meas_end["bg_misses"] - meas_start["bg_misses"],
            bg_instr=bg_instr,
            prediction_logs=prediction_logs,
            bg_grade_histogram=grade_hist,
            partition_history=partition_history,
            fault_report=self._fault_report(),
        )

    def _fault_report(self) -> Optional[FaultReport]:
        """Fault/degradation accounting for this run (None without a plan)."""
        if self._fault_plan is None:
            return None
        from repro.faults import FaultReport

        injector = self._injector
        runtime = self.runtime
        report = FaultReport(
            scenario=self._fault_plan.scenario,
            fault_seed=(
                injector.seed if injector is not None
                else self._fault_plan.seed
            ),
            injected=dict(injector.counts) if injector is not None else {},
            events=len(injector.events) if injector is not None else 0,
            event_signature=(
                tuple(injector.event_signature())
                if injector is not None else ()
            ),
        )
        if runtime is None:
            return report
        anomalies = runtime.sensor_anomalies()
        now = self.machine.now()
        guarded = runtime.guarded
        return dc_replace(
            report,
            hardening_enabled=runtime.hardening_enabled,
            samples_dropped=anomalies["zero_delta"],
            rejected_samples=anomalies["rejected"],
            stale_samples=anomalies["stale"],
            suspect_samples=runtime.suspect_samples,
            health_samples=runtime.health_samples,
            actuations_retried=(
                guarded.actuations_retried if guarded is not None else 0
            ),
            actuations_failed=(
                guarded.actuations_failed if guarded is not None else 0
            ),
            degraded_entries=runtime.degraded_entries,
            safe_entries=runtime.safe_entries,
            degraded_time_s=runtime.degraded_time_s(now)
            + runtime.safe_time_s(now),
            safe_time_s=runtime.safe_time_s(now),
        )


@dataclass(frozen=True)
class StandaloneResult:
    """Uncontended FG measurements (used by Figures 4 and 15).

    Attributes:
        fg_name: The benchmark measured.
        durations_s: Per-execution completion times (post-warmup).
        mpki: FG misses per kilo-instruction over the window.
    """

    fg_name: str
    durations_s: Tuple[float, ...]
    mpki: float

    @property
    def stats(self) -> DurationStats:
        """Duration statistics of the standalone executions."""
        return duration_stats(list(self.durations_s))


def measure_standalone(
    fg_name: str,
    executions: Optional[int] = None,
    warmup: int = DEFAULT_WARMUP,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
) -> StandaloneResult:
    """Run an FG benchmark alone at maximum frequency (cached)."""
    if executions is None:
        executions = default_executions()
    config = config or MachineConfig()
    key = (fg_name, config, executions, warmup, seed, resolve_backend())
    return cached("standalone", key, lambda: _run_standalone(
        fg_name, executions, warmup, config, seed
    ))


def _run_standalone(
    fg_name: str, executions: int, warmup: int, config: MachineConfig,
    seed: int,
) -> StandaloneResult:
    machine = Machine(
        config.with_seed(_derive_seed(config.seed, "alone:%s" % fg_name, seed))
    )
    proc = machine.spawn(get_workload(fg_name), core=0, nice=-5)
    machine.settle_cache()
    records: List[ExecutionRecord] = []
    target = warmup + executions
    snaps: Dict[str, CounterSnapshot] = {}

    def on_completion(p: Process, r: ExecutionRecord) -> None:
        records.append(r)
        # Snapshot the window bounds at the exact completion ticks, so
        # the machine can run in one call in between; the run ends at
        # the close of the DRIVE_BLOCK_TICKS block (counted from
        # ``base``) holding the last needed completion.
        if len(records) == warmup and warmup > 0:
            snaps["start"] = machine.read_counters(0)
        elif len(records) == target:
            snaps["end"] = machine.read_counters(0)
            now = machine.clock.tick
            machine.end_run_at(now + (base - now) % DRIVE_BLOCK_TICKS)

    # Without warmup the window opens after a lone first tick; blocks
    # are counted from there.
    base = machine.clock.tick + (1 if warmup == 0 else 0)
    machine.add_completion_listener(on_completion)
    try:
        if warmup == 0:
            machine.run_ticks(1)
            snaps.setdefault("start", machine.read_counters(0))
        # Block-by-block driving gave up on the first block past the
        # guard.
        guard = int(600.0 / config.tick_s)
        machine.run_ticks(guard // DRIVE_BLOCK_TICKS * DRIVE_BLOCK_TICKS)
    finally:
        # ``on_completion`` and the machine refer to each other.
        machine.close()
    if len(records) < target:
        raise ExperimentError(
            "standalone run of %r did not finish in time" % fg_name
        )
    delta = snaps["end"].delta(snaps["start"])
    return StandaloneResult(
        fg_name=fg_name,
        durations_s=tuple(r.duration_s for r in records[warmup:target]),
        mpki=delta.mpki,
    )


def measure_baseline(
    mix: Mix,
    executions: Optional[int] = None,
    warmup: int = DEFAULT_WARMUP,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
) -> RunResult:
    """Run the Baseline configuration (cached)."""
    if executions is None:
        executions = default_executions()
    config = config or MachineConfig()
    key = (mix, config, executions, warmup, seed, resolve_backend())
    return cached("baseline", key, lambda: run_policy(
        mix, BASELINE, executions=executions, warmup=warmup, config=config,
        seed=seed,
    ))


def deadlines_for(
    mix: Mix,
    executions: Optional[int] = None,
    warmup: int = DEFAULT_WARMUP,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
) -> Tuple[float, ...]:
    """Per-FG-task deadlines from the cached Baseline run."""
    baseline = measure_baseline(
        mix, executions=executions, warmup=warmup, config=config, seed=seed
    )
    return baseline.deadlines_s


def find_static_partition(
    mix: Mix,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    candidates: Optional[Sequence[int]] = None,
    executions: int = 10,
    warmup: int = 3,
    knee_tolerance: float = 0.03,
) -> int:
    """Best static FG partition: the knee of a short exhaustive sweep.

    Mirrors the paper's StaticBoth setup: sweep FG way counts with BG
    cores at minimum frequency and pick the smallest partition whose mean
    FG time is within ``knee_tolerance`` of the sweep's best.  The
    sweep's runs share one jitter scope, so all but the first read the
    OS-jitter draws an earlier one made.
    """
    config = config or MachineConfig()
    if candidates is None:
        candidates = list(range(2, min(17, config.llc_ways - 1), 2))
    candidates = tuple(candidates)
    key = (
        mix, config, seed, candidates, executions, warmup, knee_tolerance,
        resolve_backend(),
    )
    return cached("partition", key, lambda: _partition_knee(
        mix, config, seed, candidates, executions, warmup, knee_tolerance
    ))


def _partition_knee(
    mix: Mix, config: MachineConfig, seed: int, candidates: Tuple[int, ...],
    executions: int, warmup: int, knee_tolerance: float,
) -> int:
    means: List[Tuple[int, float]] = []
    sweep_policy = Policy(
        name="PartitionSweep", static_bg_grade=0, static_partition=True
    )
    with shared_jitter():
        for ways in candidates:
            result = run_policy(
                mix,
                sweep_policy,
                deadlines_s=(),
                executions=executions,
                warmup=warmup,
                config=config,
                seed=seed,
                static_fg_ways=ways,
            )
            means.append((ways, result.fg_stats.mean_s))
    best = min(m for _, m in means)
    for ways, m in means:
        if m <= best * (1.0 + knee_tolerance):
            return ways
    raise ExperimentError("partition sweep produced no knee")  # unreachable


def run_policy_cached(
    mix: Mix,
    policy: Policy,
    executions: Optional[int] = None,
    warmup: int = DEFAULT_WARMUP,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
) -> RunResult:
    """:func:`run_policy` through the result cache.

    Only default-option runs (no deadline overrides, no runtime-option
    overrides, harness-chosen static partition) are cacheable — those
    are exactly the cells the figure drivers and the parallel sweep
    engine fan out.
    """
    if executions is None:
        executions = default_executions()
    config = config or MachineConfig()
    if policy == BASELINE:
        # Baseline runs live in the "baseline" namespace (they double as
        # every other policy's deadline source); don't store them twice.
        return measure_baseline(
            mix, executions=executions, warmup=warmup, config=config,
            seed=seed,
        )
    key = (mix, policy, executions, warmup, config, seed, resolve_backend())
    return cached("run", key, lambda: run_policy(
        mix, policy, executions=executions, warmup=warmup, config=config,
        seed=seed,
    ))


def clear_caches() -> None:
    """Drop all cached results, in memory and on disk (tests, CLI)."""
    clear_memo()
    _NODE_RECORDS.clear()
    get_cache().clear()


def _counter_totals(machine: Machine, fg_cores, bg_cores) -> Dict[str, float]:
    now = machine.now()
    totals = {
        "time": now,
        "fg_instr": 0.0,
        "fg_misses": 0.0,
        "bg_instr": 0.0,
        "bg_misses": 0.0,
    }
    for core in fg_cores:
        snap = machine.read_counters(core)
        totals["fg_instr"] += snap.instructions
        totals["fg_misses"] += snap.llc_misses
    for core in bg_cores:
        snap = machine.read_counters(core)
        totals["bg_instr"] += snap.instructions
        totals["bg_misses"] += snap.llc_misses
    return totals


def _derive_seed(config_seed: int, mix_name: str, seed: int) -> int:
    # zlib.crc32 is stable across processes (unlike hash() on strings).
    label = "%d|%s|%d" % (config_seed, mix_name, seed)
    return zlib.crc32(label.encode("utf-8")) & 0x7FFFFFFF
