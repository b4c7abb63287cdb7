"""Parallel sweep engine: fan mix x policy x seed cells across processes.

Figure drivers are embarrassingly parallel at the cell level — every
(mix, policy, executions, seed) run is an independent simulation — but
cells share expensive prerequisites: the mix's Baseline run (deadlines),
its static-partition sweep, and the FG benchmark's offline profile.  The
engine therefore schedules in two phases:

1. **Prepare**: one cell per (mix, seed) computes the shared
   prerequisites and publishes them through the result store
   (:func:`repro.experiments.diskcache.cached`).
2. **Policy cells**: all (mix, policy) cells fan out; each worker reads
   the warm prerequisites from the store and stores its result there
   too.

Workers communicate exclusively through the result store (the worker's
own memo, then the content-addressed disk cache; with the disk off a
cell recomputes what its worker lacks), so results are *identical* to a
serial sweep: every cell derives its RNG streams from ``(config.seed,
mix.name, seed)`` alone, never from worker identity or scheduling order
(``tests/experiments/test_parallel.py`` asserts equality).

Both phases follow one dispatch rule: each cell is one pool task, at
most ``workers`` tasks are in flight, and the next cell is submitted as
one completes.  Worker count comes from the ``workers`` argument, then
the ``REPRO_WORKERS`` environment variable (the CLI's ``--workers``
exports it), then ``os.cpu_count()``.

With ``seeds`` the grid grows a Monte-Carlo axis — every
(mix, policy, seed) combination is a cell.

The engine degrades rather than dies: a pool that cannot be created (or
breaks during the prepare phase) falls back to the serial path with the
cause logged and recorded in :attr:`SweepResult.fallback_reason`.  With
``REPRO_CELL_TIMEOUT_S`` set, every cell has a deadline counted from its
submission.  A policy cell that misses it — or is stranded by a dying
pool — is *lost* and recomputed serially once
(:attr:`SweepResult.retried`), with unrecoverable cells counted in
:attr:`SweepResult.failed` instead of aborting the sweep.  An overdue
prepare cell is dropped, and its mix's policy cells compute the
prerequisites themselves, as serial cells do.  Lost-cell recovery cannot
change values: every cell's result depends only on its arguments, never
on where it ran.

**Pool reuse.** Repeated small sweeps (policy tournaments, fleet grids)
would pay a fresh pool on every call.  A module-level
:class:`WorkerPool` keeps the executor alive across consecutive
:func:`run_grid` calls, and with it each worker's compiled span
kernels and result-store memo.  The pool's generation key
folds in the worker count, the code-version tag, and a fingerprint of
every declared env knob; any change — or a broken/timed-out pool —
retires the workers and respawns.  Reuse is result-neutral.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.core.policies import Policy
from repro.experiments.diskcache import (
    code_version_tag,
    recording,
    seed_memo,
)
from repro.experiments.harness import (
    DEFAULT_WARMUP,
    RunResult,
    find_static_partition,
    get_profile,
    measure_baseline,
    run_policy_cached,
)
from repro.experiments.mixes import Mix
from repro.sim.config import (
    ENV_CELL_TIMEOUT_S,
    MachineConfig,
    default_executions,
    env_cell_timeout_s,
    env_workers,
    knob_fingerprint,
)
from repro.sim.jitter import shared_jitter

if TYPE_CHECKING:
    # The pool is imported where one is created, waited on or retired:
    # a serial sweep, and every process that only renders figures,
    # never loads it.
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

_log = logging.getLogger(__name__)

__all__ = ["SweepResult", "default_workers", "last_sweep", "run_grid",
           "shutdown_pool"]


def default_workers() -> int:
    """Resolve the worker count: REPRO_WORKERS, then the CPU count."""
    env = env_workers()
    if env is not None:
        return env
    return os.cpu_count() or 1


@dataclass
class SweepResult:
    """Outcome of one grid sweep.

    Attributes:
        results: RunResult per ``(mix.name, policy.name)`` cell — or
            per ``(mix.name, policy.name, seed)`` when the sweep ran
            with an explicit ``seeds`` axis.
        cell_timings: Wall-clock seconds spent producing each cell
            (near zero for cache hits).
        workers: Worker processes the sweep ran with (1 = serial).
        mode: ``"serial"`` or ``"parallel"``.
        elapsed_s: End-to-end wall-clock time of the sweep.
        retried: Cells recovered by the serial retry after their worker
            timed out (``REPRO_CELL_TIMEOUT_S``) or the pool died
            mid-sweep.
        failed: Cells that also failed the serial retry; their keys are
            absent from ``results``.
        failures: ``(mix, policy, reason)`` per failed cell.
        fallback_reason: Why a requested parallel sweep ran serially
            instead (None for healthy sweeps).
        warm_starts: 1 when the sweep ran on a reused (already-live)
            worker pool, 0 for a cold pool or a serial sweep.
    """

    results: Dict[Tuple, RunResult] = field(default_factory=dict)
    cell_timings: Dict[Tuple, float] = field(default_factory=dict)
    workers: int = 1
    mode: str = "serial"
    elapsed_s: float = 0.0
    retried: int = 0
    failed: int = 0
    failures: List[Tuple[str, str, str]] = field(default_factory=list)
    fallback_reason: Optional[str] = None
    warm_starts: int = 0

    def get(
        self, mix: Mix, policy: Policy, seed: Optional[int] = None
    ) -> RunResult:
        """The cached cell for ``(mix, policy)`` (or one of its seeds)."""
        if seed is None:
            return self.results[(mix.name, policy.name)]
        return self.results[(mix.name, policy.name, seed)]


def _prepare_cell(args: Tuple) -> Tuple[Tuple, Dict[Tuple, object]]:
    """Worker: compute a mix's shared prerequisites (phase 1), in one
    jitter scope: the partition sweep reads the Baseline's draws.

    Returns ``((mix name, seed), memo entries)``: every cached result
    the cell used, for the mix's policy cells to seed their worker's
    memo with.  With the disk cache off that memo is the only place
    another worker could find them.
    """
    mix, policies, executions, warmup, config, seed = args
    with recording() as entries, shared_jitter():
        measure_baseline(
            mix, executions=executions, warmup=warmup, config=config,
            seed=seed,
        )
        if any(p.static_partition for p in policies):
            find_static_partition(mix, config=config, seed=seed)
        if any(p.uses_runtime for p in policies):
            get_profile(mix.fg_name, config)
    return (mix.name, seed), entries


def _policy_cell(args: Tuple) -> Tuple[Tuple, RunResult, float]:
    """Worker: run one (mix, policy, seed) cell (phase 2), first seeding
    the memo with its mix's prerequisites when the prepare phase handed
    them over."""
    mix, policy, executions, warmup, config, seed, memo, key = args
    if memo:
        seed_memo(memo)
    start = time.perf_counter()
    result = run_policy_cached(
        mix,
        policy,
        executions=executions,
        warmup=warmup,
        config=config,
        seed=seed,
    )
    return key, result, time.perf_counter() - start


class WorkerPool:
    """Keeps one ``ProcessPoolExecutor`` alive across consecutive sweeps.

    Reuse is generation-based: the live pool is handed out again only
    while ``(max_workers, code-version tag, env-knob fingerprint)``
    matches the key it was spawned under.  Any mismatch — a knob flip,
    a different worker count, new simulator code — and any unhealthy
    release (timeout, ``BrokenProcessPool``) retires the pool; the next
    acquire respawns it.  Fresh workers compile span kernels on demand;
    a reused pool's workers keep the kernels they compiled.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._key: Optional[Tuple] = None

    def acquire(self, workers: int) -> Tuple[ProcessPoolExecutor, bool]:
        """A pool of ``workers`` processes; returns ``(pool, warm)``.

        ``warm`` is True when the returned pool was already alive (its
        workers carry previous sweeps' caches).  May raise whatever the
        executor constructor raises; the caller owns the fallback.
        """
        key = (workers, code_version_tag(), knob_fingerprint())
        if self._pool is not None and self._key == key:
            return self._pool, True
        self.discard()
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        self._pool = pool
        self._key = key
        return pool, False

    def release(
        self, pool: ProcessPoolExecutor, keep: bool, wait_workers: bool
    ) -> None:
        """Return a pool after a sweep.

        A healthy retained pool stays alive for the next acquire;
        anything else shuts down.  Without ``wait_workers`` (a
        timed-out worker may still be wedged on a cell) the workers are
        terminated instead of awaited.
        """
        if keep and pool is self._pool:
            return
        if pool is self._pool:
            self._pool = None
            self._key = None
        _retire(pool, wait_workers)

    def discard(self) -> None:
        """Retire the live pool immediately (tests, CLI, invalidation)."""
        pool, self._pool, self._key = self._pool, None, None
        if pool is not None:
            _retire(pool, False)


def _retire(pool: ProcessPoolExecutor, wait_workers: bool) -> None:
    """Shut ``pool`` down; without waiting, terminate its workers too.

    ``shutdown(wait=False)`` alone leaves a worker wedged on an overdue
    cell running, and the interpreter's exit hook joins the executor's
    management thread, which waits for that worker: the sweep returns
    on time, but the process cannot exit until the cell finishes.
    Python 3.11's executor has no public way to terminate its workers,
    so their processes are taken before ``shutdown`` drops them.
    """
    workers = (
        [] if wait_workers
        else list((getattr(pool, "_processes", None) or {}).values())
    )
    pool.shutdown(wait=wait_workers, cancel_futures=True)
    for process in workers:
        process.terminate()


_POOL = WorkerPool()

_LAST_SWEEP: Optional[SweepResult] = None


def shutdown_pool() -> None:
    """Retire the module's reused worker pool (if any)."""
    _POOL.discard()


def last_sweep() -> Optional[SweepResult]:
    """The most recently completed sweep (for report footers), or None."""
    return _LAST_SWEEP


def run_grid(
    mixes: Sequence[Mix],
    policies: Sequence[Policy],
    executions: Optional[int] = None,
    warmup: int = DEFAULT_WARMUP,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
) -> SweepResult:
    """Run every mix x policy (x seed) cell, in parallel when possible.

    Results are keyed by ``(mix.name, policy.name)`` — or
    ``(mix.name, policy.name, seed)`` when an explicit ``seeds`` axis
    is given — and are identical to running
    :func:`repro.experiments.harness.run_policy` serially in any order:
    per-cell RNG seeding depends only on the cell, and cells coordinate
    only through the content-addressed disk cache.

    ``executions`` defaults from ``REPRO_EXECUTIONS`` (resolved here,
    once, so every fanned-out cell sees the same value).  ``seeds``
    turns the sweep into a Monte-Carlo grid.
    """
    if executions is None:
        executions = default_executions()
    config = config or MachineConfig()
    if workers is None:
        workers = default_workers()
    workers = max(1, workers)
    seeded = seeds is not None
    seed_list = list(seeds) if seeded else [seed]
    # Mix-major, so a serial sweep meets each mix's cells back to back.
    cells = [
        (mix, policy, executions, warmup, config, cell_seed, None,
         (mix.name, policy.name) + ((cell_seed,) if seeded else ()))
        for mix in mixes for policy in policies for cell_seed in seed_list
    ]
    start = time.perf_counter()
    sweep = SweepResult(workers=workers)
    if workers > 1 and len(cells) > 1:
        lost = _run_parallel(sweep, policies, cells, workers)
        if lost is not None:
            sweep.mode = "parallel"
            _retry_lost_cells(sweep, lost)
            return _finish_sweep(sweep, start)
        # Pool never came up or broke in the prepare phase (restricted
        # platform): run serially below, keeping the cause.
        sweep = SweepResult(fallback_reason=sweep.fallback_reason)
    sweep.workers = 1
    per_mix = len(policies) * len(seed_list)
    for first in range(0, len(cells), per_mix):
        group = cells[first:first + per_mix]
        # One jitter scope per mix: its cells read each core's stream
        # as drawn once.  A lone cell draws in-kernel, which costs a
        # lone reader less than filling a tape and reading it back.
        with shared_jitter() if len(group) > 1 else nullcontext():
            for cell in group:
                _record(sweep, _policy_cell(cell))
    return _finish_sweep(sweep, start)


def _record(sweep: SweepResult, row: Tuple[Tuple, RunResult, float]) -> None:
    """Store one ``(key, result, seconds)`` cell row in the sweep."""
    key, result, spent = row
    sweep.results[key] = result
    sweep.cell_timings[key] = spent


def _finish_sweep(sweep: SweepResult, start: float) -> SweepResult:
    """Stamp the sweep's timing and publish it as the last sweep."""
    global _LAST_SWEEP
    sweep.elapsed_s = time.perf_counter() - start
    _LAST_SWEEP = sweep
    return sweep


def _retry_lost_cells(sweep: SweepResult, cells: List[Tuple]) -> None:
    """Recompute cells whose worker timed out or died, serially, once.

    Recovery is value-preserving: a cell's result depends only on its
    arguments, so recomputing it in-process yields exactly what the
    worker would have returned.  A cell that fails even here is counted
    and recorded rather than raised — the rest of the sweep is good
    data, and the caller can see exactly what is missing.
    """
    for cell in cells:
        mix, policy = cell[0], cell[1]
        try:
            row = _policy_cell(cell)
        except Exception as exc:  # surface, don't abort the sweep
            reason = "%s: %s" % (type(exc).__name__, exc)
            _log.warning("sweep cell (%s, %s) failed on serial retry: %s",
                         mix.name, policy.name, reason)
            sweep.failed += 1
            sweep.failures.append((mix.name, policy.name, reason))
            continue
        sweep.retried += 1
        _record(sweep, row)


def _run_parallel(
    sweep: SweepResult,
    policies: Sequence[Policy],
    cells: List[Tuple],
    workers: int,
) -> Optional[List[Tuple]]:
    """Execute the two-phase fan-out.

    Returns the list of *lost* cells — cells that missed their deadline
    (``REPRO_CELL_TIMEOUT_S``) or were stranded when the pool died —
    for the caller to retry serially; an empty list means a fully
    healthy parallel sweep.  Returns None when no pool could be created
    or it broke during the prepare phase, with the cause logged and
    recorded in ``sweep.fallback_reason``; the sweep is still fully
    computable in-process.
    """
    # One prepare cell per distinct (mix, seed) — with a seeds axis the
    # Baseline/partition prerequisites are per-seed too.
    prepare: Dict[Tuple, Tuple] = {}
    if any(not _is_baseline(p) for p in policies):
        for mix, _policy, executions, warmup, config, seed, _, _ in cells:
            prepare.setdefault(
                (mix.name, seed),
                (mix, tuple(policies), executions, warmup, config, seed),
            )
    # The pool keeps its full width whatever the sweep's size, so the
    # generation key (and the forked workers) stay stable across sweeps.
    try:
        pool, warm = _POOL.acquire(workers)
    except (OSError, RuntimeError) as exc:
        _fall_back(sweep, exc)
        return None
    sweep.warm_starts = 1 if warm else 0
    dispatch = _Dispatch(workers, env_cell_timeout_s())
    broken: Optional[BaseException] = None
    try:
        try:
            prepared, _, broken = dispatch.run(
                lambda args: pool.submit(_prepare_cell, args),
                list(prepare.values()),
            )
        except (OSError, RuntimeError) as exc:
            # No fork/spawn, no semaphores, or a prepare cell failed:
            # nothing collected yet, recompute serially.
            broken = exc
        if broken is not None:
            _fall_back(sweep, broken)
            return None
        # Each policy cell carries its mix's prerequisites (a prepare
        # cell that timed out hands over none).
        memos = dict(prepared)
        cells = [
            (mix, policy, executions, warmup, config, seed,
             memos.get((mix.name, seed)), key)
            for mix, policy, executions, warmup, config, seed, _, key
            in cells
        ]
        rows, lost, broken = dispatch.run(
            lambda cell: pool.submit(_policy_cell, cell), cells
        )
        if broken is not None:
            _log.warning("worker pool died mid-sweep (%s); retrying the "
                         "remaining cells serially", broken)
        for row in rows:
            _record(sweep, row)
        return lost
    finally:
        # A healthy pool is retained for the next sweep; a timed-out
        # worker may still be running, so terminate it rather than
        # letting shutdown block result delivery on its completion.
        _POOL.release(
            pool,
            keep=not (dispatch.timed_out or broken is not None),
            wait_workers=not dispatch.timed_out,
        )


class _Dispatch:
    """The sweep's one dispatch rule, shared by both phases.

    Each cell is one pool task.  At most ``workers`` tasks are in
    flight, and the next cell is submitted as one completes.  With a
    ``timeout_s`` every task has a deadline counted from its
    submission: an overdue task is cancelled and *lost*.  A worker still
    wedged on an overdue task keeps its slot until it finishes, so no
    cell queues behind it, in this phase or the next; once every slot
    is wedged, or the pool breaks, the cells not yet collected are lost
    too.
    """

    def __init__(self, workers: int, timeout_s: Optional[float]) -> None:
        self.workers = workers
        self.timeout_s = timeout_s
        self.timed_out = False
        self._wedged: Set[Future] = set()

    def run(
        self, submit: Callable[[Tuple], Future], tasks: List[Tuple]
    ) -> Tuple[List, List[Tuple], Optional[BrokenProcessPool]]:
        """Run ``tasks`` through ``submit``.

        Returns ``(results, lost, broken)``: the collected return
        values in completion order, the lost tasks, and the
        ``BrokenProcessPool`` that ended the loop early (or None).
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        results: List = []
        lost: List[Tuple] = []
        inflight: Dict[Future, Tuple[Tuple, Optional[float]]] = {}
        submitted = 0
        broken = None
        try:
            while True:
                self._wedged = {f for f in self._wedged if not f.done()}
                while (submitted < len(tasks) and len(inflight)
                       + len(self._wedged) < self.workers):
                    task = tasks[submitted]
                    deadline = (None if self.timeout_s is None
                                else time.monotonic() + self.timeout_s)
                    inflight[submit(task)] = (task, deadline)
                    submitted += 1
                if not inflight:
                    break
                budget = None
                if self.timeout_s is not None:
                    budget = max(0.0, min(
                        deadline for _, deadline in inflight.values()
                    ) - time.monotonic())
                done, _ = wait(list(inflight) + list(self._wedged),
                               timeout=budget, return_when=FIRST_COMPLETED)
                for future in done:
                    if future in inflight:
                        results.append(future.result())
                        del inflight[future]
                now = time.monotonic()
                for future, (task, deadline) in list(inflight.items()):
                    if deadline is None or deadline > now:
                        continue
                    _log.warning("sweep cell of mix %s exceeded the %.1fs "
                                 "budget (%s)", task[0].name,
                                 self.timeout_s, ENV_CELL_TIMEOUT_S)
                    self.timed_out = True
                    del inflight[future]
                    lost.append(task)
                    if not future.cancel():
                        self._wedged.add(future)
        except BrokenProcessPool as exc:
            broken = exc
        for future, (task, _) in inflight.items():
            future.cancel()
            lost.append(task)
        return results, lost + tasks[submitted:], broken


def _fall_back(sweep: SweepResult, exc: BaseException) -> None:
    """Record a whole-sweep serial fallback and discard partial state."""
    reason = "%s: %s" % (type(exc).__name__, exc)
    _log.warning("parallel sweep unavailable (%s); running serially",
                 reason)
    sweep.fallback_reason = reason
    sweep.results.clear()
    sweep.cell_timings.clear()


def _is_baseline(policy: Policy) -> bool:
    return (
        not policy.uses_runtime
        and not policy.static_partition
        and policy.static_bg_grade is None
        and policy.static_fg_grade is None
    )
