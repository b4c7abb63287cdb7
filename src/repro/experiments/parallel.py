"""Parallel sweep engine: fan mix x policy x seed cells across processes.

Figure drivers are embarrassingly parallel at the cell level — every
(mix, policy, executions, seed) run is an independent simulation — but
cells share expensive prerequisites: the mix's Baseline run (deadlines),
its static-partition sweep, and the FG benchmark's offline profile.  The
engine therefore schedules in two phases:

1. **Prepare**: one cell per mix computes the shared prerequisites and
   publishes them through the persistent disk cache
   (:mod:`repro.experiments.diskcache`).
2. **Policy cells**: all (mix, policy) cells fan out; each worker reads
   the warm prerequisites from disk and stores its result there too.

Workers communicate exclusively through the content-addressed disk
cache, so results are *identical* to a serial sweep: every cell derives
its RNG streams from ``(config.seed, mix.name, seed)`` alone, never
from worker identity or scheduling order
(``tests/experiments/test_parallel.py`` asserts equality).

Worker count comes from, in order: the ``workers`` argument,
:func:`set_default_workers` (the CLI's ``--workers``), the
``REPRO_WORKERS`` environment variable, then ``os.cpu_count()``.  Any
failure to stand up the process pool degrades to the serial path.

Policy cells are dispatched **lane-packed**: instead of one cell per
pool task, each task carries a pack of K cells grouped by mix, so a
worker that has warmed a mix's prerequisites (profile, baseline,
partition — all memoized in-process by :mod:`repro.experiments.harness`)
runs that mix's remaining policies against its warm in-memory caches
rather than re-deserializing them from the disk cache per cell.  Packing
changes scheduling only, never results.  ``REPRO_PACK_CELLS`` overrides
the per-pack cell cap.

With ``seeds`` the grid grows a Monte-Carlo axis — every
(mix, policy, seed) combination is a cell, still packed by mix.

The engine degrades rather than dies: a pool that cannot be created (or
collapses during the prepare phase) falls back to the serial path with
the cause logged and recorded in :attr:`SweepResult.fallback_reason`;
with ``REPRO_CELL_TIMEOUT_S`` set, a pack whose worker exceeds the
per-cell budget — or is stranded by a dying pool — is *lost* and its
cells are recomputed serially once (:attr:`SweepResult.retried`), with
unrecoverable cells counted in :attr:`SweepResult.failed` instead of
aborting the sweep.  Lost-cell recovery cannot change values: every
cell's result depends only on its arguments, never on where it ran.

**Warm workers.** Repeated small sweeps (policy tournaments, fleet
grids) would pay a fresh pool on every call.  Two mechanisms keep the
workers busy instead, both result-neutral:

* **Pool reuse**: a module-level :class:`WorkerPool` keeps the executor
  alive across consecutive :func:`run_grid` calls, and with it each
  worker's in-process caches (compiled span kernels, profiles,
  baselines).  The pool's generation key folds in the worker count,
  the code-version tag, and a fingerprint of every declared env knob;
  any change — or a broken/timed-out pool — retires the workers and
  respawns.
* **Work stealing**: packs are seeded one per worker and the remainder
  drained from a deque as futures complete, with the largest remaining
  pack split in two when workers idle — a straggler pack no longer
  bounds wall-clock.
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.policies import Policy
from repro.experiments.diskcache import code_version_tag
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
    ENV_PACK_CELLS,
    MachineConfig,
    default_executions,
    env_cell_timeout_s,
    env_pack_cells,
    env_workers,
    knob_fingerprint,
)

_log = logging.getLogger(__name__)

_default_workers: Optional[int] = None

__all__ = ["ENV_PACK_CELLS", "SweepResult", "default_workers", "last_sweep",
           "run_grid", "set_default_workers", "shutdown_pool"]


def set_default_workers(workers: int) -> None:
    """Set the process-wide default worker count (CLI ``--workers``)."""
    global _default_workers
    _default_workers = max(1, workers)


def default_workers() -> int:
    """Resolve the worker count: override, REPRO_WORKERS, CPU count."""
    if _default_workers is not None:
        return _default_workers
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
        pack_sizes: Cells carried by each pool task (parallel mode only;
            empty for serial sweeps).
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
        steals: Packs dispatched on demand after the initial one-per-
            worker seeding.
        packs_split: Packs split in two because workers were idle with
            too few packs queued.
    """

    results: Dict[Tuple, RunResult] = field(default_factory=dict)
    cell_timings: Dict[Tuple, float] = field(default_factory=dict)
    workers: int = 1
    mode: str = "serial"
    elapsed_s: float = 0.0
    pack_sizes: List[int] = field(default_factory=list)
    retried: int = 0
    failed: int = 0
    failures: List[Tuple[str, str, str]] = field(default_factory=list)
    fallback_reason: Optional[str] = None
    warm_starts: int = 0
    steals: int = 0
    packs_split: int = 0

    def get(
        self, mix: Mix, policy: Policy, seed: Optional[int] = None
    ) -> RunResult:
        """The cached cell for ``(mix, policy)`` (or one of its seeds)."""
        if seed is None:
            return self.results[(mix.name, policy.name)]
        return self.results[(mix.name, policy.name, seed)]


def _prepare_cell(args: Tuple) -> None:
    """Worker: compute a mix's shared prerequisites (phase 1)."""
    mix, policies, executions, warmup, config, seed = args
    measure_baseline(
        mix, executions=executions, warmup=warmup, config=config, seed=seed
    )
    if any(p.static_partition for p in policies):
        find_static_partition(mix, config=config, seed=seed)
    if any(p.uses_runtime for p in policies):
        get_profile(mix.fg_name, config)


def _policy_cell(args: Tuple) -> Tuple[Tuple, RunResult, float]:
    """Worker: run one (mix, policy, seed) cell (phase 2)."""
    mix, policy, executions, warmup, config, seed, key = args
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


def _run_pack(pack: List[Tuple]) -> List[Tuple[Tuple, RunResult, float]]:
    """Worker: run a lane pack of cells back to back.

    Cells in a pack share a mix, so after the first cell the worker's
    in-process caches hold the mix's profile, baseline, and partition;
    the remaining cells skip the disk-cache round trips entirely.
    Each cell's result is byte-identical to unpacked dispatch and lands
    in the same disk-cache entry.
    """
    return [_policy_cell(cell) for cell in pack]


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
        pool = ProcessPoolExecutor(max_workers=workers)
        self._pool = pool
        self._key = key
        return pool, False

    def release(
        self, pool: ProcessPoolExecutor, keep: bool, wait_workers: bool
    ) -> None:
        """Return a pool after a sweep.

        A healthy retained pool stays alive for the next acquire;
        anything else shuts down (without waiting when a timed-out
        worker may still be wedged on a pack).
        """
        if keep and pool is self._pool:
            return
        if pool is self._pool:
            self._pool = None
            self._key = None
        pool.shutdown(wait=wait_workers, cancel_futures=True)

    def discard(self) -> None:
        """Retire the live pool immediately (tests, CLI, invalidation)."""
        pool, self._pool, self._key = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


_POOL = WorkerPool()

_LAST_SWEEP: Optional[SweepResult] = None


def shutdown_pool() -> None:
    """Retire the module's reused worker pool (if any)."""
    _POOL.discard()


def last_sweep() -> Optional[SweepResult]:
    """The most recently completed sweep (for report footers), or None."""
    return _LAST_SWEEP


def _pack_cells(cells: List[Tuple], workers: int) -> List[List[Tuple]]:
    """Group cells into per-mix packs of at most K cells.

    K defaults to an even split of the grid over the workers (so packing
    never *reduces* parallelism when there are spare workers) and can be
    pinned with ``REPRO_PACK_CELLS``.
    """
    cap = env_pack_cells() or 0
    if cap < 1:
        cap = max(1, -(-len(cells) // max(1, workers)))
    by_mix: Dict[str, List[Tuple]] = {}
    for cell in cells:
        by_mix.setdefault(cell[0].name, []).append(cell)
    packs: List[List[Tuple]] = []
    for group in by_mix.values():
        for index in range(0, len(group), cap):
            packs.append(group[index:index + cap])
    return packs


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
    cells = []
    for mix in mixes:
        for policy in policies:
            for cell_seed in seed_list:
                key = (
                    (mix.name, policy.name, cell_seed) if seeded
                    else (mix.name, policy.name)
                )
                cells.append(
                    (mix, policy, executions, warmup, config, cell_seed,
                     key)
                )
    start = time.perf_counter()
    sweep = SweepResult(workers=workers)
    if workers > 1 and len(cells) > 1:
        lost = _run_parallel(sweep, mixes, policies, cells, workers)
        if lost is not None:
            sweep.mode = "parallel"
            _retry_lost_cells(sweep, lost)
            return _finish_sweep(sweep, start)
        # Pool never came up or died in the prepare phase (restricted
        # platform): run serially below, keeping the cause.
        sweep = SweepResult(workers=1,
                            fallback_reason=sweep.fallback_reason)
    sweep.mode = "serial"
    sweep.workers = 1
    for pack in _pack_cells(cells, 1):
        for key, result, spent in _run_pack(pack):
            sweep.results[key] = result
            sweep.cell_timings[key] = spent
    return _finish_sweep(sweep, start)


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
            key, result, spent = _policy_cell(cell)
        except Exception as exc:  # surface, don't abort the sweep
            reason = "%s: %s" % (type(exc).__name__, exc)
            _log.warning("sweep cell (%s, %s) failed on serial retry: %s",
                         mix.name, policy.name, reason)
            sweep.failed += 1
            sweep.failures.append((mix.name, policy.name, reason))
            continue
        sweep.retried += 1
        sweep.results[key] = result
        sweep.cell_timings[key] = spent


def _run_parallel(
    sweep: SweepResult,
    mixes: Sequence[Mix],
    policies: Sequence[Policy],
    cells: List[Tuple],
    workers: int,
) -> Optional[List[Tuple]]:
    """Execute the two-phase fan-out.

    Returns the list of *lost* cells — cells whose pack timed out
    (``REPRO_CELL_TIMEOUT_S``) or was stranded when the pool died —
    for the caller to retry serially; an empty list means a fully
    healthy parallel sweep.  Returns None when no pool could be created
    or it collapsed during the prepare phase, with the cause logged and
    recorded in ``sweep.fallback_reason``; the sweep is still fully
    computable in-process.
    """
    executions, warmup, config = cells[0][2:5]
    needs_prepare = any(not _is_baseline(p) for p in policies)
    # One prepare cell per distinct (mix, seed) — with a seeds axis the
    # Baseline/partition prerequisites are per-seed too.
    seen_prepare = set()
    prepare_args = []
    for cell in cells:
        pair = (cell[0].name, cell[5])
        if pair not in seen_prepare:
            seen_prepare.add(pair)
            prepare_args.append(
                (cell[0], tuple(policies), executions, warmup, config,
                 cell[5])
            )
    packs = _pack_cells(cells, workers)
    timeout_s = env_cell_timeout_s()
    # The pool keeps its full width whatever the sweep's size, so the
    # generation key (and the forked workers) stay stable across sweeps.
    try:
        pool, warm = _POOL.acquire(workers)
    except (OSError, RuntimeError, PermissionError) as exc:
        _fall_back(sweep, exc)
        return None
    sweep.warm_starts = 1 if warm else 0
    timed_out = False
    pool_broken = False
    try:
        try:
            if needs_prepare and len(mixes) > 0:
                chunk = _chunksize(len(prepare_args), workers)
                for _ in pool.map(
                    _prepare_cell, prepare_args, chunksize=chunk
                ):
                    pass
        except (OSError, BrokenProcessPool, RuntimeError,
                PermissionError) as exc:
            # No fork/spawn, no semaphores, or the pool died during the
            # prepare phase: nothing collected yet, recompute serially.
            pool_broken = True
            _fall_back(sweep, exc)
            return None
        lost, timed_out, pool_broken = _dispatch_stealing(
            sweep, pool, packs, timeout_s, workers
        )
        return lost
    finally:
        # A healthy pool is retained for the next sweep; a timed-out
        # worker may still be running, so abandon it rather than
        # letting shutdown block result delivery on its completion.
        _POOL.release(
            pool,
            keep=not (timed_out or pool_broken),
            wait_workers=not timed_out,
        )


def _dispatch_stealing(
    sweep: SweepResult,
    pool: ProcessPoolExecutor,
    packs: List[List[Tuple]],
    timeout_s: Optional[float],
    workers: int,
) -> Tuple[List[Tuple], bool, bool]:
    """Adaptive dispatch: seed one pack per worker, steal the rest.

    The remaining packs wait in a largest-first deque and are handed
    out as futures complete; when idle capacity exceeds the queue
    length the largest queued pack is split in two.  Which worker runs
    a pack — and how packs are split — changes scheduling only: every
    cell's result depends on its arguments alone (pinned by the
    warm-pool determinism suite).

    Per-pack deadlines (``REPRO_CELL_TIMEOUT_S``) run from submission;
    an expired pack is cancelled and its cells lost for the serial
    retry.  Returns ``(lost, timed_out, pool_broken)``.
    """
    queue: Deque[List[Tuple]] = deque(
        sorted(packs, key=len, reverse=True)
    )
    while len(queue) < workers and _split_largest(sweep, queue):
        pass
    inflight: Dict[object, Tuple[List[Tuple], Optional[float]]] = {}
    lost: List[Tuple] = []
    timed_out = False
    pool_broken = False
    seeded = 0
    try:
        while queue and seeded < workers:
            _submit_pack(sweep, pool, queue, inflight, timeout_s)
            seeded += 1
    except BrokenProcessPool as exc:
        _log.warning(
            "worker pool died mid-sweep (%s); retrying the remaining "
            "cells serially", exc,
        )
        pool_broken = True
    while inflight and not pool_broken:
        if timeout_s is not None:
            now = time.monotonic()
            budget = max(
                0.0,
                min(d for _, d in inflight.values() if d is not None)
                - now,
            )
        else:
            budget = None
        done, _pending = wait(
            list(inflight), timeout=budget,
            return_when=FIRST_COMPLETED,
        )
        if not done:
            # The wait expired: cancel every overdue pack and keep
            # collecting the rest.
            now = time.monotonic()
            overdue = [
                future for future, (_pack, deadline) in inflight.items()
                if deadline is not None and deadline <= now
            ]
            for future in overdue:
                pack, _deadline = inflight.pop(future)
                _log.warning(
                    "sweep pack of %d cells exceeded the %.1fs/cell "
                    "budget (%s); retrying its cells serially",
                    len(pack), timeout_s, ENV_CELL_TIMEOUT_S,
                )
                timed_out = True
                future.cancel()
                lost.extend(pack)
            continue
        for future in done:
            pack, _deadline = inflight.pop(future)
            try:
                rows = future.result()
            except BrokenProcessPool as exc:
                _log.warning(
                    "worker pool died mid-sweep (%s); retrying the "
                    "remaining cells serially", exc,
                )
                pool_broken = True
                lost.extend(pack)
                continue
            for key, result, spent in rows:
                sweep.results[key] = result
                sweep.cell_timings[key] = spent
        if pool_broken:
            break
        idle = workers - len(inflight)
        while queue and len(queue) < idle and _split_largest(sweep, queue):
            pass
        try:
            while queue and len(inflight) < workers:
                _submit_pack(sweep, pool, queue, inflight, timeout_s)
                sweep.steals += 1
        except BrokenProcessPool as exc:
            _log.warning(
                "worker pool died mid-sweep (%s); retrying the "
                "remaining cells serially", exc,
            )
            pool_broken = True
    if pool_broken:
        for future, (pack, _deadline) in inflight.items():
            future.cancel()
            lost.extend(pack)
        inflight.clear()
    # Packs never dispatched (the pool died, or every worker wedged on
    # a timed-out pack) fall through to the serial retry.
    for pack in queue:
        lost.extend(pack)
    return lost, timed_out, pool_broken


def _submit_pack(
    sweep: SweepResult,
    pool: ProcessPoolExecutor,
    queue: Deque[List[Tuple]],
    inflight: Dict[object, Tuple[List[Tuple], Optional[float]]],
    timeout_s: Optional[float],
) -> None:
    """Dispatch the next queued pack; on submit failure re-queue it."""
    pack = queue.popleft()
    try:
        future = pool.submit(_run_pack, pack)
    except BrokenProcessPool:
        queue.appendleft(pack)
        raise
    deadline = (
        time.monotonic() + timeout_s * len(pack)
        if timeout_s is not None else None
    )
    inflight[future] = (pack, deadline)
    sweep.pack_sizes.append(len(pack))


def _split_largest(
    sweep: SweepResult, queue: Deque[List[Tuple]]
) -> bool:
    """Split the largest queued pack at its midpoint; False when none
    can split."""
    if not queue:
        return False
    index = max(range(len(queue)), key=lambda i: len(queue[i]))
    pack = queue[index]
    if len(pack) < 2:
        return False
    half = len(pack) // 2
    del queue[index]
    queue.append(pack[:half])
    queue.append(pack[half:])
    sweep.packs_split += 1
    return True


def _fall_back(sweep: SweepResult, exc: BaseException) -> None:
    """Record a whole-sweep serial fallback and discard partial state."""
    reason = "%s: %s" % (type(exc).__name__, exc)
    _log.warning("parallel sweep unavailable (%s); running serially",
                 reason)
    sweep.fallback_reason = reason
    sweep.results.clear()
    sweep.cell_timings.clear()
    sweep.pack_sizes = []


def _is_baseline(policy: Policy) -> bool:
    return (
        not policy.uses_runtime
        and not policy.static_partition
        and policy.static_bg_grade is None
        and policy.static_fg_grade is None
    )


def _chunksize(items: int, workers: int) -> int:
    """Batch cells so pool IPC overhead amortizes over several cells."""
    return max(1, items // (workers * 4))
