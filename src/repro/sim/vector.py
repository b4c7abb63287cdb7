"""Multi-cell structure-of-arrays driver for the vector backend.

The span machinery made a *single* machine fast; every sweep cell,
Monte-Carlo seed, and fleet node still pays one Python-level simulation
loop each.  This module fuses *across* simulations: a
:class:`MultiCell` holds N independent machines ("cells") and advances
all cells whose model state agrees in one cell-axis kernel call
(:func:`repro.sim.spanplan.compile_cell_kernel`).

**What can fuse.**  Cells whose *shared* model inputs are bit-identical
— per-lane phase constants, per-lane frequencies, cache occupancy, rho,
cache grouping, and the machine-level model parameters — and that carry
no per-cell entropy sources (OS jitter, energy accounting, stolen
overhead time).  Their *per-cell* state is exactly the accumulation
side: counters, progress, execution misses, noise-drawn completion
targets, and the wall clock (cells may sit at different absolute
ticks).  Because every per-tick model quantity is a pure function of
the shared state, the fused kernel computes it once in scalar Python
floats and applies the resulting increments to all cells with one
broadcast float64 array addition — IEEE-identical to each cell adding
alone, so the fused path is bit-exact against the scalar reference.

**Horizons come from trips, not estimates.**  The cell kernels
*detect* divergence exactly — a phase-boundary guard or an FG
completion trips the kernel before the divergent tick is applied — so
a fused span only needs the machine's exact discrete-event horizon
(:func:`repro.sim.batch.event_horizon`: timer deadlines, DVFS
transitions) and can otherwise run to the tick budget.  Unlike the
per-machine span kernels, they do not take a sampler's wakeups
in-kernel: every timer deadline ends a fused span.  Trips peel
*partially*: only the tripped cells are committed
(at the exact tick they diverged) and evicted, while the surviving
cells keep fusing over the remaining budget — the shared trajectory
is a pure function of the shared state, never of the member set, so
the continuation is bit-exact.  A completion-tripped cell replays the
divergent tick through the scalar reference kernel (``Machine.tick``
— what the batch engine would have executed, bit-identically) and
rejoins a fused group once its shared state re-coincides: rho and the
occupancy filter converge to exact float fixed points, so cells that
took the same model path regroup.

**Plan reuse.**  Cell plans are keyed by the structural fingerprint
plus a power-of-two cell-axis width; the per-cell columns are gathered
fresh each span, so the same plan (and its miss-curve/fixed-point
memos) serves any group of matching cells regardless of membership.
Padding columns carry ``inf`` guard bounds and targets — they can
never trip — and their accumulator garbage is never read back.

**Without numpy** (an optional dependency) the fused kernels stay off
and every cell advances through its own batch engine — the pure-Python
fallback is the peel-off path applied to everything, so results are
identical either way; only the throughput changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.batch import event_horizon
from repro.sim.config import env_vector_cells
from repro.sim.perf import FIXED_POINT_ITERATIONS as _FIXED_POINT_ITERATIONS
from repro.sim.process import STATE_RUNNING
from repro.sim.spanplan import (
    MAX_MEMO,
    MAX_PLANS,
    SpanStats,
    compile_cell_kernel,
)

try:  # numpy is optional: the driver degrades to per-machine engines.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    _np = None

__all__ = ["CELL_COLUMNS", "CellPlan", "MultiCell", "numpy_available"]

_INF = float("inf")

#: Machine-readable registry of the scalar hot-state surface this
#: backend mirrors: every attribute (or ``process.<member>`` entry, or
#: ``<name>()`` state-advancing callable) that ``Machine.tick`` mutates,
#: mapped to *how* the multi-cell driver accounts for it — a fused
#: column scattered back by ``_commit_cell``, a commit-time write, or a
#: deliberate peel to the per-machine batch engine (which runs the
#: scalar reference bit-identically).  ``repro lint``'s ``COV001``
#: cross-checks this registry against an AST def-use extraction of the
#: scalar kernel in both directions: a hot-state mutation missing here
#: is a silent-corruption risk (the fused path would drop it), and an
#: entry with no scalar counterpart is stale documentation.  Keys
#: follow the extraction's naming: plain machine attributes
#: (``_rho``), per-process members (``process.progress``), mutating
#: method calls on processes (``process.advance()``), and
#: state-advancing callable attributes (``_cache_tick()``).
CELL_COLUMNS = {
    "_cnt_arrays": "state rows CI/CC/CA/CM, scattered by _commit_cell",
    "process.progress": "state row P, scattered by _commit_cell",
    "process.execution_misses": "state row EM, scattered by _commit_cell",
    "process.advance()": "completion tick replays through Machine.tick",
    "process.complete_execution()": (
        "completion tick replays through Machine.tick"
    ),
    "process._sync_phase_cursor()": (
        "cursors synced while fingerprinting (_cell_state)"
    ),
    "process.current_phase()": (
        "phase constants are plan columns, re-gathered per span"
    ),
    "_ips_prev": "plan.ips_prev scattered per core by _commit_cell",
    "_rho": "committed rho written back by _commit_cell",
    "memory": "m.memory.observe(rho) on commit",
    "cache": "m.cache.span_commit(...) on commit",
    "_cache_tick()": (
        "span_commit applies the span's whole occupancy update"
    ),
    "clock": "m.clock.tick advanced by the committed span length",
    "_settled": "settle_cache() forced before fingerprinting",
    "_completion_listeners": (
        "completion ticks replay through Machine.tick, which fires them"
    ),
    "governor": "event ticks dispatched via the per-cell batch engine",
    "timers": "event ticks dispatched via the per-cell batch engine",
    "_energy": "energy-accounting cells never fuse (wholesale peel)",
    "_stolen_s": "cells with pending stolen time never fuse (peel)",
    "_gauss_fns": "jittered cells never fuse (wholesale peel)",
}


def numpy_available() -> bool:
    """Whether numpy imported (the fused cell kernels need it)."""
    return _np is not None


def _pad_width(cells: int) -> int:
    """Cell-axis allocation width: next power of two, at least 2."""
    width = 2
    while width < cells:
        width *= 2
    return width


class CellPlan:
    """Structure-of-arrays snapshot feeding one cell-axis kernel.

    The shared model constants mirror :class:`~repro.sim.spanplan.
    SpanPlan` lane for lane; the cell axis adds ``state`` — a
    ``(6n, W)`` float64 array stacking the per-lane blocks
    ``[CI; CC; CA; CM; P; EM]`` (counters, progress, misses) — the
    ``(6n, 1)`` per-tick increment column ``buf``, per-lane progress
    row views ``prows``, and per-cell FG target arrays ``tts``.
    ``prev_w`` / ``mpki_a`` / ``coef`` and the fixed-point ``memo``
    persist across spans of the same plan, exactly as span plans do.
    """

    __slots__ = (
        "kernel", "shape", "n", "width", "lane_cores", "isfg",
        "guard_lanes", "guard_bounds",
        "floor", "delta", "wscale", "sens", "freq", "fh", "cpi0",
        "apki", "prev_w", "mpki_a", "coef", "eff", "ips_prev",
        "wbuf", "tbuf", "dt", "base_ns", "scale", "rho_cap",
        "inv_peak", "alpha", "alpha_entry", "memo", "max_memo",
        "active_bits", "groups_commit", "disjoint",
        "state", "buf", "prows", "tts",
    )


class MultiCell:
    """Advances many independent machines, fusing agreeing cells.

    The driver loop mirrors ``BatchEngine.run_ticks`` per cell —
    events dispatched through the same exact timer/DVFS horizon, the
    scalar kernel as the event-tick fallback — then groups the cells
    whose state fingerprints agree and runs each group through one
    fused cell-axis kernel.  Cells that cannot fuse (jitter, energy
    accounting, stolen time, non-disjoint cache groups, or simply no
    bit-identical peer) advance through their own batch engine, and
    are re-examined for fusion at their next horizon.
    """

    def __init__(self, machines: Sequence) -> None:
        self._machines = list(machines)
        #: Fast-path observability counters (``vector_*`` fields).
        self.stats = SpanStats()
        self._plans: Dict[tuple, CellPlan] = {}

    @property
    def machines(self) -> List:
        """The driven machines, in cell-index order."""
        return list(self._machines)

    def add_cell(self, machine) -> int:
        """Adopt ``machine`` as a new cell; returns its cell index.

        The fleet control plane uses this when a failover spawns a
        replacement session mid-run: the new machine simply joins the
        cell axis and fuses (or not) by the same fingerprint rules as
        the initial cells.  Adding a cell never perturbs existing ones —
        cells share no state and are only grouped per ``run_ticks``
        call.
        """
        self._machines.append(machine)
        return len(self._machines) - 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_ticks(
        self, ticks: int, indices: Optional[Sequence[int]] = None
    ) -> None:
        """Advance every cell (or the ``indices`` subset) by ``ticks``.

        Equivalent, observable-for-observable, to calling
        ``machine.run_ticks(ticks)`` on each cell in isolation.
        """
        if ticks <= 0:
            return
        machines = self._machines
        cells = range(len(machines)) if indices is None else indices
        remaining: Dict[int, int] = {c: ticks for c in cells}
        fused_ok = _np is not None
        cap = env_vector_cells()
        if cap is not None and cap < 2:
            fused_ok = False
        while remaining:
            groups: Dict[tuple, List[int]] = {}
            horizons: Dict[int, int] = {}
            cellinfo: Dict[int, tuple] = {}
            for c in list(remaining):
                m = machines[c]
                rem = remaining[c]
                engine = m._batch_engine
                if engine is None:  # scalar-backend cell: reference loop
                    m.run_ticks(rem)
                    del remaining[c]
                    continue
                if (
                    not fused_ok
                    or m._sigma > 0.0
                    or m._energy is not None
                ):
                    # Per-cell entropy can never fuse: run wholesale.
                    engine.run_ticks(rem)
                    del remaining[c]
                    continue
                horizon = event_horizon(m, rem)
                if horizon < 1:
                    m.dispatch_events()
                    horizon = event_horizon(m, rem)
                if horizon < 1:
                    # Event work landed on this very tick: the scalar
                    # kernel is the semantic reference for it.
                    m.tick()
                    if rem <= 1:
                        del remaining[c]
                    else:
                        remaining[c] = rem - 1
                    continue
                state = self._cell_state(m)
                if state is None:
                    # Stolen time, idle cores only, or a non-disjoint
                    # grouping: advance to the engine's own horizon and
                    # re-examine for fusion afterwards.
                    self._engine_chunk(c, remaining)
                    continue
                horizons[c] = horizon
                cellinfo[c] = state
                groups.setdefault(state[0], []).append(c)

            for members in groups.values():
                parts = (
                    [members] if cap is None
                    else [members[k:k + cap]
                          for k in range(0, len(members), cap)]
                )
                for part in parts:
                    if len(part) >= 2:
                        self._run_fused(part, cellinfo, horizons,
                                        remaining)
                    else:
                        # No bit-identical peer this round: bounded
                        # advance so the cell can rejoin later.
                        self._engine_chunk(part[0], remaining)

    # ------------------------------------------------------------------
    # Horizons and per-engine advancement
    # ------------------------------------------------------------------

    def _engine_chunk(self, c: int, remaining: Dict[int, int]) -> None:
        """Advance one cell through its batch engine by one horizon."""
        m = self._machines[c]
        rem = remaining[c]
        chunk = event_horizon(m, rem)
        if chunk < 1:
            chunk = 1
        m._batch_engine.run_ticks(chunk)
        if rem <= chunk:
            del remaining[c]
        else:
            remaining[c] = rem - chunk

    # ------------------------------------------------------------------
    # Cell fingerprinting
    # ------------------------------------------------------------------

    def _cell_state(self, m) -> Optional[tuple]:
        """Fingerprint one machine, or None when it cannot fuse.

        Returns ``(group_key, struct_key, lanes, active_bits,
        grouping)``.  Two cells may share a fused span iff their
        ``group_key`` — the structural signature plus the exact float
        values of rho and the occupancy vector — compares equal; the
        per-cell quantities (counters, progress, noise-drawn targets,
        wall clock, guard bounds) are deliberately excluded because
        the kernel carries them on the cell axis.
        """
        if any(m._stolen_s):
            return None
        if not m._settled:
            m.settle_cache()
        lanes: List[tuple] = []
        for core, proc in enumerate(m._procs_by_core):
            if proc is None or proc.state != STATE_RUNNING:
                continue
            if not proc._phase_start <= proc.progress < proc._phase_end:
                proc._sync_phase_cursor()
            lanes.append((core, proc))
        if not lanes:
            return None
        active_bits = 0
        for core, proc in lanes:
            if proc._spec.phases[proc._phase_index].apki > 0:
                active_bits |= 1 << core
        grouping, disjoint = m.cache.span_grouping(active_bits)
        if not disjoint:
            return None
        config = m.config
        cache = m.cache
        snap = cache._tau <= 0
        alpha = None if snap else cache.inertia_alpha(config.tick_s)
        gov_freqs = m._gov_freqs
        lane_sig = []
        for core, proc in lanes:
            phase = proc._spec.phases[proc._phase_index]
            if proc.is_fg:
                guarded = (
                    proc._phase_index != len(proc._spec.phases) - 1
                )
            else:
                guarded = (
                    proc._phase_start > 0.0 or proc._phase_end < proc._total
                )
            lane_sig.append((
                core, proc.is_fg, guarded,
                phase.mpki_floor, phase.mpki_peak, phase.ways_scale,
                phase.mem_sensitivity, phase.base_cpi, phase.apki,
                gov_freqs[core],
            ))
        memory = m.memory
        struct = (
            config.num_cores, tuple(lane_sig), grouping, snap, alpha,
            config.tick_s, memory.base_latency_ns,
            memory.contention_scale, memory.rho_cap,
            memory.seconds_per_miss_at_peak,
        )
        group_key = (struct, m._rho, tuple(m._cache_eff))
        return group_key, struct, lanes, active_bits, grouping

    # ------------------------------------------------------------------
    # Fused spans
    # ------------------------------------------------------------------

    def _run_fused(
        self,
        members: List[int],
        cellinfo: Dict[int, tuple],
        horizons: Dict[int, int],
        remaining: Dict[int, int],
    ) -> None:
        """One fused span over ``members``, peeling only tripped cells.

        The shared model trajectory is a pure function of the shared
        state — cell membership never feeds back into it — so when a
        guard or FG completion trips a subset of cells, the survivors
        can keep fusing along the *same* trajectory.  Each tripped
        cell is committed at the exact tick it diverged, its column
        neutralized (infinite bounds: it can never trip again), and
        the kernel is recalled over the remaining budget.  The floats
        the survivors see are the ones the smaller group would have
        computed from scratch, so partial peels are bit-exact.
        """
        machines = self._machines
        stats = self.stats
        span = min(
            min(horizons[c], remaining[c]) for c in members
        )
        width = len(members)
        struct = cellinfo[members[0]][1]
        alloc = _pad_width(width)
        plan_key = (struct, alloc)
        plan = self._plans.get(plan_key)
        if plan is None:
            if len(self._plans) >= MAX_PLANS:
                self._plans.clear()
            plan = self._build_plan(members[0], cellinfo, alloc)
            self._plans[plan_key] = plan
            stats.plan_builds += 1
        else:
            stats.plan_reuses += 1

        n = plan.n
        st = plan.state
        isfg = plan.isfg
        for j, c in enumerate(members):
            m = machines[c]
            lanes = cellinfo[c][2]
            cnt_i, cnt_c, cnt_a, cnt_m = m._cnt_arrays
            for i, (core, proc) in enumerate(lanes):
                st[i, j] = cnt_i[core]
                st[n + i, j] = cnt_c[core]
                st[2 * n + i, j] = cnt_a[core]
                st[3 * n + i, j] = cnt_m[core]
                st[4 * n + i, j] = proc.progress
                st[5 * n + i, j] = proc.execution_misses
                if isfg[i]:
                    plan.tts[i][j] = proc._target_total
            for g, li in enumerate(plan.guard_lanes):
                core, proc = lanes[li]
                if proc.is_fg:
                    bound = proc._phase_end
                else:
                    progress = proc.progress
                    total = proc._total
                    offset = (
                        progress % total if progress >= total else progress
                    )
                    bound = progress - offset + proc._phase_end
                plan.guard_bounds[g][j] = bound
        if alloc > width:
            # Padding columns must never trip: infinite bounds, and
            # their accumulator garbage is never read back.
            for i in range(n):
                if isfg[i]:
                    plan.tts[i][width:] = _INF
            for bounds in plan.guard_bounds:
                bounds[width:] = _INF
        m0 = machines[members[0]]
        plan.eff[:] = m0._cache_eff

        # Kernel-recall loop.  Each round advances every still-fused
        # column until a trip evicts some subset; survivors continue
        # over the remaining budget.  A trip never applies the
        # divergent tick, so at every trip ``total`` is strictly below
        # ``span`` — every evicted cell has at least one tick left.
        total = 0
        span_left = span
        rho = m0._rho
        active = list(range(width))
        any_trip = False
        while True:
            executed, rho, stat, mh, mm, mce, trip, completed = (
                plan.kernel(span_left, rho, *plan.guard_bounds)
            )
            stats.memo_hits += mh
            stats.memo_misses += mm
            stats.misscurve_evals += mce
            # Every full-model tick resolves through the fixed-point
            # memo: a miss ran the iterations, a hit — like every
            # stationary tick — reused an already-converged rho.
            stats.rho_iterations += _FIXED_POINT_ITERATIONS * mm
            stats.rho_warm_hits += stat + mh
            if executed:
                stats.vector_ticks += executed * len(active)
                total += executed
                span_left -= executed
            if trip is None:
                break
            any_trip = True
            survivors = [j for j in active if not trip[j]]
            cont = bool(survivors) and span_left >= 1
            for j in active:
                if not trip[j]:
                    continue
                c = members[j]
                if cont:
                    stats.partial_peels += 1
                rem = remaining[c]
                if total:
                    self._commit_cell(
                        machines[c], plan, cellinfo[c][2], j, rho, total
                    )
                    rem -= total
                if completed:
                    # Replay the divergent tick through the scalar
                    # reference kernel — exactly what the batch engine
                    # would run for a one-tick span — while the rest
                    # of the group stays fused.
                    stats.vector_peels += 1
                    machines[c].tick()
                    rem -= 1
                # A phase-boundary guard trip needs no replay: the
                # next round's fingerprint resyncs the phase cursor
                # and the cell's next tick is a normal model tick —
                # under the new phase constants — so it regroups.
                if rem <= 0:
                    del remaining[c]
                else:
                    remaining[c] = rem
                # Neutralize the evicted column: infinite bounds and
                # targets can never trip, and its accumulator garbage
                # is never read back.
                for bounds in plan.guard_bounds:
                    bounds[j] = _INF
                for i in range(n):
                    if isfg[i]:
                        plan.tts[i][j] = _INF
            active = survivors
            if not cont:
                break

        if total:
            stats.vector_spans += 1
            stats.cells_per_span += width
            for j in active:
                c = members[j]
                self._commit_cell(
                    machines[c], plan, cellinfo[c][2], j, rho, total
                )
                rem = remaining[c] - total
                if rem <= 0:
                    del remaining[c]
                else:
                    remaining[c] = rem
        elif not any_trip:
            # Defensive livelock guard; a zero-tick fuse without a trip
            # mask should be impossible.
            for c in members:
                if c not in remaining:
                    continue
                machines[c].tick()
                if remaining[c] <= 1:
                    del remaining[c]
                else:
                    remaining[c] -= 1

    def _commit_cell(
        self, m, plan: CellPlan, lanes: List[tuple], j: int,
        rho: float, ticks: int,
    ) -> None:
        """Scatter column ``j`` back into machine ``m`` after ``ticks``.

        Shared state (eff, rho, the cache-commit buffers) is read from
        the plan *at the moment of the call*, so evicted cells must be
        committed immediately when they trip — before the kernel runs
        again and advances the shared trajectory past their divergence
        point.
        """
        n = plan.n
        st = plan.state
        cnt_i, cnt_c, cnt_a, cnt_m = m._cnt_arrays
        ips_prev = m._ips_prev
        for i, (core, proc) in enumerate(lanes):
            # .item() yields exact Python floats: machines stay
            # numpy-free even after a fused span.
            cnt_i[core] = st[i, j].item()
            cnt_c[core] = st[n + i, j].item()
            cnt_a[core] = st[2 * n + i, j].item()
            cnt_m[core] = st[3 * n + i, j].item()
            proc.progress = st[4 * n + i, j].item()
            proc.execution_misses = st[5 * n + i, j].item()
            ips_prev[core] = plan.ips_prev[core]
        m._cache_eff[:] = plan.eff
        m._rho = rho
        m.memory.observe(rho)
        m.cache.span_commit(
            plan.wbuf, plan.tbuf, plan.active_bits,
            plan.groups_commit, plan.disjoint, plan.alpha_entry,
        )
        m.clock.tick += ticks

    def _build_plan(
        self, cell: int, cellinfo: Dict[int, tuple], alloc: int
    ) -> CellPlan:
        """Build the CellPlan (and kernel) for one structural group.

        ``alloc`` is the padded cell-axis width; per-cell columns are
        (re)gathered on every span, so the plan serves any member set
        whose structural fingerprint matches.
        """
        m0 = self._machines[cell]
        _, _, lanes, active_bits, grouping = cellinfo[cell]
        config = m0.config
        num_cores = config.num_cores
        n = len(lanes)
        phases = [
            proc._spec.phases[proc._phase_index] for _, proc in lanes
        ]

        plan = CellPlan()
        plan.n = n
        plan.width = alloc
        plan.lane_cores = [core for core, _ in lanes]
        plan.isfg = [proc.is_fg for _, proc in lanes]
        plan.floor = [ph.mpki_floor for ph in phases]
        plan.delta = [ph.mpki_peak - ph.mpki_floor for ph in phases]
        plan.wscale = [ph.ways_scale for ph in phases]
        plan.sens = [ph.mem_sensitivity for ph in phases]
        gov_freqs = m0._gov_freqs
        plan.freq = [gov_freqs[core] for core, _ in lanes]
        plan.fh = [freq * 1e9 for freq in plan.freq]
        plan.cpi0 = [ph.base_cpi for ph in phases]
        plan.apki = [ph.apki for ph in phases]
        plan.prev_w = [-1.0] * n
        plan.mpki_a = [0.0] * n
        plan.coef = [0.0] * n
        plan.eff = [0.0] * num_cores  # refreshed per span
        plan.ips_prev = [0.0] * num_cores
        plan.wbuf = [0.0] * num_cores
        plan.tbuf = [0.0] * num_cores
        plan.dt = config.tick_s
        memory = m0.memory
        plan.base_ns = memory.base_latency_ns
        plan.scale = memory.contention_scale
        plan.rho_cap = memory.rho_cap
        plan.inv_peak = memory.seconds_per_miss_at_peak
        cache = m0.cache
        snap = cache._tau <= 0
        plan.alpha = None if snap else cache.inertia_alpha(config.tick_s)
        plan.alpha_entry = None if snap else (plan.dt, plan.alpha)
        plan.memo = {}
        plan.max_memo = MAX_MEMO
        plan.active_bits = active_bits
        plan.groups_commit = [
            (ways, list(cores_g)) for ways, cores_g in grouping
        ]
        plan.disjoint = True

        plan.state = _np.zeros((6 * n, alloc))
        plan.buf = _np.zeros((6 * n, 1))
        plan.prows = [plan.state[4 * n + i] for i in range(n)]
        plan.tts = [
            _np.zeros(alloc) if plan.isfg[i] else None for i in range(n)
        ]

        guard_lanes: List[int] = []
        for i, (core, proc) in enumerate(lanes):
            if proc.is_fg:
                if proc._phase_index != len(proc._spec.phases) - 1:
                    guard_lanes.append(i)
            elif proc._phase_start > 0.0 or proc._phase_end < proc._total:
                guard_lanes.append(i)
        plan.guard_lanes = guard_lanes
        plan.guard_bounds = [_np.zeros(alloc) for _ in guard_lanes]

        lane_index = {
            plan.lane_cores[i]: i for i in range(n) if plan.apki[i] > 0
        }
        shape = (
            "cell",
            num_cores,
            tuple(plan.lane_cores),
            tuple(plan.isfg),
            tuple(apki > 0 for apki in plan.apki),
            snap,
            tuple(
                (ways, tuple(lane_index[c] for c in cores_g))
                for ways, cores_g in grouping
            ),
            tuple(guard_lanes),
        )
        plan.shape = shape
        plan.kernel = compile_cell_kernel(
            shape, plan, self.stats, _np.any, _np.min
        )
        return plan
