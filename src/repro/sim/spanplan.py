"""Span-compiled kernels: the batch engine's one span path.

The batch engine (:mod:`repro.sim.batch`) advances a machine to its
next event in one span.  A span written as an interpreted loop would
still pay ``for i in range(n)`` dispatch, list indexing, and per-tick
method calls (``rng.gauss``, ``SharedCache.tick_update``) for every
tick; on the contended shapes every Dirigent figure simulates (1 FG +
5 BG, jitter on) that overhead dominates.  This module compiles each
*span shape* into a specialized kernel instead:

* **Span plan** — when a span opens, the gathered per-core state is
  frozen into a structure-of-arrays plan (one lane per running process)
  holding the per-lane model constants, the cache grouping, and the
  persistent per-lane miss-curve state.  Plans are cached by a value
  signature (pid, spec epoch, phase index, frequency per lane, plus the
  cache-mask epoch), so back-to-back spans over the same machine state
  skip the gather entirely and only pay a cheap revalidation.
* **Shape-specialized kernels** — for each distinct shape (lane count,
  jitter on/off, FG/BG roles, cache grouping, energy on/off,
  snap-vs-inertia occupancy) a Python kernel is *generated and
  ``exec``-compiled* with every lane unrolled into locals: no lists, no
  indexing, no per-tick attribute lookups.  Which cores the lanes run
  on and how many LLC ways each cache group holds are plan constants,
  so one kernel serves every core placement and partition size.  The
  OS-jitter draw inlines CPython's ``random.Random.gauss`` (same
  algorithm, same RNG stream, same draw order), and the cache
  target/inertia update inlines ``SharedCache.tick_update`` for the
  span-constant grouping.
* **Exact-input memoization** — the rho fixed point is a pure function
  of ``(rho, mpki_0..mpki_{n-1})`` once the span constants are fixed;
  jitter-free kernels memoize its outputs per plan, keyed on those
  exact float inputs, so a revisited input tuple replays bit-identical
  outputs without re-running the iterations.  This per-plan memo is
  the simulator's one solver memo.  Together with the per-lane
  ``prev_w`` guard (only lanes whose occupancy moved re-evaluate their
  miss curve — per-core partial recompute), it extends the kernels'
  whole-machine stationary loop to per-core stationarity.
* **Clone-lane tabulation (dedup kernels)** — contended mixes run the
  same BG spec on several cores, and at sigma 0 those lanes are exact
  clones: identical phase constants, frequency, cache group, and (by
  induction from a validated span entry) identical occupancy, so every
  per-tick solver quantity — miss curve, fixed-point term, increments,
  cache target — is bit-equal across them.  For jitter-free plans with
  clone lanes a second kernel is compiled whose shape maps each lane
  to its *class representative*: the solver runs once per class
  and every clone reuses the representative's exact values, while
  per-lane state (progress, counters, guards, completions) keeps its
  own left-associated accumulation so results stay bit-identical.
  ``SpanPlan.run`` routes to the dedup kernel only after revalidating
  that the clone lanes' occupancy and miss-curve state still compare
  bit-equal.
* **In-kernel sampler wakeups** — every span kernel can take the
  sample-only wakeups of a sampler attached with
  :meth:`repro.sim.machine.Machine.attach_sampler` (the Dirigent
  runtime) without ending the span: it buffers the FG counters,
  charges the wakeup's overhead through the next segment's peeled
  tick, and redraws the timer; :meth:`SpanPlan.run` requeues the timer
  and replays the buffered samples through the sampler.

**Bit-exactness.**  Every generated kernel performs the same
floating-point operations in the same order as ``Machine.tick``:
sequential lane order, left-associated accumulations, identical
operator shapes.  Where a specialization drops an operation it is one
with a provably identity result (``x * 1.0`` for the jitter factor at
sigma 0, ``0.0 + x`` for the first fixed-point summand).  Memo hits
replay stored outputs of the identical pure computation.  The
equivalence suite (``tests/sim/test_batch_equivalence.py`` and
``tests/sim/test_spanplan.py``) pins all of this against the scalar
reference.

The planner declines three shapes: no running task, overlapping
cache-mask groups, and a jitter RNG that is not ``random.Random``.
The batch engine runs those one ``Machine.tick`` at a time.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.sim.perf import (
    FIXED_POINT_ITERATIONS as _FIXED_POINT_ITERATIONS,
    MPKI_SCALE,
)
from repro.sim.process import STATE_RUNNING

__all__ = [
    "SpanPlan", "SpanPlanner", "SpanStats", "generate_kernel_source",
    "kernel_cache_stats", "template_shapes",
]

#: Cap on cached plans per engine; machine states cycle through a
#: working set of phase combinations x frequency grades, which on
#: contended multi-phase mixes exceeds 64 (the benchmark's contended
#: section used to thrash at exactly 64 rebuilds), so this is sized to
#: hold the full cross product of a six-lane mix.
MAX_PLANS = 256

#: Cap on fixed-point memo entries per plan.
MAX_MEMO = 4096

#: CPython's ``random.gauss`` angle scale (``2*pi``); bound once so the
#: generated kernels and the interpreter use the very same constant.
TWO_PI = 2.0 * math.pi


class SpanStats:
    """Fast-path observability counters (one instance per engine).

    Attributes mirror the benchmark's ``fast_path`` block:

    * ``spans``: spans the batch engine ran in compiled kernels;
    * ``compiled_ticks``: ticks executed by compiled kernels;
    * ``stationary_ticks``: ticks that skipped the model entirely;
    * ``memo_hits`` / ``memo_misses``: fixed-point memo lookups;
    * ``misscurve_evals``: per-lane miss-curve re-evaluations (the
      per-core partial recomputes; lanes whose occupancy did not move
      skip this);
    * ``plan_builds`` / ``plan_reuses``: span-plan cache behavior;
    * ``kernels_compiled``: distinct span shapes compiled to code;
    * ``rho_iterations``: fixed-point iterations run by compiled
      kernels (cold-solved ticks times the unrolled iteration count;
      warm ticks contribute nothing);
    * ``rho_warm_hits``: compiled ticks whose rho came from a warm
      source — the stationary fast path or an exact-input memo hit —
      instead of re-running the fixed point;
    * ``table_hits``: solver evaluations served from an exact table
      instead of recomputed — clone lanes reusing their class
      representative's per-tick solve in dedup kernels;
    * ``table_builds``: exact solver tables built — clone classes a
      dedup kernel was compiled for;
    * ``kernel_wakeups``: an attached sampler's sample-only wakeups the
      span kernels took themselves (buffered, then replayed through
      the sampler) instead of ending a span to fire them as timers.
    """

    __slots__ = (
        "spans",
        "compiled_ticks",
        "stationary_ticks",
        "memo_hits",
        "memo_misses",
        "misscurve_evals",
        "plan_builds",
        "plan_reuses",
        "kernels_compiled",
        "rho_iterations",
        "rho_warm_hits",
        "table_hits",
        "table_builds",
        "kernel_wakeups",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (benchmark/JSON surface)."""
        return {name: getattr(self, name) for name in self.__slots__}


# ----------------------------------------------------------------------
# Kernel code generation
# ----------------------------------------------------------------------
#
# A *shape* is everything the generated code depends on structurally:
#
#   (num_cores, isfg, apki_pos, jitter, snap, groups, has_energy, classes)
#
# with ``groups`` the cache grouping in lane indices, and ``classes``
# the lane -> class-representative map for the clone-lane dedup kernels
# (``tuple(range(n))`` — every lane its own representative — for the
# plain kernels).  All constants stay *outside* the shape — they are
# bound by the per-plan factory — so kernels are shared across plans
# that differ only in model constants (frequencies, phase parameters),
# in which cores the lanes run on (the ``k_<slot>`` core indices: lane
# slots first, then the idle cores in core order), or in the groups'
# way counts (``wy_<group>``).  Neither which lanes can cross a phase
# boundary nor whether overhead is pending is part of the shape: every
# lane takes a guard bound (``inf`` when it cannot cross one) and every
# kernel peels its first tick to charge pending overhead, so both vary
# per span without multiplying the compiled kernels.

#: Compiled code per shape, per process: each sweep worker compiles on
#: demand, and a reused pool's workers keep theirs across sweeps.
_KERNEL_CODE_CACHE: Dict[tuple, object] = {}


def kernel_cache_stats() -> Dict[str, int]:
    """Counters of a persistent kernel store: always empty.

    Span kernels are generated and compiled in-process only.  The only
    caller is ``perfbench/child.py``, which folds these counters into
    its per-layer snapshot; it reads none.
    """
    return {}


def _generate_source(shape: tuple) -> str:
    """Generate the ``_factory``/``run`` source for one span shape.

    The emitted ``run`` performs, tick by tick, exactly the float
    operations of the scalar reference (see the per-section comments in
    :meth:`repro.sim.machine.Machine.tick`), with each lane unrolled
    into locals.

    The signature is ``run(span, rho, now, wk, nw, pt, pc, ov, g_0,
    ...)``.  The kernel may take an attached sampler's wakeups itself
    (see :meth:`repro.sim.machine.Machine.attach_sampler`): the next
    one is due at absolute tick ``wk``, ``nw`` of them may be taken,
    each reschedules ``pt`` ticks later (plus the timer wheel's jitter
    draw from the closure-bound ``tr_``) and charges ``ov`` seconds to
    core ``pc``.  A taken wakeup appends ``(time_s, FG lanes'
    instruction counters)`` to the closure-bound buffer ``sb``; the
    kernel returns the next wakeup tick last.  Spans without a sampler
    pass ``wk = now + span`` and ``nw = 0``.

    Wakeups split the span into segments.  Each segment's first tick
    is peeled out of the loop and charges each lane's pending runtime
    overhead exactly as the scalar kernel does (``dt_eff = dt -
    stolen``; a fully-stolen tick skips the lane's accumulation).  With
    nothing pending it performs exactly a plain tick's operations
    (``dt - 0.0 == dt``), and subsequent ticks are overhead-free by
    construction (callbacks never run mid-span), so one kernel serves
    spans with and without pending overhead.

    ``run`` takes one phase-boundary guard bound per lane; a lane that
    cannot cross a boundary passes ``inf``, which its ``p >= g`` test
    never reaches.

    When ``classes`` maps any lane to an earlier representative, the
    emitted solver computes each class once per tick: the clone lane's
    miss curve, fixed-point term, and per-tick increments are the
    representative's locals, which are bit-equal to what the lane would
    compute itself (same constants, same occupancy — revalidated by
    ``SpanPlan.run`` before this kernel is selected).  Per-lane state
    (progress, counters, guards, completions) keeps its own
    accumulation, so every float lands exactly where the scalar
    reference puts it.  Dedup shapes drop the fixed-point memo — in the
    contended regime occupancy moves every tick, so the memo never hits
    and only adds key-build cost — but keep the stationary fast path.
    """
    (num_cores, isfg, apki_pos, jitter, snap, groups, has_energy,
     classes) = shape
    n = len(isfg)
    reps = [i for i in range(n) if classes[i] == i]
    dedup = len(reps) != n
    if dedup and jitter:
        raise ValueError("clone-lane dedup requires a jitter-free shape")
    group_of = {}
    for gi, lanes_g in enumerate(groups):
        for l in lanes_g:
            group_of[l] = gi
    for i in range(n):
        r = classes[i]
        if r > i or classes[r] != r:
            raise ValueError("classes must map lanes to earlier reps")
        if (isfg[i] != isfg[r] or apki_pos[i] != apki_pos[r]
                or group_of.get(i) != group_of.get(r)):
            raise ValueError("clone lanes must share role and cache group")
    # Core slots: slot ``i < n`` is lane ``i``'s core, the idle cores
    # follow in core order; ``k_<slot>`` binds the core index.  The
    # occupancy update runs in slot order, so a clone lane's slot reads
    # its (earlier) representative's already-updated value.  Slots of
    # lanes with cache weight hold a cache target; the rest decay.
    weighted = {i for i in range(n) if apki_pos[i]}
    track_idle = (not jitter) and (not snap) and len(weighted) < num_cores
    use_memo = not jitter and not dedup
    use_stationary = not jitter

    lines: List[str] = []
    add = lines.append

    add("def _factory(plan, e_, lg_, cs_, sn_, sq_, ln_, ms_):")
    # ---- per-plan constant bindings (closure cells of ``run``) ----
    # Model constants are bound per *class representative* only: clone
    # lanes read their representative's locals, which hold bit-equal
    # values by the dedup contract (plain kernels have every lane as
    # its own representative, so this binds all of them).
    for i in range(n):
        add("    proc_%d = plan.procs[%d]" % (i, i))
        if classes[i] != i:
            continue
        add("    fl_%d = plan.floor[%d]" % (i, i))
        add("    dl_%d = plan.delta[%d]" % (i, i))
        add("    ws_%d = plan.wscale[%d]" % (i, i))
        add("    se_%d = plan.sens[%d]" % (i, i))
        add("    fq_%d = plan.freq[%d]" % (i, i))
        add("    fh_%d = plan.fh[%d]" % (i, i))
        add("    cp_%d = plan.cpi0[%d]" % (i, i))
        if apki_pos[i]:
            add("    ap_%d = plan.apki[%d]" % (i, i))
        if jitter:
            add("    rng_%d = plan.rngs[%d]" % (i, i))
            add("    rnd_%d = rng_%d.random" % (i, i))
    for c in range(num_cores):
        add("    k_%d = plan.slots[%d]" % (c, c))
    for gi in range(len(groups)):
        add("    wy_%d = plan.ways[%d]" % (gi, gi))
    add("    pwa = plan.prev_w")
    add("    mpa = plan.mpki_a")
    add("    coa = plan.coef")
    add("    eff = plan.eff")
    add("    ci_a = plan.cnt_i")
    add("    cc_a = plan.cnt_c")
    add("    ca_a = plan.cnt_a")
    add("    cm_a = plan.cnt_m")
    add("    ipv = plan.ips_prev")
    add("    clock = plan.clock")
    add("    wb = plan.wbuf")
    add("    tb = plan.tbuf")
    add("    dt = plan.dt")
    add("    base_ns = plan.base_ns")
    add("    scl = plan.scale")
    add("    rho_cap = plan.rho_cap")
    add("    inv_peak = plan.inv_peak")
    if not jitter:
        # Jitter-free cycle increments are span-constant; hoisting the
        # product is bit-identical (the same two floats multiply to the
        # same float every tick).
        for i in reps:
            add("    ch_%d = fh_%d * dt" % (i, i))
    if jitter:
        add("    sigma = plan.sigma")
        add("    mu = plan.mu")
        add("    TWOPI = plan.two_pi")
    if not snap:
        add("    alpha = plan.alpha")
    if use_memo:
        add("    memo = plan.memo")
        add("    memo_get = memo.get")
        add("    maxm = plan.max_memo")
    if has_energy:
        add("    acc_e = plan.energy_accumulate")
        add("    frl = plan.freqs_list")
        add("    bsl = plan.busy_list")
    add("    sta = plan.stolen")
    add("    sb = plan.samples")
    add("    tr_ = plan.timer_random")
    add("    jp = plan.timer_jitter")

    g_args = "".join(", g_%d" % i for i in range(n))
    add("    def run(span, rho, now, wk, nw, pt, pc, ov%s):" % g_args)

    # ---- prologue: load mutable state into locals ----
    for c in range(num_cores):
        add("        ef_%d = eff[k_%d]" % (c, c))
    for i in range(n):
        if classes[i] == i:
            add("        pw_%d = pwa[%d]" % (i, i))
            add("        mp_%d = mpa[%d]" % (i, i))
            add("        co_%d = coa[%d]" % (i, i))
        add("        p_%d = proc_%d.progress" % (i, i))
        add("        em_%d = proc_%d.execution_misses" % (i, i))
        if isfg[i]:
            add("        tt_%d = proc_%d._target_total" % (i, i))
        if jitter:
            add("        gn_%d = rng_%d.gauss_next" % (i, i))
        add("        ci_%d = ci_a[k_%d]" % (i, i))
        add("        cc_%d = cc_a[k_%d]" % (i, i))
        add("        ca_%d = ca_a[k_%d]" % (i, i))
        add("        cm_%d = cm_a[k_%d]" % (i, i))
    add("        completions = []")
    add("        now0 = now")
    add("        stop = now + span")
    add("        lim = wk if wk < stop else stop")
    add("        stat_ticks = 0")
    add("        mh = 0")
    add("        mm = 0")
    add("        mce = 0")
    add("        th = 0")
    if use_stationary:
        add("        stationary = False")

    def emit_guards(ind: str) -> None:
        for i in range(n):
            add(ind + "if p_%d >= g_%d:" % (i, i))
            add(ind + "    break")

    def emit_completion(ind: str, i: int, inst: str, mis: str,
                        ips: str) -> None:
        # Same operations/order as the scalar kernel's FG completion
        # path; locals are written back before Process methods run.
        add(ind + "rem = tt_%d - p_%d" % (i, i))
        add(ind + "if %s >= rem > 0:" % inst)
        add(ind + "    dtf = rem / %s" % ips)
        add(ind + "    msh = %s * (rem / %s)" % (mis, inst))
        add(ind + "    proc_%d.progress = p_%d" % (i, i))
        add(ind + "    proc_%d.execution_misses = em_%d" % (i, i))
        add(ind + "    proc_%d.advance(rem, msh)" % i)
        add(ind + "    completions.append((proc_%d, "
            "proc_%d.complete_execution(now * dt + dtf)))" % (i, i))
        add(ind + "    proc_%d.advance(%s - rem, %s - msh)" % (i, inst, mis))
        add(ind + "    p_%d = proc_%d.progress" % (i, i))
        add(ind + "    em_%d = proc_%d.execution_misses" % (i, i))
        add(ind + "    tt_%d = proc_%d._target_total" % (i, i))
        add(ind + "else:")
        add(ind + "    p_%d = p_%d + %s" % (i, i, inst))
        add(ind + "    em_%d = em_%d + %s" % (i, i, mis))

    ips_tuple = ", ".join("ips_%d" % i for i in range(n))
    t_tuple = ", ".join("t_%d" % i for i in range(n))
    mp_tuple = ", ".join("mp_%d" % i for i in range(n))

    def emit_fixed_point(ind: str) -> None:
        # Each class representative solves once; its fixed-point term
        # ``t_r = ips_r * mp_r * ms_`` is the exact subexpression the
        # scalar reference adds into the aggregate (same parse-tree
        # association), so accumulating ``t_r`` per *lane* in lane
        # order reproduces the scalar sum bit-for-bit, and the saved
        # term is reused for the per-tick miss increments.
        for _ in range(_FIXED_POINT_ITERATIONS):
            add(ind + "pen = base_ns * (1.0 + scl * rho / (1.0 - rho))")
            for i in range(n):
                r = classes[i]
                if i == r:
                    expr = ("fh_%d / (cp_%d + co_%d * pen * se_%d * fq_%d)"
                            % (r, r, r, r, r))
                    if jitter:
                        expr += " * jt_%d" % i
                    add(ind + "ips_%d = %s" % (r, expr))
                    add(ind + "t_%d = ips_%d * mp_%d * ms_" % (r, r, r))
                if i == 0:
                    add(ind + "tmr = t_%d" % r)
                else:
                    add(ind + "tmr = tmr + t_%d" % r)
            add(ind + "nr = tmr * inv_peak")
            add(ind + "rho = nr if nr < rho_cap else rho_cap")

    def emit_model_tick(ind: str, stolen_tick: bool) -> None:
        """One full-model tick; ``stolen_tick`` charges pending overhead."""
        # -- per-class miss curve (+ per-lane jitter draw), lane order --
        if use_stationary:
            add(ind + "wch = False")
        for i in range(n):
            if classes[i] == i:
                add(ind + "w = ef_%d" % i)
                add(ind + "if w < 0.0:")
                add(ind + "    w = 0.0")
                add(ind + "if w != pw_%d:" % i)
                if use_stationary:
                    add(ind + "    wch = True")
                add(ind + "    pw_%d = w" % i)
                add(ind + "    mce += 1")
                add(ind + "    mp_%d = fl_%d + dl_%d * e_(-w / ws_%d)"
                    % (i, i, i, i))
                add(ind + "    co_%d = mp_%d * ms_" % (i, i))
            if jitter:
                # Inline CPython's random.Random.gauss (same algorithm,
                # same stream, same draw order; gauss_next synced at the
                # span boundary).
                add(ind + "z = gn_%d" % i)
                add(ind + "if z is None:")
                add(ind + "    x2 = rnd_%d() * TWOPI" % i)
                add(ind + "    g2 = sq_(-2.0 * lg_(1.0 - rnd_%d()))" % i)
                add(ind + "    z = cs_(x2) * g2")
                add(ind + "    gn_%d = sn_(x2) * g2" % i)
                add(ind + "else:")
                add(ind + "    gn_%d = None" % i)
                add(ind + "jt_%d = e_(mu + z * sigma)" % i)

        # -- rho fixed point (optionally memoized on exact inputs) --
        if use_memo:
            add(ind + "rho_in = rho")
            add(ind + "mk = (rho, %s)" % mp_tuple)
            add(ind + "hit = memo_get(mk)")
            add(ind + "if hit is None:")
            add(ind + "    mm += 1")
            emit_fixed_point(ind + "    ")
            add(ind + "    if ln_(memo) >= maxm:")
            add(ind + "        memo.clear()")
            add(ind + "    memo[mk] = (%s, %s, rho)" % (ips_tuple, t_tuple))
            add(ind + "else:")
            add(ind + "    mh += 1")
            add(ind + "    %s, %s, rho = hit" % (ips_tuple, t_tuple))
        else:
            if use_stationary:
                add(ind + "rho_in = rho")
            emit_fixed_point(ind)
        if dedup:
            # Clone lanes served their solve from the representative's
            # exact values: n - len(reps) avoided lane-solves per tick.
            add(ind + "th = th + %d" % (n - len(reps)))

        # -- per-lane accumulation, weights, FG completion --
        for i in range(n):
            r = classes[i]
            if apki_pos[i] and i == r:
                add(ind + "wt_%d = ap_%d * ips_%d" % (r, r, r))
            if stolen_tick:
                # Scalar order: weights first, then the overhead charge;
                # a fully-stolen tick skips the lane's accumulation.
                # Overhead differs per core, so the stolen tick keeps
                # per-lane arithmetic even for clone lanes.
                jt = " * jt_%d" % i if jitter else ""
                add(ind + "st = sta[k_%d]" % i)
                add(ind + "if st:")
                add(ind + "    sta[k_%d] = 0.0" % i)
                add(ind + "de = dt - st")
                add(ind + "if de > 0.0:")
                bind = ind + "    "
                add(bind + "inst = ips_%d * de" % r)
                add(bind + "mis = t_%d * de" % r)
                add(bind + "ci_%d = ci_%d + inst" % (i, i))
                add(bind + "cc_%d = cc_%d + fh_%d%s * de" % (i, i, r, jt))
                if apki_pos[i]:
                    add(bind + "ca_%d = ca_%d + inst * ap_%d * ms_"
                        % (i, i, r))
                else:
                    add(bind + "ca_%d = ca_%d + mis" % (i, i))
                add(bind + "cm_%d = cm_%d + mis" % (i, i))
                if isfg[i]:
                    emit_completion(bind, i, "inst", "mis", "ips_%d" % r)
                else:
                    add(bind + "p_%d = p_%d + inst" % (i, i))
                    add(bind + "em_%d = em_%d + mis" % (i, i))
            else:
                # Per-tick increments are class-shared: hoist each to
                # the representative (``mi_r = t_r * dt`` keeps the
                # scalar's ``ips * mp * ms_ * dt`` association because
                # ``t_r`` *is* its left-associated prefix); per-lane
                # accumulation below stays per-lane.
                if i == r:
                    add(ind + "in_%d = ips_%d * dt" % (r, r))
                    add(ind + "mi_%d = t_%d * dt" % (r, r))
                    if apki_pos[i]:
                        add(ind + "aa_%d = in_%d * ap_%d * ms_" % (r, r, r))
                add(ind + "ci_%d = ci_%d + in_%d" % (i, i, r))
                if jitter:
                    add(ind + "cc_%d = cc_%d + fh_%d * jt_%d * dt"
                        % (i, i, r, i))
                else:
                    add(ind + "cc_%d = cc_%d + ch_%d" % (i, i, r))
                if apki_pos[i]:
                    add(ind + "ca_%d = ca_%d + aa_%d" % (i, i, r))
                else:
                    add(ind + "ca_%d = ca_%d + mi_%d" % (i, i, r))
                add(ind + "cm_%d = cm_%d + mi_%d" % (i, i, r))
                if isfg[i]:
                    emit_completion(ind, i, "in_%d" % r, "mi_%d" % r,
                                    "ips_%d" % r)
                else:
                    add(ind + "p_%d = p_%d + in_%d" % (i, i, r))
                    add(ind + "em_%d = em_%d + mi_%d" % (i, i, r))

        if has_energy:
            add(ind + "acc_e(dt, frl, bsl)")

        # -- inline SharedCache.tick_update for the span grouping --
        if track_idle:
            add(ind + "ichg = False")
        for gi, lanes_g in enumerate(groups):
            terms = " + ".join("wt_%d" % classes[l] for l in lanes_g)
            add(ind + "tot = %s" % terms)
            emitted = set()
            for l in lanes_g:
                r = classes[l]
                if r in emitted:
                    continue
                emitted.add(r)
                add(ind + "tg_%d = wy_%d * wt_%d / tot" % (r, gi, r))
        for c in range(num_cores):
            i = c if c in weighted else None
            if snap:
                if i is None:
                    add(ind + "ef_%d = 0.0" % c)
                else:
                    add(ind + "ef_%d = tg_%d" % (c, classes[i]))
            elif i is None:
                if track_idle:
                    add(ind + "nef = ef_%d + alpha * (0.0 - ef_%d)"
                        % (c, c))
                    add(ind + "if nef != ef_%d:" % c)
                    add(ind + "    ichg = True")
                    add(ind + "ef_%d = nef" % c)
                else:
                    add(ind + "ef_%d = ef_%d + alpha * (0.0 - ef_%d)"
                        % (c, c, c))
            elif classes[i] != i:
                # Clone core: its occupancy equals the representative
                # core's (bit-equal at span entry by revalidation, and
                # both receive the identical update each tick), so the
                # inertia step is assignment, not recomputation.
                add(ind + "ef_%d = ef_%d" % (c, classes[i]))
            else:
                add(ind + "ef_%d = ef_%d + alpha * (tg_%d - ef_%d)"
                    % (c, c, i, c))

        add(ind + "now += 1")

    # ================= in-kernel sampler wakeup =================
    # What the sampler's timer callback would do at the top of this
    # tick, in TimerWheel.schedule's order.  A wakeup beyond the budget
    # (``nw == 0``) or at ``stop`` ends the span: the plain path fires
    # it.
    row = ["now * dt"] + ["ci_%d" % i for i in range(n) if isfg[i]]
    s1 = "            "
    m1 = s1 + "    "
    m2 = m1 + "    "
    add("        while True:")
    add(s1 + "if now == wk:")
    add(s1 + "    if not nw:")
    add(s1 + "        break")
    add(s1 + "    nw -= 1")
    add(s1 + "    sb.append((%s,))" % ", ".join(row))
    add(s1 + "    sta[pc] = sta[pc] + ov")
    add(s1 + "    wk = now + pt")
    add(s1 + "    if jp > 0.0 and tr_() < jp:")
    add(s1 + "        wk += 1")
    add(s1 + "    lim = wk if wk < stop else stop")

    # ================= peeled overhead tick =================
    # Only a segment's first tick can carry overhead (callbacks never
    # run mid-span, in-kernel wakeups only at segment starts); peeling
    # it keeps the main loop overhead-free.
    add(s1 + "seg = now")
    add(s1 + "while now < lim:")
    emit_guards(m1)
    emit_model_tick(m1, True)
    add(m1 + "break")
    add(s1 + "if now == seg or completions:")
    add(s1 + "    break")

    # ================= full-model loop =================
    add(s1 + "while now < lim:")
    emit_guards(m1)
    emit_model_tick(m1, False)
    add(m1 + "if completions:")
    add(m1 + "    break")

    # -- stationarity: per-lane occupancy, rho, and (when tracked) idle
    #    occupancy are all at their exact float fixed points.  The
    #    stationary increments are exactly this tick's per-class
    #    increments (``in_r`` / ``ch_r`` / ``aa_r`` / ``mi_r``), already
    #    in locals — entry costs nothing.
    if use_stationary:
        cond = "not wch and rho == rho_in"
        if track_idle:
            cond += " and not ichg"
        add(m1 + "if %s:" % cond)
        add(m2 + "stationary = True")
        add(m2 + "break")

    # ================= stationary loop =================
    # Each segment re-detects stationarity, exactly as a fresh span
    # would, so the counters match spans that end at every wakeup.
    if use_stationary:
        add(s1 + "if stationary:")
        add(m1 + "stationary = False")
        add(m1 + "while now < lim:")
        emit_guards(m2)
        for i in range(n):
            r = classes[i]
            add(m2 + "ci_%d = ci_%d + in_%d" % (i, i, r))
            add(m2 + "cc_%d = cc_%d + ch_%d" % (i, i, r))
            if apki_pos[i]:
                add(m2 + "ca_%d = ca_%d + aa_%d" % (i, i, r))
            else:
                add(m2 + "ca_%d = ca_%d + mi_%d" % (i, i, r))
            add(m2 + "cm_%d = cm_%d + mi_%d" % (i, i, r))
            if isfg[i]:
                emit_completion(m2, i, "in_%d" % r, "mi_%d" % r,
                                "ips_%d" % r)
            else:
                add(m2 + "p_%d = p_%d + in_%d" % (i, i, r))
                add(m2 + "em_%d = em_%d + mi_%d" % (i, i, r))
        if has_energy:
            add(m2 + "acc_e(dt, frl, bsl)")
        add(m2 + "now += 1")
        add(m2 + "stat_ticks += 1")
        add(m2 + "if completions:")
        add(m2 + "    break")

    # A segment ending anywhere but at the next wakeup before ``stop``
    # (a guard trip, a completion, the span's end) ends the span.
    add(s1 + "if completions or now != lim or now == stop:")
    add(s1 + "    break")

    # ---- epilogue: write mutable state back ----
    add("        if now != now0:")
    for c in range(num_cores):
        add("            eff[k_%d] = ef_%d" % (c, c))
    for i in range(n):
        r = classes[i]
        # Clone lanes persist their representative's miss-curve state
        # (bit-equal by the dedup contract), keeping the plan arrays
        # valid for whichever kernel variant runs the next span.
        add("            pwa[%d] = pw_%d" % (i, r))
        add("            mpa[%d] = mp_%d" % (i, r))
        add("            coa[%d] = co_%d" % (i, r))
        add("            proc_%d.progress = p_%d" % (i, i))
        add("            proc_%d.execution_misses = em_%d" % (i, i))
        if jitter:
            add("            rng_%d.gauss_next = gn_%d" % (i, i))
        add("            ci_a[k_%d] = ci_%d" % (i, i))
        add("            cc_a[k_%d] = cc_%d" % (i, i))
        add("            ca_a[k_%d] = ca_%d" % (i, i))
        add("            cm_a[k_%d] = cm_%d" % (i, i))
        add("            ipv[k_%d] = ips_%d" % (i, r))
    for c in range(num_cores):
        i = c if c in weighted else None
        if i is None:
            add("            wb[k_%d] = 0.0" % c)
            add("            tb[k_%d] = 0.0" % c)
        else:
            add("            wb[k_%d] = wt_%d" % (c, classes[i]))
            add("            tb[k_%d] = tg_%d" % (c, classes[i]))
    add("            clock.tick = now")
    add("        return (now - now0, rho, stat_ticks, mh, mm, mce, th, "
        "completions, wk)")
    add("    return run")
    add("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Kernel-template entry points (audit surface)
# ----------------------------------------------------------------------
#
# ``repro lint``'s GEN rules parse the exact source strings this module
# hands to ``exec()`` and verify the codegen contract on the AST (call
# allowlist, no global name resolution, in-loop attribute discipline).
# These two functions are that audit surface: ``template_shapes`` spans
# the generator's structural feature matrix, ``generate_kernel_source``
# renders any shape to source without compiling it.


def generate_kernel_source(shape: tuple) -> str:
    """Render the kernel source for one shape, without compiling.

    Shapes are the 8-tuple ``(num_cores, isfg, apki_pos, jitter, snap,
    groups, has_energy, classes)`` described above (``groups`` must
    partition the ``apki_pos`` lanes; ``classes`` maps each lane to its
    clone-class representative, the identity for plain kernels).  This
    is the exact string :func:`_compile_kernel` would
    ``exec``-compile — the static analyzer and the tests audit it
    directly.
    """
    return _generate_source(shape)


#: Field names of the 8-tuple span shapes, positionally.  ``repro
#: lint``'s ``COV002`` asserts every ``template_shapes()`` entry has
#: exactly this arity, so adding a shape axis without extending this
#: registry (and the audit) fails lint instead of silently compiling
#: kernels the analyzer no longer understands.
SHAPE_FIELDS = (
    "num_cores", "isfg", "apki_pos", "jitter", "snap", "groups",
    "has_energy", "classes",
)

#: Machine-readable registry of the scalar hot-state surface the
#: span-compiled kernels mirror (plain machine attributes,
#: ``process.<member>`` entries, ``<name>()`` state-advancing
#: callables).  ``COV002`` cross-checks it against the AST def-use
#: extraction of ``Machine.tick`` in both directions, so a new
#: hot-state mutation the generated kernels do not carry — or a stale
#: registry row — fails lint before any benchmark can diverge.
KERNEL_STATE = {
    "_cnt_arrays": "counter arrays bound as ci_/cc_/ca_/cm_ closures",
    "process.progress": "per-lane progress writes in the lane loop",
    "process.execution_misses": "per-lane miss writes in the lane loop",
    "process.advance()": "completion path calls it inside the kernel",
    "process.complete_execution()": (
        "completion path calls it inside the kernel"
    ),
    "process._sync_phase_cursor()": (
        "cursors synced while planning (_build_plan lane gather)"
    ),
    "process.current_phase()": (
        "phase constants are closure-bound plan columns"
    ),
    "_ips_prev": "committed from plan.ips_prev by SpanPlan.run",
    "_rho": "committed by SpanPlan.run after the span",
    "memory": "m.memory.observe(rho) committed by SpanPlan.run",
    "cache": "m.cache.span_commit(...) committed by SpanPlan.run",
    "_cache_tick()": "span_commit applies the span's occupancy update",
    "clock": "m.clock.tick advanced by the committed span length",
    "_settled": "plans are built only on settled machines",
    "_completion_listeners": "SpanPlan.run fires listeners on completion",
    "governor": "event ticks stay outside spans (batch-engine horizon)",
    "timers": (
        "event ticks stay outside spans; a sampler's wakeups taken "
        "in-kernel are requeued by SpanPlan.run"
    ),
    "_energy": "acc_e closure accumulates per span tick",
    "_stolen_s": (
        "every span segment peels its first tick to charge it; "
        "in-kernel wakeups add the sampler's overhead first"
    ),
    "_gauss_fns": "per-lane rnd_<i> draws replay CPython's gauss",
}


def template_shapes() -> Tuple[tuple, ...]:
    """Representative span shapes covering the generator's feature matrix.

    One shape per structurally distinct code path: jitter on/off (off
    enables the fixed-point memo and the stationary loop), snap vs
    inertia occupancy (inertia with an idle core enables idle-change
    tracking), energy accounting, a zero-``apki`` lane, multi-group
    cache partitions, and clone-lane dedup (non-identity ``classes``
    folding the solver per class).  Every kernel carries the peeled
    overhead tick, one guard per lane and the in-kernel sampler
    wakeups, so none needs a template of its own; the FG lanes set the
    sample row, so sampling kernels of each kind (jittered, stationary,
    dedup) carry FG lanes, one of them three (the x3 mixes).
    ``repro lint`` audits the source generated for every
    one of these, so a codegen change that breaks the contract on any
    branch fails lint even if no benchmark happens to exercise it.
    """
    six = (0, 1, 2, 3, 4, 5)
    fg_of_six = (True, False, False, False, False, False)
    ident6 = tuple(range(6))
    return (
        # Canonical contended figure: 1 FG + 5 BG, jitter, inertia,
        # energy accounting, one shared cache group.
        (6, fg_of_six, (True,) * 6, True, False, (six,), True, ident6),
        # Jitter-free memo path with an idle core (inertia occupancy
        # decays toward zero, so idle-change tracking engages).
        (6, (True, False, False, False, False), (True,) * 5, False,
         False, ((0, 1, 2, 3, 4),), False, tuple(range(5))),
        # Snap occupancy and split cache groups, as run right after a
        # runtime wakeup: overhead pending on the peeled tick, and BG
        # lanes pinned to full-program phases whose guards are
        # inactive (``inf`` bounds).
        (6, fg_of_six, (True,) * 6, False, True,
         ((0, 1, 2), (3, 4, 5)), False, ident6),
        # A zero-apki BG lane: no cache weight, miss accumulation in
        # the access counter, its core treated as cache-idle.
        (6, fg_of_six, (True, True, True, True, True, False),
         False, False, ((0, 1, 2, 3, 4),), True, ident6),
        # Three FG copies beside three BG tasks (the x3 mixes): the
        # in-kernel sample row carries three instruction counters.
        (6, (True, True, True, False, False, False), (True,) * 6,
         True, False, (six,), False, ident6),
        # Minimal standalone FG (the baseline/standalone measurements).
        (6, (True,), (True,), False, True, ((0,),), False, (0,)),
        # Clone-lane dedup: the sigma-0 contended mix where the five
        # BG lanes are one clone class — the solver-bound regime the
        # exact tabulation exists for (inertia occupancy, energy off).
        # The peeled tick keeps per-lane arithmetic for the overhead
        # charge while the solver stays per-class.
        (6, fg_of_six, (True,) * 6, False, False, (six,), False,
         (0, 1, 1, 1, 1, 1)),
    )


# ----------------------------------------------------------------------
# Span plans
# ----------------------------------------------------------------------


class SpanPlan:
    """Structure-of-arrays snapshot of one span's model inputs.

    Lane ``i`` is the ``i``-th running process in core order; ``slots``
    lists the lanes' cores, then the idle cores in core order, and
    ``ways`` each cache group's way count.  The constant arrays feed
    the generated kernel's factory; ``prev_w`` /
    ``mpki_a`` / ``coef`` persist *across* spans of the same plan — a
    lane whose occupancy did not move between spans keeps its memoized
    miss-curve outputs (recomputing a pure function on an equal input
    is bit-identical, so skipping it is too).
    """

    __slots__ = (
        "stats", "kernel", "kernel_dedup", "clone_checks",
        "stolen", "energy", "samples", "timer_random", "timer_jitter",
        "fg_cores",
        "procs", "rngs", "floor", "delta", "wscale", "sens", "freq",
        "fh", "cpi0", "apki", "prev_w", "mpki_a", "coef",
        "eff", "cnt_i", "cnt_c", "cnt_a", "cnt_m", "ips_prev", "clock",
        "dt", "sigma", "mu", "alpha", "base_ns", "scale", "rho_cap",
        "inv_peak", "memo", "max_memo", "two_pi",
        "energy_accumulate", "freqs_list", "busy_list",
        "wbuf", "tbuf", "active_bits", "groups_commit", "disjoint",
        "guard_procs", "bounds", "slots", "ways",
    )

    def run(self, m, span: int, sampling: Optional[tuple] = None) -> int:
        """Run up to ``span`` event-free ticks of machine ``m`` (the one
        the plan was built from); returns ticks executed.

        May return early when a guard fires or an FG execution completes;
        rho observation, cache write-back, and completion listeners all
        happen here, in the scalar kernel's order.  Pending overhead
        time needs no routing: every kernel peels the span's first tick
        and charges it exactly as the scalar kernel would.

        ``sampling`` is ``(sampler, fire_tick, budget, period_ticks,
        pinned_core, overhead_s)`` when the batch engine took the
        attached sampler's wakeup timer (fire tick ``fire_tick``) off
        the timer wheel: the kernel takes up to ``budget`` wakeups
        itself, and this method hands the timer back to the wheel and
        replays the buffered samples through the sampler before any
        completion listener runs — the order the plain path observes.

        When the plan compiled a clone-dedup kernel, it is selected
        only after revalidating the dedup invariant: every clone lane's
        occupancy and persistent miss-curve state must still compare
        bit-equal to its representative's (other plans run between
        spans of this one and update per-core state along their own
        trajectories, so equality is checked, never assumed).
        """
        kernel = self.kernel
        if self.kernel_dedup is not None:
            eff = self.eff
            pwa = self.prev_w
            mpa = self.mpki_a
            for r, i, rc, ic in self.clone_checks:
                if (eff[rc] != eff[ic] or pwa[r] != pwa[i]
                        or mpa[r] != mpa[i]):
                    break
            else:
                kernel = self.kernel_dedup
        if not m._settled:
            m.settle_cache()
        if self.freqs_list is not None:
            # Re-snapshot so idle cores' frequencies match the list the
            # scalar kernel would rebuild each tick.
            self.freqs_list[:] = m._gov_freqs
        # Lanes that cannot cross a phase boundary keep their ``inf``
        # bound; the rest are refreshed from the live phase cursors.
        bounds = self.bounds
        for i, proc, is_fg in self.guard_procs:
            if is_fg:
                bounds[i] = proc._phase_end
            else:
                progress = proc.progress
                total = proc._total
                offset = progress % total if progress >= total else progress
                bounds[i] = progress - offset + proc._phase_end
        now = m.clock.tick
        if sampling is None:
            (executed, rho, stat, mh, mm, mce, th, completions,
             _) = kernel(span, m._rho, now, now + span, 0, 0, 0, 0.0,
                         *bounds)
        else:
            (executed, rho, stat, mh, mm, mce, th, completions,
             wake) = kernel(span, m._rho, now, *sampling[1:], *bounds)
        stats = self.stats
        stats.memo_hits += mh
        stats.memo_misses += mm
        stats.misscurve_evals += mce
        stats.table_hits += th
        if executed:
            stats.compiled_ticks += executed
            stats.stationary_ticks += stat
            # Warm ticks took rho from the stationary path or an exact
            # memo hit; everything else ran the unrolled fixed point.
            warm = stat + mh
            stats.rho_warm_hits += warm
            stats.rho_iterations += _FIXED_POINT_ITERATIONS * (executed - warm)
            m._rho = rho
            m.memory.observe(rho)
            m.cache.span_commit(
                self.wbuf, self.tbuf, self.active_bits,
                self.groups_commit, self.disjoint,
                None if self.alpha is None else (self.dt, self.alpha),
            )
        if sampling is not None:
            samples = self.samples
            taken = len(samples)
            m.timers.requeue(wake, taken)
            if taken:
                stats.kernel_wakeups += taken
                sampling[0].replay_samples(samples)
                samples.clear()
        if completions:
            listeners = m._completion_listeners
            for proc, record in completions:
                for listener in listeners:
                    listener(proc, record)
        return executed


def _build_plan(machine, stats: SpanStats) -> Optional[SpanPlan]:
    """Compile the machine's current running set into a SpanPlan.

    Returns None for shapes the compiled path does not cover (no
    running lanes, overlapping cache-mask groups, or a non-standard
    jitter RNG); the batch engine ticks those in ``Machine.tick``.
    """
    m = machine
    config = m.config
    num_cores = config.num_cores
    gov_freqs = m._gov_freqs
    lanes = []
    for core, proc in enumerate(m._procs_by_core):
        if proc is None or proc.state != STATE_RUNNING:
            continue
        lanes.append((core, proc, proc._spec.phases[proc._phase_index]))
    n = len(lanes)
    if n == 0:
        return None
    sigma = m._sigma
    jitter = sigma > 0.0
    if jitter:
        for core, _, _ in lanes:
            # The inline gauss replays CPython's exact algorithm; any
            # substituted RNG type falls back to ``Machine.tick``.
            if type(m._jitter_rngs[core]) is not random.Random:
                return None
    active_bits = 0
    lane_index = {}
    for i, (core, proc, phase) in enumerate(lanes):
        lane_index[core] = i
        if phase.apki > 0:
            active_bits |= 1 << core
    groups_cores, disjoint = m.cache.span_grouping(active_bits)
    if not disjoint:
        return None

    plan = SpanPlan()
    plan.stats = stats
    plan.procs = [proc for _, proc, _ in lanes]
    plan.rngs = [m._jitter_rngs[core] for core, _, _ in lanes]
    plan.floor = [phase.mpki_floor for _, _, phase in lanes]
    plan.delta = [
        phase.mpki_peak - phase.mpki_floor for _, _, phase in lanes
    ]
    plan.wscale = [phase.ways_scale for _, _, phase in lanes]
    plan.sens = [phase.mem_sensitivity for _, _, phase in lanes]
    plan.freq = [gov_freqs[core] for core, _, _ in lanes]
    plan.fh = [freq * 1e9 for freq in plan.freq]
    plan.cpi0 = [phase.base_cpi for _, _, phase in lanes]
    plan.apki = [phase.apki for _, _, phase in lanes]
    plan.prev_w = [-1.0] * n
    plan.mpki_a = [0.0] * n
    plan.coef = [0.0] * n
    plan.eff = m._cache_eff
    cnt_i, cnt_c, cnt_a, cnt_m = m._cnt_arrays
    plan.cnt_i = cnt_i
    plan.cnt_c = cnt_c
    plan.cnt_a = cnt_a
    plan.cnt_m = cnt_m
    plan.ips_prev = m._ips_prev
    plan.clock = m.clock
    plan.dt = config.tick_s
    plan.sigma = sigma
    plan.mu = m._jitter_mu
    cache = m.cache
    snap = cache._tau <= 0
    plan.alpha = None if snap else cache.inertia_alpha(config.tick_s)
    memory = m.memory
    plan.base_ns = memory.base_latency_ns
    plan.scale = memory.contention_scale
    plan.rho_cap = memory.rho_cap
    plan.inv_peak = memory.seconds_per_miss_at_peak
    plan.memo = {}
    plan.max_memo = MAX_MEMO
    plan.two_pi = TWO_PI
    plan.wbuf = [0.0] * num_cores
    plan.tbuf = [0.0] * num_cores
    plan.active_bits = active_bits
    # _rebuild_groups format: List[(way_count, List[core])]; list
    # objects are installed as-is by span_commit and never mutated by
    # the cache, so one prebuilt copy serves every commit of this plan.
    plan.groups_commit = [
        (ways, list(cores_g)) for ways, cores_g in groups_cores
    ]
    plan.disjoint = disjoint

    energy = m._energy
    plan.energy = energy
    if energy is not None:
        plan.energy_accumulate = energy.accumulate
        plan.freqs_list = list(gov_freqs)
        busy = [False] * num_cores
        for core, _, _ in lanes:
            busy[core] = True
        plan.busy_list = busy
    else:
        plan.energy_accumulate = None
        plan.freqs_list = None
        plan.busy_list = None

    guard_procs = []
    for i, (core, proc, phase) in enumerate(lanes):
        if proc.is_fg:
            # FG pinned to its last phase only leaves it by completing,
            # which the completion path detects exactly.
            if proc._phase_index != len(proc._spec.phases) - 1:
                guard_procs.append((i, proc, True))
        else:
            # BG phase windows cover the wrapped offset; a phase that
            # spans the whole program never produces a boundary.
            if proc._phase_start > 0.0 or proc._phase_end < proc._total:
                guard_procs.append((i, proc, False))
    plan.guard_procs = guard_procs
    plan.bounds = [math.inf] * n

    plan.slots = [core for core, _, _ in lanes] + [
        core for core in range(num_cores) if core not in lane_index
    ]
    plan.ways = [ways for ways, _ in groups_cores]
    shape = (
        num_cores,
        tuple(proc.is_fg for _, proc, _ in lanes),
        tuple(apki > 0 for apki in plan.apki),
        jitter,
        snap,
        tuple(
            tuple(lane_index[c] for c in cores_g)
            for _, cores_g in groups_cores
        ),
        energy is not None,
    )
    plan.stolen = m._stolen_s
    # In-kernel sampler wakeups: the buffer SpanPlan.run replays, and
    # the RNG and jitter probability the machine's timer wheel was
    # built with (its ``schedule`` draws from them).
    plan.samples = []
    plan.timer_random = m._timer_rng.random
    plan.timer_jitter = config.timer_jitter_prob
    plan.fg_cores = tuple(core for core, proc, _ in lanes if proc.is_fg)
    ident = tuple(range(n))
    plan.kernel = _compile_kernel(shape + (ident,), plan, stats)

    # Clone-lane dedup: jitter-free lanes running the same phase
    # constants at the same frequency in the same cache group compute
    # bit-identical solver values every tick, so compile a kernel that
    # solves once per clone class.  ``SpanPlan.run`` revalidates the
    # per-core state equality before selecting it.
    plan.kernel_dedup = None
    plan.clone_checks = ()
    if not jitter and n > 1:
        lane_group = {}
        for gi, (_ways, cores_g) in enumerate(groups_cores):
            for c in cores_g:
                lane_group[lane_index[c]] = gi
        first: Dict[tuple, int] = {}
        cls: List[int] = []
        for i, (core, proc, phase) in enumerate(lanes):
            key = (
                proc.is_fg,
                phase.mpki_floor, phase.mpki_peak, phase.ways_scale,
                phase.mem_sensitivity, phase.base_cpi, phase.apki,
                plan.freq[i], lane_group.get(i),
            )
            cls.append(first.setdefault(key, i))
        classes = tuple(cls)
        if classes != ident:
            plan.kernel_dedup = _compile_kernel(
                shape + (classes,), plan, stats
            )
            plan.clone_checks = [
                (classes[i], i, lanes[classes[i]][0], lanes[i][0])
                for i in range(n) if classes[i] != i
            ]
            stats.table_builds += len(
                {r for r in classes if cls.count(r) > 1}
            )
    return plan


def _compile_kernel(shape: tuple, plan: SpanPlan, stats: SpanStats):
    """Compile (or fetch) the kernel for ``shape``, bound to ``plan``."""
    code = _KERNEL_CODE_CACHE.get(shape)
    if code is None:
        code = compile(generate_kernel_source(shape), "<spanplan>", "exec")
        _KERNEL_CODE_CACHE[shape] = code
        stats.kernels_compiled += 1
    namespace: Dict[str, object] = {"__builtins__": {}}
    exec(code, namespace)
    # Popped: the factory's globals are this namespace, so leaving it in
    # would tie the two into a reference cycle.
    return namespace.pop("_factory")(
        plan, math.exp, math.log, math.cos, math.sin, math.sqrt, len,
        MPKI_SCALE,
    )


#: ``SpanPlanner`` cache sentinel: no entry for a signature (an entry
#: may hold None, for a shape the compiled path declines).
_NO_PLAN = object()


class SpanPlanner:
    """Caches SpanPlans by a value signature of the machine state.

    The signature captures everything a plan bakes in: per lane
    ``(pid, spec epoch, phase index, frequency)`` plus the cache-mask
    epoch and the energy-model identity.  Dirigent runs cycle through a
    small working set of states (phases x DVFS grades), so plans — and
    their persistent miss-curve/fixed-point memos — are almost always
    reused rather than rebuilt.

    A planner serves one machine, which every call passes in: plans
    hold that machine's state arrays, but neither the planner nor its
    plans refer to the machine itself.
    """

    def __init__(self, stats: SpanStats) -> None:
        self._stats = stats
        self._plans: Dict[tuple, Optional[SpanPlan]] = {}

    def clear(self) -> None:
        """Drop every cached plan (and with it its compiled kernels)."""
        self._plans.clear()

    def plan_for_span(self, m) -> Optional[SpanPlan]:
        """A plan matching machine ``m``'s current state, or None.

        None means the shape is unsupported here and the caller should
        tick the machine in ``Machine.tick``.  Stale phase cursors are
        synced first, as the scalar kernel's gather does.
        """
        gov_freqs = m._gov_freqs
        sig_parts: List[object] = [
            m.cache.mask_epoch, m._energy is not None,
        ]
        append = sig_parts.append
        for core, proc in enumerate(m._procs_by_core):
            if proc is None or proc.state != STATE_RUNNING:
                continue
            if not proc._phase_start <= proc.progress < proc._phase_end:
                proc._sync_phase_cursor()
            append(
                (proc.pid, proc._spec_epoch, proc._phase_index, gov_freqs[core])
            )
        sig = tuple(sig_parts)
        plans = self._plans
        # One lookup: hashing the nested signature is most of a hit's cost.
        plan = plans.get(sig, _NO_PLAN)
        if plan is not _NO_PLAN:
            if plan is None or plan.energy is m._energy:
                if plan is not None:
                    self._stats.plan_reuses += 1
                return plan
        plan = _build_plan(m, self._stats)
        if len(plans) >= MAX_PLANS:
            plans.clear()
        plans[sig] = plan
        if plan is not None:
            self._stats.plan_builds += 1
        return plan
