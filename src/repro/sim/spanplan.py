"""Span-compiled kernels: the batch engine's one span path.

The batch engine (:mod:`repro.sim.batch`) advances a machine to its
next event in one span.  A span written as an interpreted loop would
still pay ``for i in range(n)`` dispatch, list indexing, and per-tick
method calls (``rng.gauss``, ``SharedCache.tick_update``) for every
tick; on the contended shapes every Dirigent figure simulates (1 FG +
5 BG, jitter on) that overhead dominates.  This module compiles each
*span shape* into a specialized kernel instead:

* **Span plan** — one structure-of-arrays plan per *lane set* (the
  running processes, each pinned to its core, under one cache-mask
  epoch) holds the per-lane model constants and the cache grouping.
  The constants are lists the kernel loads in its prologue, so a phase
  crossing or a DVFS grade change rewrites the moved lane's entries in
  place instead of building a new plan; back-to-back spans over the
  same lane set pay one cheap revalidation.
* **Shape-specialized kernels** — for each distinct shape (lane count,
  FG/BG roles, jitter mode, cache grouping) a Python kernel is
  *generated and ``exec``-compiled* with every lane unrolled into
  locals: no lists, no indexing, no per-tick attribute lookups.  Which
  cores the lanes run on and how many LLC ways each cache group holds
  are plan constants, so one kernel serves every core placement and
  partition size.  Every tick evaluates each lane's miss curve, as
  ``Machine.tick`` does, and the cache target/inertia update inlines
  ``SharedCache.tick_update`` for the span-constant grouping.
* **OS jitter, drawn or read** — a machine inside a
  :func:`repro.sim.jitter.shared_jitter` scope reads each lane's
  jitter factor from its core's shared jitter tape at
  ``tp_<i>[now + d_<i>]``, the draw the scalar kernel would make at
  that tick: the prologue loads the tape cursor and the tape's drawn
  end, a lane that reaches that end fills the next window at a segment
  boundary, and the epilogue writes the cursor back.  A machine outside
  any scope has no other reader of its stream, and drawing in place is
  cheaper for a lone reader than filling a tape and reading it back:
  its kernel inlines CPython's ``random.Random.gauss`` (same
  algorithm, same RNG stream, same draw order).  A jitter-free kernel
  runs the same per-lane code, minus the jitter factor.
* **In-kernel sampler wakeups** — every span kernel can take the
  wakeups of a sampler attached with
  :meth:`repro.sim.machine.Machine.attach_sampler` (the Dirigent
  runtime): it buffers the FG counters, charges the wakeup's overhead
  through the next segment's peeled tick, and redraws the timer.  The
  last granted wakeup, the one that may act, ends the span before its
  tick runs; :meth:`SpanPlan.run` requeues the timer and hands the
  buffered rows to the sampler, which folds them and acts at that
  tick.

**Bit-exactness.**  Every generated kernel performs the same
floating-point operations in the same order as ``Machine.tick``:
sequential lane order, left-associated accumulations, identical
operator shapes.  Where a specialization drops an operation it is one
with a provably identity result (``x * 1.0`` for the jitter factor at
sigma 0, ``0.0 + x`` for the first fixed-point summand).  The
equivalence suite (``tests/sim/test_batch_equivalence.py`` and
``tests/sim/test_spanplan.py``) pins all of this against the scalar
reference.

An attached energy model stays outside the kernels:
:meth:`SpanPlan.run` feeds it once per executed tick, since a span's
frequencies and busy cores are constant.

The kernels cover the shapes product machines run.  The planner
declines the rest: no running task, overlapping cache-mask groups,
snap-to-target occupancy (``cache_inertia_tau_s <= 0``), a lane in a
phase without LLC accesses (``apki <= 0``), and, on a machine that
draws its own jitter, a jitter RNG that is not ``random.Random``.  The
batch engine runs those one ``Machine.tick`` at a time.
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

#: CPython's ``random.gauss`` angle scale (``2*pi``); bound once so the
#: generated kernels and the interpreter use the very same constant.
TWO_PI = 2.0 * math.pi

#: Values of a span shape's ``jitter`` field: no OS jitter; each lane
#: draws its factor from its core's RNG (a machine built outside any
#: :func:`repro.sim.jitter.shared_jitter` scope); or each lane reads it
#: from its core's shared jitter tape.
JITTER_OFF, JITTER_DRAW, JITTER_TAPE = 0, 1, 2

#: Per-lane model constants as ``(kernel local, SpanPlan list)``: the
#: kernel prologue loads lane ``i``'s ``fl_<i>`` from ``plan.floor[i]``
#: and so on, so a phase or DVFS change rewrites the plan lists in place
#: and the plan's next span reads the new values.
LANE_COLUMNS = (
    ("fl", "floor"), ("dl", "delta"), ("ws", "wscale"), ("se", "sens"),
    ("fq", "freq"), ("fh", "fh"), ("cp", "cpi0"), ("ap", "apki"),
)


class SpanStats:
    """Fast-path observability counters (one instance per engine).

    Attributes mirror the benchmark's ``fast_path`` block:

    * ``spans``: spans the batch engine ran in compiled kernels;
    * ``compiled_ticks``: ticks executed by compiled kernels;
    * ``plan_builds`` / ``plan_reuses``: spans that built a new plan
      (a new lane set, cache-mask epoch or cache grouping) / that
      reused one, rewriting the lane constants that moved;
    * ``kernels_compiled``: distinct span shapes compiled to code;
    * ``rho_iterations``: fixed-point iterations run by compiled
      kernels (compiled ticks times the unrolled iteration count);
    * ``kernel_wakeups``: an attached sampler's wakeups the span
      kernels took themselves (buffered, then folded by the sampler),
      decisions included, instead of firing them as timers.
    """

    __slots__ = (
        "spans",
        "compiled_ticks",
        "plan_builds",
        "plan_reuses",
        "kernels_compiled",
        "rho_iterations",
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
#   (num_cores, isfg, jitter, groups)
#
# with ``groups`` the cache grouping in lane indices; every lane has
# cache weight (the planner declines ``apki <= 0`` lanes), so the
# groups partition the lanes.  All constants stay *outside* the shape,
# so kernels are shared across plans that differ only in model
# constants, in which cores the lanes run on (the ``k_<slot>`` core
# indices: lane slots first, then the idle cores in core order), or in
# the groups' way counts (``wy_<group>``).  The factory binds the
# per-plan constants as closure cells; the per-lane phase and
# frequency constants (``LANE_COLUMNS``) are plan lists rewritten in
# place, so ``run`` loads them into locals in its prologue and one plan
# serves every phase and DVFS state of its lane set.  Neither which
# lanes can cross a phase boundary nor whether overhead is pending is
# part of the shape: every lane takes a guard bound (``inf`` when it
# cannot cross one) and every kernel peels its first tick to charge
# pending overhead, so both vary per span without multiplying the
# compiled kernels.

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
    one is due at absolute tick ``wk``, ``nw >= 1`` of them may be
    taken, each reschedules ``pt`` ticks later (plus the timer wheel's
    jitter draw from the closure-bound ``tr_``) and charges ``ov``
    seconds to core ``pc``.  A taken wakeup appends ``(time_s, FG
    lanes' instruction counters)`` to the closure-bound buffer ``sb``;
    the ``nw``-th ends the span at its tick, before the tick's model.
    The kernel returns the next wakeup tick last.  Spans without a
    sampler pass ``wk = now + span`` (never reached) and ``nw = 0``.

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

    The kernel returns ``(ticks executed, rho, completions, next wakeup
    tick)``.
    """
    num_cores, isfg, jitter, groups = shape
    n = len(isfg)
    # Core slots: slot ``i < n`` is lane ``i``'s core, the idle cores
    # follow in core order; ``k_<slot>`` binds the core index.  Lane
    # slots hold a cache target; the idle slots decay.

    lines: List[str] = []
    add = lines.append

    add("def _factory(plan, e_, lg_, cs_, sn_, sq_, ms_):")
    # ---- per-plan constant bindings (closure cells of ``run``) ----
    draw = jitter == JITTER_DRAW
    tape = jitter == JITTER_TAPE
    for i in range(n):
        add("    proc_%d = plan.procs[%d]" % (i, i))
        if draw:
            add("    rng_%d = plan.rngs[%d]" % (i, i))
            add("    rnd_%d = rng_%d.random" % (i, i))
        elif tape:
            # A fill appends to ``values`` in place, so the binding
            # stays valid for the plan's life.
            add("    ja_%d = plan.tapes[%d]" % (i, i))
            add("    tp_%d = ja_%d.values" % (i, i))
            add("    jf_%d = ja_%d.fill" % (i, i))
    for c in range(num_cores):
        add("    k_%d = plan.slots[%d]" % (c, c))
    for gi in range(len(groups)):
        add("    wy_%d = plan.ways[%d]" % (gi, gi))
    # The lanes' phase and frequency constants are plan lists the
    # planner rewrites in place; ``run`` loads them in its prologue.
    for name, column in LANE_COLUMNS:
        add("    %sa = plan.%s" % (name, column))
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
    if draw:
        add("    sigma = plan.sigma")
        add("    mu = plan.mu")
        add("    TWOPI = plan.two_pi")
    elif tape:
        add("    jpa = plan.jit_pos")
    add("    alpha = plan.alpha")
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
        for name, _ in LANE_COLUMNS:
            add("        %s_%d = %sa[%d]" % (name, i, name, i))
        add("        p_%d = proc_%d.progress" % (i, i))
        add("        em_%d = proc_%d.execution_misses" % (i, i))
        if isfg[i]:
            add("        tt_%d = proc_%d._target_total" % (i, i))
        if draw:
            add("        gn_%d = rng_%d.gauss_next" % (i, i))
        elif tape:
            # Lane ``i`` reads draw ``now + d_i`` of its tape, whose
            # drawn part ends at tick ``jl_i``.
            add("        d_%d = jpa[k_%d] - now" % (i, i))
            add("        jl_%d = ja_%d.end - d_%d" % (i, i, i))
        add("        ci_%d = ci_a[k_%d]" % (i, i))
        add("        cc_%d = cc_a[k_%d]" % (i, i))
        add("        ca_%d = ca_a[k_%d]" % (i, i))
        add("        cm_%d = cm_a[k_%d]" % (i, i))
    add("        completions = []")
    add("        now0 = now")
    add("        stop = now + span")

    def emit_tape_end(ind: str) -> None:
        # ``jl``: the first tick at which some lane reaches its tape's
        # drawn end.
        add(ind + "jl = jl_0")
        for i in range(1, n):
            add(ind + "if jl_%d < jl:" % i)
            add(ind + "    jl = jl_%d" % i)

    if tape:
        emit_tape_end("        ")

    def emit_guards(ind: str) -> None:
        for i in range(n):
            add(ind + "if p_%d >= g_%d:" % (i, i))
            add(ind + "    break")

    def emit_completion(ind: str, i: int, inst: str, mis: str) -> None:
        # Same operations/order as the scalar kernel's FG completion
        # path; locals are written back before Process methods run.
        add(ind + "rem = tt_%d - p_%d" % (i, i))
        add(ind + "if %s >= rem > 0:" % inst)
        add(ind + "    dtf = rem / ips_%d" % i)
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

    def emit_model_tick(ind: str, stolen_tick: bool) -> None:
        """One full-model tick; ``stolen_tick`` charges pending overhead."""
        # -- per-lane miss curve (+ jitter factor), lane order --
        for i in range(n):
            add(ind + "w = ef_%d" % i)
            add(ind + "if w < 0.0:")
            add(ind + "    w = 0.0")
            add(ind + "mp_%d = fl_%d + dl_%d * e_(-w / ws_%d)"
                % (i, i, i, i))
            add(ind + "co_%d = mp_%d * ms_" % (i, i))
            if tape:
                add(ind + "jt_%d = tp_%d[now + d_%d]" % (i, i, i))
            elif draw:
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

        # -- rho fixed point: each lane's term ``t_i = ips_i * mp_i *
        #    ms_`` is the exact subexpression the scalar reference adds
        #    into the aggregate (same parse-tree association), and is
        #    reused for the per-tick miss increments --
        for _ in range(_FIXED_POINT_ITERATIONS):
            add(ind + "pen = base_ns * (1.0 + scl * rho / (1.0 - rho))")
            for i in range(n):
                expr = ("fh_%d / (cp_%d + co_%d * pen * se_%d * fq_%d)"
                        % (i, i, i, i, i))
                if jitter:
                    expr += " * jt_%d" % i
                add(ind + "ips_%d = %s" % (i, expr))
                add(ind + "t_%d = ips_%d * mp_%d * ms_" % (i, i, i))
                if i == 0:
                    add(ind + "tmr = t_0")
                else:
                    add(ind + "tmr = tmr + t_%d" % i)
            add(ind + "nr = tmr * inv_peak")
            add(ind + "rho = nr if nr < rho_cap else rho_cap")

        # -- per-lane accumulation, weights, FG completion --
        for i in range(n):
            jt = " * jt_%d" % i if jitter else ""
            add(ind + "wt_%d = ap_%d * ips_%d" % (i, i, i))
            if stolen_tick:
                # Scalar order: weights first, then the overhead charge;
                # a fully-stolen tick skips the lane's accumulation.
                add(ind + "st = sta[k_%d]" % i)
                add(ind + "if st:")
                add(ind + "    sta[k_%d] = 0.0" % i)
                add(ind + "de = dt - st")
                add(ind + "if de > 0.0:")
                bind = ind + "    "
                inst, mis = "inst", "mis"
                add(bind + "inst = ips_%d * de" % i)
                add(bind + "mis = t_%d * de" % i)
                add(bind + "ci_%d = ci_%d + inst" % (i, i))
                add(bind + "cc_%d = cc_%d + fh_%d%s * de" % (i, i, i, jt))
                acc = "inst * ap_%d * ms_" % i
            else:
                # ``mi_i = t_i * dt`` keeps the scalar's ``ips * mp *
                # ms_ * dt`` association because ``t_i`` *is* its
                # left-associated prefix.
                bind = ind
                inst, mis = "in_%d" % i, "mi_%d" % i
                add(bind + "in_%d = ips_%d * dt" % (i, i))
                add(bind + "mi_%d = t_%d * dt" % (i, i))
                acc = "aa_%d" % i
                add(bind + "aa_%d = in_%d * ap_%d * ms_" % (i, i, i))
                add(bind + "ci_%d = ci_%d + in_%d" % (i, i, i))
                add(bind + "cc_%d = cc_%d + fh_%d%s * dt" % (i, i, i, jt))
            add(bind + "ca_%d = ca_%d + %s" % (i, i, acc))
            add(bind + "cm_%d = cm_%d + %s" % (i, i, mis))
            if isfg[i]:
                emit_completion(bind, i, inst, mis)
            else:
                add(bind + "p_%d = p_%d + %s" % (i, i, inst))
                add(bind + "em_%d = em_%d + %s" % (i, i, mis))

        # -- inline SharedCache.tick_update for the span grouping --
        for gi, lanes_g in enumerate(groups):
            add(ind + "tot = %s" % " + ".join("wt_%d" % l for l in lanes_g))
            for l in lanes_g:
                add(ind + "tg_%d = wy_%d * wt_%d / tot" % (l, gi, l))
        for c in range(num_cores):
            if c < n:
                add(ind + "ef_%d = ef_%d + alpha * (tg_%d - ef_%d)"
                    % (c, c, c, c))
            else:
                add(ind + "ef_%d = ef_%d + alpha * (0.0 - ef_%d)"
                    % (c, c, c))

        add(ind + "now += 1")

    # ================= in-kernel sampler wakeup =================
    # What the sampler's timer callback would do at the top of this
    # tick, in TimerWheel.schedule's order.  The last of the ``nw``
    # granted wakeups is the one that may act: taken, it ends the span
    # before this tick's model runs, so the sampler acts at this tick
    # as the timer would.  A wakeup at ``stop`` shares its tick with
    # another event (or lies past the span) and is never taken.
    row = ["now * dt"] + ["ci_%d" % i for i in range(n) if isfg[i]]
    s1 = "            "
    m1 = s1 + "    "
    add("        while True:")
    add(s1 + "if now == wk:")
    add(s1 + "    sb.append((%s,))" % ", ".join(row))
    add(s1 + "    sta[pc] = sta[pc] + ov")
    add(s1 + "    wk = now + pt")
    add(s1 + "    if jp > 0.0 and tr_() < jp:")
    add(s1 + "        wk += 1")
    add(s1 + "    nw -= 1")
    add(s1 + "    if not nw:")
    add(s1 + "        break")
    if tape:
        # A lane at its tape's drawn end fills the next window there;
        # such a tick starts a segment, whose peeled tick charges
        # nothing new.
        add(s1 + "if now == jl:")
        for i in range(n):
            add(s1 + "    if jl_%d == now:" % i)
            add(s1 + "        jl_%d = jf_%d(now + d_%d) - d_%d"
                % (i, i, i, i))
        emit_tape_end(s1 + "    ")
    add(s1 + "lim = wk if wk < stop else stop")
    if tape:
        add(s1 + "if jl < lim:")
        add(s1 + "    lim = jl")

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

    # A segment ending anywhere but at the next wakeup or tape end
    # before ``stop`` (a guard trip, a completion, the span's end) ends
    # the span.
    add(s1 + "if completions or now != lim or now == stop:")
    add(s1 + "    break")

    # ---- epilogue: write mutable state back ----
    add("        if now != now0:")
    for c in range(num_cores):
        add("            eff[k_%d] = ef_%d" % (c, c))
    for i in range(n):
        add("            proc_%d.progress = p_%d" % (i, i))
        add("            proc_%d.execution_misses = em_%d" % (i, i))
        if draw:
            add("            rng_%d.gauss_next = gn_%d" % (i, i))
        elif tape:
            add("            jpa[k_%d] = now + d_%d" % (i, i))
        add("            ci_a[k_%d] = ci_%d" % (i, i))
        add("            cc_a[k_%d] = cc_%d" % (i, i))
        add("            ca_a[k_%d] = ca_%d" % (i, i))
        add("            cm_a[k_%d] = cm_%d" % (i, i))
        add("            ipv[k_%d] = ips_%d" % (i, i))
    for c in range(num_cores):
        if c < n:
            add("            wb[k_%d] = wt_%d" % (c, c))
            add("            tb[k_%d] = tg_%d" % (c, c))
        else:
            add("            wb[k_%d] = 0.0" % c)
            add("            tb[k_%d] = 0.0" % c)
    add("            clock.tick = now")
    add("        return (now - now0, rho, completions, wk)")
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

    Shapes are the 4-tuple ``(num_cores, isfg, jitter, groups)``
    described above (``groups`` must partition the lanes).  This is the
    exact string :func:`_compile_kernel` would ``exec``-compile — the
    static analyzer and the tests audit it directly.
    """
    return _generate_source(shape)


#: Field names of the 4-tuple span shapes, positionally.  ``repro
#: lint``'s ``COV002`` asserts every ``template_shapes()`` entry has
#: exactly this arity, so adding a shape axis without extending this
#: registry (and the audit) fails lint instead of silently compiling
#: kernels the analyzer no longer understands.
SHAPE_FIELDS = ("num_cores", "isfg", "jitter", "groups")

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
        "cursors synced while planning (plan_for_span lane gather)"
    ),
    "process.current_phase()": (
        "phase constants are plan columns the kernel prologue loads; "
        "SpanPlan.refresh rewrites them when a lane's phase moves"
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
        "in-kernel (its acting one last) are requeued by SpanPlan.run"
    ),
    "_energy": (
        "SpanPlan.run feeds it once per executed tick, after the kernel "
        "(frequencies and busy cores are span constants)"
    ),
    "_stolen_s": (
        "every span segment peels its first tick to charge it; "
        "in-kernel wakeups add the sampler's overhead first"
    ),
    "_gauss_fns": "per-lane rnd_<i> draws replay CPython's gauss",
    "_jit_pos": (
        "shared-tape cursors: lane i reads tp_<i>[now + d_<i>] and the "
        "epilogue writes the cursor back"
    ),
    "_jit_tapes": (
        "lane i fills its shared tape through jf_<i> when it reaches "
        "the tape's drawn end"
    ),
}


def template_shapes() -> Tuple[tuple, ...]:
    """Representative span shapes covering the generator's feature matrix.

    One shape per structurally distinct code path: each jitter mode
    (off, the in-kernel Gaussian draw, the shared-tape read), idle
    cores whose occupancy decays, and multi-group cache partitions.
    Every kernel carries the peeled overhead tick, one guard per lane
    and the in-kernel sampler wakeups, so none needs a template of its
    own; the FG lanes set the sample row, so the sampling kernels of
    every jitter mode carry FG lanes, one of them three (the x3
    mixes).  ``repro lint`` audits the
    source generated for every one of these, so a codegen change that
    breaks the contract on any branch fails lint even if no benchmark
    happens to exercise it.
    """
    six = (0, 1, 2, 3, 4, 5)
    fg_of_six = (True, False, False, False, False, False)
    return (
        # Canonical contended figure: 1 FG + 5 BG, jitter drawn
        # in-kernel, one shared cache group.
        (6, fg_of_six, JITTER_DRAW, (six,)),
        # Jitter-free with an idle core (its occupancy decays toward
        # zero).
        (6, (True, False, False, False, False), JITTER_OFF,
         ((0, 1, 2, 3, 4),)),
        # Split cache groups, as run right after a runtime wakeup:
        # overhead pending on the peeled tick, and BG lanes pinned to
        # full-program phases whose guards are inactive (``inf``
        # bounds).
        (6, fg_of_six, JITTER_OFF, ((0, 1, 2), (3, 4, 5))),
        # Three FG copies beside three BG tasks (the x3 mixes): the
        # in-kernel sample row carries three instruction counters.
        (6, (True, True, True, False, False, False), JITTER_DRAW, (six,)),
        # Minimal standalone FG (the baseline/standalone measurements).
        (6, (True,), JITTER_OFF, ((0,),)),
        # A figure cell inside a shared_jitter scope: jitter read from
        # the shared tapes, the FG alone in a static cache partition.
        (6, fg_of_six, JITTER_TAPE, ((0,), (1, 2, 3, 4, 5))),
    )


# ----------------------------------------------------------------------
# Span plans
# ----------------------------------------------------------------------


class SpanPlan:
    """Structure-of-arrays snapshot of one lane set's model inputs.

    Lane ``i`` is the ``i``-th running process in core order; ``slots``
    lists the lanes' cores, then the idle cores in core order, and
    ``ways`` each cache group's way count.  A plan serves every span of
    its lane set under one cache-mask epoch: the lane constants
    (:data:`LANE_COLUMNS`) are lists the kernel loads in its prologue,
    and :meth:`refresh` rewrites a lane's entries in place when its
    phase or DVFS grade moves.  ``phase_ids`` / ``spec_epochs`` record
    the phase each lane's constants were loaded from.
    """

    __slots__ = (
        "stats", "kernel", "stolen", "samples", "timer_random",
        "timer_jitter", "fg_cores",
        "procs", "rngs", "tapes", "jit_pos", "floor", "delta", "wscale",
        "sens", "freq", "fh", "cpi0", "apki", "phase_ids", "spec_epochs",
        "eff", "cnt_i", "cnt_c", "cnt_a", "cnt_m", "ips_prev", "clock",
        "dt", "sigma", "mu", "alpha", "base_ns", "scale", "rho_cap",
        "inv_peak", "two_pi",
        "wbuf", "tbuf", "active_bits", "groups_commit", "disjoint",
        "guard_procs", "bounds", "slots", "ways",
    )

    def refresh(self, gov_freqs: List[float]) -> bool:
        """Bring the lane constants up to the lanes' current state.

        A lane whose DVFS grade moved gets its frequency columns
        rewritten.  A lane whose phase (or phase program) moved gets its
        phase constants reloaded; the guard set is then recomputed and
        every bound reset to ``inf``, so a lane that left the guard set
        (an FG entering its last phase) cannot keep a stale finite
        bound.  Returns False when a lane entered a phase with ``apki
        <= 0``, a lane the planner declines: the caller re-plans, and
        the re-plan declines.
        """
        procs = self.procs
        phase_ids = self.phase_ids
        spec_epochs = self.spec_epochs
        freq = self.freq
        slots = self.slots
        moved = False
        for i, proc in enumerate(procs):
            if (proc._phase_index != phase_ids[i]
                    or proc._spec_epoch != spec_epochs[i]):
                if proc._spec.phases[proc._phase_index].apki <= 0:
                    return False
                _load_phase(self, i, proc)
                moved = True
            f = gov_freqs[slots[i]]
            if f != freq[i]:
                freq[i] = f
                self.fh[i] = f * 1e9
        if moved:
            self.guard_procs = _guard_lanes(procs)
            self.bounds = [math.inf] * len(procs)
        return True

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
        itself, ending the span at the last, and this method hands the
        timer back to the wheel and the buffered rows to the sampler
        (which may act at the span's last tick) before any completion
        listener runs — the order the plain path observes.
        """
        if not m._settled:
            m.settle_cache()
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
            executed, rho, completions, _ = self.kernel(
                span, m._rho, now, now + span, 0, 0, 0, 0.0, *bounds
            )
        else:
            executed, rho, completions, wake = self.kernel(
                span, m._rho, now, *sampling[1:], *bounds
            )
        stats = self.stats
        if executed:
            stats.compiled_ticks += executed
            stats.rho_iterations += _FIXED_POINT_ITERATIONS * executed
            m._rho = rho
            m.memory.observe(rho)
            m.cache.span_commit(
                self.wbuf, self.tbuf, self.active_bits,
                self.groups_commit, self.disjoint, (self.dt, self.alpha),
            )
            energy = m._energy
            if energy is not None:
                # Frequencies and busy cores are span constants, so one
                # call per executed tick accounts what Machine.tick
                # would have, before any decision moves a frequency.
                freqs = m._gov_freqs
                lanes = self.slots[:len(self.procs)]
                busy = [core in lanes for core in range(len(freqs))]
                for _ in range(executed):
                    energy.accumulate(self.dt, freqs, busy)
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


def _load_phase(plan: SpanPlan, i: int, proc) -> None:
    """Load lane ``i``'s phase constants from ``proc``'s current phase."""
    phase = proc._spec.phases[proc._phase_index]
    plan.floor[i] = phase.mpki_floor
    plan.delta[i] = phase.mpki_peak - phase.mpki_floor
    plan.wscale[i] = phase.ways_scale
    plan.sens[i] = phase.mem_sensitivity
    plan.cpi0[i] = phase.base_cpi
    plan.apki[i] = phase.apki
    plan.phase_ids[i] = proc._phase_index
    plan.spec_epochs[i] = proc._spec_epoch


def _guard_lanes(procs) -> List[tuple]:
    """``(lane, process, is_fg)`` for the lanes that can cross a phase
    boundary in their current phase."""
    guards = []
    for i, proc in enumerate(procs):
        if proc.is_fg:
            # FG pinned to its last phase only leaves it by completing,
            # which the completion path detects exactly.
            if proc._phase_index != len(proc._spec.phases) - 1:
                guards.append((i, proc, True))
        elif proc._phase_start > 0.0 or proc._phase_end < proc._total:
            # BG phase windows cover the wrapped offset; a phase that
            # spans the whole program never produces a boundary.
            guards.append((i, proc, False))
    return guards


def _build_plan(machine, procs: List, stats: SpanStats) -> Optional[SpanPlan]:
    """Compile the running processes ``procs`` (core order, phase
    cursors synced) of ``machine`` into a SpanPlan.

    Returns None for shapes the compiled path does not cover (no
    running lanes, snap-to-target occupancy, a lane in a phase without
    LLC accesses, overlapping cache-mask groups, or a non-standard
    jitter RNG on a machine that draws its jitter); the batch engine
    ticks those in ``Machine.tick``.
    """
    m = machine
    config = m.config
    num_cores = config.num_cores
    gov_freqs = m._gov_freqs
    n = len(procs)
    if n == 0 or config.cache_inertia_tau_s <= 0:
        return None
    cores = [proc.core for proc in procs]
    sigma = m._sigma
    if sigma <= 0.0:
        jitter = JITTER_OFF
    elif m._jit_tapes:
        jitter = JITTER_TAPE
    else:
        jitter = JITTER_DRAW
        for core in cores:
            # The inline gauss replays CPython's exact algorithm; any
            # substituted RNG type falls back to ``Machine.tick``.
            if type(m._jitter_rngs[core]) is not random.Random:
                return None
    active_bits = 0
    lane_index = {}
    for i, proc in enumerate(procs):
        if proc._spec.phases[proc._phase_index].apki <= 0:
            return None
        lane_index[cores[i]] = i
        active_bits |= 1 << cores[i]
    groups_cores, disjoint = m.cache.span_grouping(active_bits)
    if not disjoint:
        return None

    plan = SpanPlan()
    plan.stats = stats
    plan.procs = list(procs)
    plan.rngs = plan.tapes = None
    if jitter == JITTER_DRAW:
        plan.rngs = [m._jitter_rngs[core] for core in cores]
    elif jitter == JITTER_TAPE:
        plan.tapes = [m._jit_tapes[core] for core in cores]
    plan.jit_pos = m._jit_pos
    for _, column in LANE_COLUMNS:
        setattr(plan, column, [0.0] * n)
    plan.phase_ids = [0] * n
    plan.spec_epochs = [0] * n
    for i, proc in enumerate(procs):
        _load_phase(plan, i, proc)
        plan.freq[i] = freq = gov_freqs[cores[i]]
        plan.fh[i] = freq * 1e9
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
    plan.alpha = m.cache.inertia_alpha(config.tick_s)
    memory = m.memory
    plan.base_ns = memory.base_latency_ns
    plan.scale = memory.contention_scale
    plan.rho_cap = memory.rho_cap
    plan.inv_peak = memory.seconds_per_miss_at_peak
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
    plan.guard_procs = _guard_lanes(procs)
    plan.bounds = [math.inf] * n

    plan.slots = cores + [
        core for core in range(num_cores) if core not in lane_index
    ]
    plan.ways = [ways for ways, _ in groups_cores]
    shape = (
        num_cores,
        tuple(proc.is_fg for proc in procs),
        jitter,
        tuple(
            tuple(lane_index[c] for c in cores_g)
            for _, cores_g in groups_cores
        ),
    )
    plan.stolen = m._stolen_s
    # In-kernel sampler wakeups: the buffer SpanPlan.run replays, and
    # the RNG and jitter probability the machine's timer wheel was
    # built with (its ``schedule`` draws from them).
    plan.samples = []
    plan.timer_random = m._timer_rng.random
    plan.timer_jitter = config.timer_jitter_prob
    plan.fg_cores = tuple(core for core, proc in zip(cores, procs)
                          if proc.is_fg)
    plan.kernel = _compile_kernel(shape, plan, stats)
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
        plan, math.exp, math.log, math.cos, math.sin, math.sqrt, MPKI_SCALE,
    )


class SpanPlanner:
    """Keeps one SpanPlan per lane set of one machine.

    A lane set is the machine's running processes, each pinned to its
    core, under the current cache-mask epoch.  Phase crossings and DVFS
    grade changes do not change it: :meth:`SpanPlan.refresh` rewrites
    the moved lanes' constants in the live plan.  The planner checks
    the previous span's plan first, then a dict keyed by the running
    processes, and builds a plan for a new lane set.  A lane entering a
    phase with ``apki <= 0`` drops its lane set's plan: the planner
    declines such lanes until they leave that phase.  Mask epochs only
    grow, so every plan is dropped when the epoch moves.

    A planner serves one machine, which every call passes in: plans
    hold that machine's state arrays, but neither the planner nor its
    plans refer to the machine itself.
    """

    def __init__(self, stats: SpanStats) -> None:
        self._stats = stats
        self._plans: Dict[tuple, SpanPlan] = {}
        self._last: Optional[SpanPlan] = None
        self._epoch = -1

    def clear(self) -> None:
        """Drop every cached plan (and with it its compiled kernels)."""
        self._plans.clear()
        self._last = None

    def plan_for_span(self, m) -> Optional[SpanPlan]:
        """A plan matching machine ``m``'s current state, or None.

        None means the shape is unsupported here and the caller should
        tick the machine in ``Machine.tick``; declined shapes are not
        cached, so the next span checks again.  Stale phase cursors are
        synced first, as the scalar kernel's gather does.
        """
        epoch = m.cache.mask_epoch
        if epoch != self._epoch:
            self.clear()
            self._epoch = epoch
        procs = []
        for proc in m._procs_by_core:
            if proc is not None and proc.state == STATE_RUNNING:
                if not proc._phase_start <= proc.progress < proc._phase_end:
                    proc._sync_phase_cursor()
                procs.append(proc)
        plan = self._last
        if plan is None or plan.procs != procs:
            plan = self._plans.get(tuple(procs))
        if plan is not None and plan.refresh(m._gov_freqs):
            self._last = plan
            self._stats.plan_reuses += 1
            return plan
        key = tuple(procs)
        plan = self._last = _build_plan(m, procs, self._stats)
        if plan is None:
            self._plans.pop(key, None)
        else:
            self._plans[key] = plan
            self._stats.plan_builds += 1
        return plan
