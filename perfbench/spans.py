"""Span recorder that measures each layer of ``repro`` from outside.

The recorder wraps public functions and methods of the library (and the
callbacks the runtime hands to ``Machine.schedule_wakeup``) with
``perf_counter`` brackets.  Each span records its name, start, end, the
span that was open when it began, and the id of the benchmark operation
it belongs to.  Spans stay in memory until :meth:`Tracer.dump`.  Nothing
is wrapped until :meth:`Tracer.install`, so untraced runs execute the
library exactly as shipped.

A layer's *self* time is its spans' durations minus the part covered by
their child spans; *inclusive* time keeps the children.
"""

import functools
import json
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self):
        #: ``[name, start, end, parent_index, op_id]`` per span.
        self.spans = []
        self._stack = []
        self._undo = []
        self._machines = []
        self.op = 0
        self.cache_hits = 0
        #: Per-layer counts read from the library's own stats functions.
        self.counts = defaultdict(int)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _traced(self, name, fn, on_return=None):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, tracer.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def op_span(self, label):
        """Context manager recording one benchmark operation's root span,
        named ``op:<label>``.  Spans opened inside it share a new
        operation id.
        """
        self.op += 1
        return _Span(self, "op:" + label)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr, name, on_return=None):
        self._set(cls, attr,
                  self._traced(name, cls.__dict__[attr], on_return))

    def wrap_function(self, module, attr, name_of, on_return=None):
        """Wrap a module function in every ``repro`` module binding it.

        ``name_of`` is a span name, or a callable mapping the call's
        ``(args, kwargs)`` to one.
        """
        original = getattr(module, attr)
        if callable(name_of):
            wrapper = self._dispatching(original, name_of)
        else:
            wrapper = self._traced(name_of, original, on_return)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)

    def _dispatching(self, fn, name_of):
        cache = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            traced = cache.get(name)
            if traced is None:
                traced = cache[name] = self._traced(name, fn)
            return traced(*args, **kwargs)

        return wrapper

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    def install(self):
        """Wrap the layer boundaries of the imported library."""
        import repro.experiments.figures as figures
        import repro.experiments.harness as harness
        import repro.experiments.report as report
        from repro.cluster.dispatch import Cluster
        from repro.core.fine import FineGrainController
        from repro.core.predictor import CompletionTimePredictor
        from repro.core.profile import OfflineProfiler
        from repro.core.runtime import DirigentRuntime
        from repro.experiments.diskcache import DiskCache
        from repro.sim.machine import Machine

        tracer = self

        # repro.sim: the tick kernel and the batched span engine.
        self.wrap_method(Machine, "run_ticks", "sim.run_ticks")
        self.wrap_method(Machine, "tick", "sim.tick")
        machine_init = Machine.__dict__["__init__"]

        @functools.wraps(machine_init)
        def init(machine, *args, **kwargs):
            machine_init(machine, *args, **kwargs)
            tracer._machines.append(machine)

        self._set(Machine, "__init__", init)

        # Timer callbacks: the runtime's sampling wakeups, apart from
        # every other timer (profiler samples, actuation retries).
        schedule = Machine.__dict__["schedule_wakeup"]

        @functools.wraps(schedule)
        def schedule_wakeup(machine, delay_s, callback):
            owner = getattr(callback, "__self__", None)
            name = ("core.wakeup" if isinstance(owner, DirigentRuntime)
                    else "core.timer")
            return schedule(machine, delay_s,
                            tracer._traced(name, callback))

        self._set(Machine, "schedule_wakeup", schedule_wakeup)

        add_listener = Machine.__dict__["add_completion_listener"]

        @functools.wraps(add_listener)
        def add_completion_listener(machine, listener):
            return add_listener(
                machine, tracer._traced("harness.listener", listener))

        self._set(Machine, "add_completion_listener", add_completion_listener)

        # repro.core: predictor, fine controller, completion handling.
        self.wrap_method(CompletionTimePredictor, "predict", "core.predict")
        self.wrap_method(CompletionTimePredictor, "observe", "core.observe")
        self.wrap_method(FineGrainController, "decide", "core.decide")
        self.wrap_method(DirigentRuntime, "on_fg_completion",
                         "core.completion")
        self.wrap_method(OfflineProfiler, "profile", "core.profile")

        # repro.experiments.harness: sessions, drive loop, cached cells.
        self.wrap_method(harness.PolicySession, "__init__",
                         "harness.session")
        self.wrap_method(harness.PolicySession, "advance", "harness.advance")
        self.wrap_method(harness.PolicySession, "tick", "harness.tick")
        self.wrap_function(harness, "run_policy", _run_span_name)
        self.wrap_function(harness, "measure_baseline", "harness.baseline")
        self.wrap_function(harness, "find_static_partition",
                           "harness.partition")

        # repro.experiments.diskcache: the result cache.
        self.wrap_method(DiskCache, "get", "cache.get", self._count_hit)
        self.wrap_method(DiskCache, "put", "cache.put")

        # repro.experiments.figures / report: figure assembly, rendering.
        registry = figures.FIGURES
        for name, driver in list(registry.items()):
            traced = self._traced("figures.assemble", driver)
            self._set(figures, driver.__name__, traced)
            self._undo.append(functools.partial(
                registry.__setitem__, name, driver))
            registry[name] = traced
        self.wrap_function(report, "render", "report.render")

        # repro.cluster: the fleet control plane (node advances are the
        # harness and sim spans nested inside it).
        self.wrap_method(Cluster, "run", "cluster.run")

    def _count_hit(self, result):
        if result[0]:
            self.cache_hits += 1

    # ------------------------------------------------------------------
    # Counts from the library's stats functions
    # ------------------------------------------------------------------

    def drain_machines(self):
        """Fold the backend stats of every machine built so far."""
        counts = self.counts
        for machine in self._machines:
            ticks = machine.clock.tick
            counts["sim.ticks"] += ticks
            stats = machine.backend_stats() or {}
            for key in ("spans", "stationary_ticks", "rho_iterations",
                        "table_hits", "table_builds", "kernels_compiled",
                        "memo_hits", "memo_misses"):
                counts["sim." + key] += stats.get(key, 0)
            if stats.get("spans"):
                counts["sim.span_machine_ticks"] += ticks
        self._machines.clear()

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def totals(self):
        """``name -> [count, inclusive_s, self_s]`` over all spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            row = out.get(name)
            if row is None:
                row = out[name] = [0, 0.0, 0.0]
            dur = end - start
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


class _Span:
    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, perf_counter(), 0.0,
                             stack[-1] if stack else -1, tracer.op])
        stack.append(self._index)
        return self

    def __exit__(self, *exc):
        self._tracer._stack.pop()
        self._tracer.spans[self._index][2] = perf_counter()
        return False


def _run_span_name(args, kwargs):
    policy = args[1] if len(args) > 1 else kwargs.get("policy")
    name = getattr(policy, "name", "")
    if name == "Baseline":
        return "harness.run.baseline"
    if name == "PartitionSweep":
        return "harness.run.sweep"
    return "harness.run"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, counts, import_s, render_ticks, wall_traced,
                  wall_untraced, traced_s):
    """Per-layer metrics from merged span totals and library counts.

    ``totals`` maps span name to ``[count, inclusive_s, self_s]`` summed
    over every traced process of the run; ``traced_s`` is the wall time
    those processes spent with the recorder installed.
    """
    def count(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_(*names):
        return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    sim_self = self_("sim.run_ticks", "sim.tick")
    ticks = counts.get("sim.ticks", 0)
    spans = counts.get("sim.spans", 0)
    memo = counts.get("sim.memo_hits", 0) + counts.get("sim.memo_misses", 0)
    output = (counts.get("stat.output_hits", 0)
              + counts.get("stat.output_builds", 0))
    penalty = (counts.get("stat.penalty_hits", 0)
               + counts.get("stat.penalty_builds", 0))
    gets = count("cache.get")
    wakeups = count("core.wakeup")
    return {
        "sim.self_s": sim_self,
        "sim.ticks": ticks,
        "sim.ticks_per_s": _ratio(ticks, sim_self),
        "sim.spans": spans,
        "sim.ticks_per_span": _ratio(
            counts.get("sim.span_machine_ticks", 0), spans),
        "sim.stationary_ticks": counts.get("sim.stationary_ticks", 0),
        "sim.rho_iterations": counts.get("sim.rho_iterations", 0),
        "sim.table_hits": counts.get("sim.table_hits", 0),
        "sim.table_builds": counts.get("sim.table_builds", 0),
        "sim.memo_lookups": memo,
        "sim.memo_hit_ratio": _ratio(counts.get("sim.memo_hits", 0), memo),
        "sim.output_memo_lookups": output,
        "sim.output_memo_hit_ratio": _ratio(
            counts.get("stat.output_hits", 0), output),
        "sim.penalty_lookups": penalty,
        "sim.penalty_hit_ratio": _ratio(
            counts.get("stat.penalty_hits", 0), penalty),
        "sim.kernels_compiled": counts.get("sim.kernels_compiled", 0),
        "sim.kernel_disk_hits": counts.get("stat.kernel_disk_hits", 0),
        "core.wakeup_s": incl("core.wakeup"),
        "core.wakeups": wakeups,
        "core.decision_ratio": _ratio(count("core.decide"), wakeups),
        "core.predict_calls": count("core.predict"),
        "core.predict_s": incl("core.predict"),
        "core.observe_calls": count("core.observe"),
        "core.observe_s": incl("core.observe"),
        "core.decide_s": incl("core.decide"),
        "core.completion_s": incl("core.completion"),
        "core.repartitions": counts.get("core.repartitions", 0),
        "core.profile_s": incl("core.profile"),
        "harness.session_s": self_("harness.session"),
        "harness.bookkeep_s": self_(
            "harness.advance", "harness.tick", "harness.listener",
            "harness.run", "harness.run.baseline", "harness.run.sweep"),
        "harness.blocks": count("harness.advance"),
        "harness.baseline_s": incl("harness.run.baseline"),
        "harness.baseline_runs": count("harness.run.baseline"),
        "harness.partition_s": incl("harness.partition"),
        "harness.partition_runs": count("harness.run.sweep"),
        "cache.gets": gets,
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0), gets),
        "cache.get_s": incl("cache.get"),
        "cache.puts": count("cache.put"),
        "cache.put_s": incl("cache.put"),
        "cache.bytes": counts.get("cache.bytes", 0),
        "cache.corrupt_drops": counts.get("cache.corrupt_drops", 0),
        "figures.assemble_s": self_("figures.assemble"),
        "report.render_s": incl("report.render"),
        "import_s": import_s,
        "rerender.sim_ticks": render_ticks,
        "cluster.control_s": self_("cluster.run"),
        "cluster.failovers": counts.get("cluster.failovers", 0),
        "cluster.retries": counts.get("cluster.retries", 0),
        "cluster.stranded": counts.get("cluster.stranded", 0),
        "faults.injected": counts.get("faults.injected", 0),
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.unattributed_s": traced_s - sum(
            row[2] for name, row in totals.items()
            if not name.startswith("op:")),
    }
