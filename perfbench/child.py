"""One measured process of the benchmark: set up, run one pass, check.

Usage (run from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py pass|setup WORKLOAD SEED WORKDIR TRACE OUT
    python3 perfbench/child.py render fig10 SEED WORKDIR TRACE OUT FIGURE

``pass`` sets the workload up, runs one pass of it, checks every output
and writes a JSON record to ``OUT``; ``setup`` stops after the set-up;
``render`` runs ``repro figure FIGURE`` against the result cache the
last ``fig10`` pass filled.  With ``TRACE`` = 1 the process records
layer spans (see ``spans.py``).
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

#: The host-speed sampler runs ``_reference`` once every
#: ``SAMPLE_EVERY_S`` of wall time; at nominal host speed one run takes
#: ``REFERENCE_S``.
SAMPLE_EVERY_S = 0.1
REFERENCE_S = 0.0025

#: Fig. 9c mixes run under Dirigent by ``managed``, at this many
#: measured executions per FG task.
MANAGED_EXECUTIONS = 10

#: ``fig10`` regenerates fig10 and headline over these single-FG mixes
#: (all five FGs, the three single BGs and two rotate pairs).  The full
#: 35-mix figure takes over a minute cold, more than one run may spend.
FIG10_MIXES = (
    "ferret rs",
    "raytrace bwaves",
    "streamcluster pca",
    "bodytrack libquantum+soplex",
    "fluidanimate lbm+soplex",
)
FIG10_EXECUTIONS = 10
FIG10_FIGURES = ("fig10", "headline")

#: Result-cache setting per workload (``managed`` runs with it off).
WORKLOAD_ENV = {
    "managed": {"REPRO_CACHE": "0"},
    "fig10": {},
    "fleet-chaos": {},
}


def _reference():
    """Fixed pure-Python work whose duration gauges the host's speed."""
    total = 0.0
    for i in range(20000):
        total += (i * 1.0001) % 7.0
    return total


class HostSpeed:
    """Samples the host's speed from inside the measured process.

    On a shared host this process runs tens of percent slower or faster
    from one minute to the next, CPU time with wall time.  A reference
    loop timed between the operations of a pass tracks that drift, so a
    SIGALRM every ``SAMPLE_EVERY_S`` runs ``_reference`` between two
    bytecodes of whatever the process is doing: the samples spread
    evenly over every interval timed, long operations included.
    :meth:`interval` takes the samples' own time out of an interval and
    scales the rest to nominal host speed.
    """

    def __init__(self):
        self.reference_s = 0.0
        self.samples = 0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference()
        self.reference_s += time.perf_counter() - start
        self.samples += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self):
        return time.perf_counter(), self.reference_s, self.samples

    def interval(self, since):
        """``(seconds, speed)`` since ``since``, a :meth:`mark`.

        ``seconds`` is the wall time less the samples'; ``speed`` is
        nominal over measured reference time, 1.0 without samples.
        """
        start, reference_s, samples = since
        reference_s = self.reference_s - reference_s
        samples = self.samples - samples
        seconds = time.perf_counter() - start - reference_s
        if not samples:  # shorter than the sampling period
            reference_s, samples = self.reference_s, self.samples
        speed = REFERENCE_S * samples / reference_s if samples else 1.0
        return seconds, speed

    def scaled(self, since):
        """Seconds since ``since`` at nominal host speed."""
        seconds, speed = self.interval(since)
        return seconds * speed


class Ops:
    """Counts and times operations; a raise or a failed check fails one."""

    def __init__(self, host):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.host = host
        #: Seconds of each operation at nominal host speed, by label.
        self.op_s = {}

    def run(self, label, fn):
        """Run one operation; returns ``fn()``'s value or None on failure.

        ``fn`` returns ``(value, problems)``: any problem fails the
        operation, as an exception does.
        """
        self.attempted += 1
        start = self.host.mark()
        try:
            value, problems = fn()
        except Exception:  # one failed operation; the pass continues
            traceback.print_exc()
            problems = ["raised %r" % (sys.exc_info()[1],)]
            value = None
        self.op_s[label] = self.host.scaled(start)
        if problems:
            self.failed += 1
            self.failures.append("%s: %s" % (label, "; ".join(problems)))
            print("FAILED %s: %s" % (label, problems), file=sys.stderr)
            return None
        return value


def digest(items):
    """sha256 over the exact ``repr`` of simulated outputs."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# managed: run_policy(mix, DIRIGENT) on each Fig. 9c mix, cache off
# ----------------------------------------------------------------------


class Managed:
    def setup(self, seed):
        from repro.core.runtime import RuntimeOptions
        from repro.experiments import harness, mixes

        self.harness = harness
        self.mixes = mixes.multi_fg_mixes()
        self.baselines = {
            mix.name: harness.measure_baseline(
                mix, executions=MANAGED_EXECUTIONS, seed=seed)
            for mix in self.mixes
        }
        period = RuntimeOptions().sampling_period_s
        for fg in dict.fromkeys(mix.fg_name for mix in self.mixes):
            harness.get_profile(fg, sampling_period_s=period)

    def run_pass(self, seed, ops, tracer):
        from repro.core.policies import DIRIGENT

        results = []
        for mix in self.mixes:
            baseline = self.baselines[mix.name]

            def op(mix=mix, baseline=baseline):
                result = self.harness.run_policy(
                    mix, DIRIGENT, executions=MANAGED_EXECUTIONS, seed=seed)
                problems = []
                if len(result.durations_s) != mix.fg_count or any(
                        len(task) != MANAGED_EXECUTIONS
                        for task in result.durations_s):
                    problems.append("expected %d x %d durations"
                                    % (mix.fg_count, MANAGED_EXECUTIONS))
                if result.deadlines_s != baseline.deadlines_s:
                    problems.append("deadlines differ from the Baseline's")
                return result, problems

            with tracer.op_span(mix.name):
                results.append(ops.run(mix.name, op))
        self.results = results

    def outputs(self, seed):
        from repro.experiments.metrics import std_reduction

        pairs = [(r, self.baselines[r.mix.name])
                 for r in self.results if r is not None]
        fidelity = {
            "fg_success": mean([r.fg_success_ratio for r, _ in pairs]),
            "bg_loss": mean([1.0 - r.bg_instr_per_s / b.bg_instr_per_s
                             for r, b in pairs]),
            "std_reduction": mean([
                std_reduction(b.fg_stats.std_s, r.fg_stats.std_s)
                for r, b in pairs]),
        }
        items = [x for pair in pairs for x in pair]
        repartitions = sum(len(r.partition_history) for r, _ in pairs)
        return fidelity, items, {"core.repartitions": repartitions}


# ----------------------------------------------------------------------
# fig10: regenerate fig10 then headline from an empty result cache
# ----------------------------------------------------------------------


def _restrict_fig10_mixes():
    import repro.experiments.figures as figures
    from repro.experiments.mixes import mix_by_name

    chosen = [mix_by_name(name) for name in FIG10_MIXES]
    figures.all_single_fg_mixes = lambda: list(chosen)


class Fig10:
    def setup(self, seed):
        import repro.experiments.figures  # noqa: F401
        import repro.experiments.report  # noqa: F401

        _restrict_fig10_mixes()

    def run_pass(self, seed, ops, tracer):
        from repro.core.policies import PAPER_POLICIES
        from repro.experiments import figures, parallel, report

        expected = {
            "fig10": tuple(p.name for p in PAPER_POLICIES),
            "headline": ("DirigentFreq", "Dirigent"),
        }
        self.figures = {}
        self.texts = {}
        for name in FIG10_FIGURES:
            def op(name=name):
                result = figures.FIGURES[name](
                    seed=seed, executions=FIG10_EXECUTIONS)
                text = report.render(result, sweep=parallel.last_sweep())
                labels = tuple(row[0] for row in result.rows)
                problems = []
                if labels != expected[name]:
                    problems.append("rows %r, expected %r"
                                    % (labels, expected[name]))
                return (result, text), problems

            with tracer.op_span(name):
                value = ops.run(name, op)
            if value is not None:
                self.figures[name], self.texts[name] = value

    def outputs(self, seed):
        from repro.core.policies import PAPER_POLICIES
        from repro.experiments import harness
        from repro.experiments.mixes import mix_by_name

        fidelity = {}
        fig10 = self.figures.get("fig10")
        headline = self.figures.get("headline")
        if fig10 is not None and headline is not None:
            dirigent = dict((row[0], row) for row in fig10.rows)["Dirigent"]
            hl = dict((row[0], row) for row in headline.rows)["Dirigent"]
            fidelity = {"fg_success": float(dirigent[1]),
                        "bg_loss": float(hl[2]),
                        "std_reduction": float(hl[1])}
        # Every cell the figures used, read back from the result cache.
        items = [self.texts.get(name) for name in FIG10_FIGURES]
        repartitions = 0
        for mix_name in FIG10_MIXES:
            mix = mix_by_name(mix_name)
            items.append(harness.find_static_partition(mix, seed=seed))
            for policy in PAPER_POLICIES:
                result = harness.run_policy_cached(
                    mix, policy, executions=FIG10_EXECUTIONS, seed=seed)
                items.append(result)
                repartitions += len(result.partition_history)
        return fidelity, items, {"core.repartitions": repartitions}

    def save(self, workdir):
        for name, text in self.texts.items():
            with open(os.path.join(workdir, name + ".txt"), "w") as handle:
                handle.write(text + "\n")

    @staticmethod
    def render(seed, name):
        """``repro figure NAME``, printed to standard output."""
        import repro.__main__ as cli

        _restrict_fig10_mixes()
        cli.main(["figure", name, "--executions", str(FIG10_EXECUTIONS),
                  "--seed", str(seed)])


# ----------------------------------------------------------------------
# fleet-chaos: node-fault scenarios over a 5-node Dirigent fleet
# ----------------------------------------------------------------------


class FleetChaos:
    def setup(self, seed):
        from repro.core.policies import BASELINE
        from repro.experiments import chaos
        from repro.experiments.mixes import mix_by_name
        from repro.experiments.parallel import run_grid

        self.chaos = chaos
        # The Baseline warm-up sweep ``repro chaos --fleet`` runs first.
        run_grid([mix_by_name(chaos.DEFAULT_FLEET_MIX)], [BASELINE],
                 executions=chaos.DEFAULT_FLEET_EXECUTIONS, warmup=3,
                 seed=seed)

    def run_pass(self, seed, ops, tracer):
        from repro.faults import FLEET_SCENARIO_NAMES

        self.results = []
        for name in FLEET_SCENARIO_NAMES:
            def op(name=name):
                result = self.chaos.run_fleet_cell(name, seed=seed)
                problems = []
                if result.fleet_report is None:
                    problems.append("no fleet report")
                if not 0.0 <= result.fg_success_ratio <= 1.0:
                    problems.append("attainment %r outside [0, 1]"
                                    % result.fg_success_ratio)
                return result, problems

            with tracer.op_span(name):
                result = ops.run(name, op)
            if result is not None:
                self.results.append((name, result))

    def outputs(self, seed):
        from repro.experiments import harness
        from repro.experiments.metrics import std_reduction
        from repro.experiments.mixes import mix_by_name

        chaos = self.chaos
        items = []
        losses = []
        reductions = []
        counts = {"cluster.failovers": 0, "cluster.retries": 0,
                  "cluster.stranded": 0, "faults.injected": 0,
                  "core.repartitions": 0}
        for name, result in self.results:
            report = result.fleet_report
            items.append((name, result.fg_success_ratio,
                          report.event_signature,
                          sorted(result.node_results.items())))
            for label, (mix_name, _, node_seed) in sorted(
                    result.node_labels.items()):
                run = result.node_results.get(label)
                if run is None:
                    continue
                base = harness.measure_baseline(
                    mix_by_name(mix_name),
                    executions=chaos.DEFAULT_FLEET_EXECUTIONS, warmup=3,
                    seed=node_seed)
                losses.append(1.0 - run.bg_instr_per_s / base.bg_instr_per_s)
                reductions.append(
                    std_reduction(base.fg_stats.std_s, run.fg_stats.std_s))
            counts["cluster.failovers"] += result.failovers
            counts["cluster.retries"] += result.failover_retries
            counts["cluster.stranded"] += result.stranded_executions
            counts["faults.injected"] += report.total_injected
            counts["core.repartitions"] += sum(
                len(r.partition_history)
                for r in result.node_results.values())
        fidelity = {
            "fg_success": mean([r.fg_success_ratio
                                for _, r in self.results]),
            "bg_loss": mean(losses),
            "std_reduction": mean(reductions),
        }
        return fidelity, items, counts


WORKLOADS = {"managed": Managed, "fig10": Fig10, "fleet-chaos": FleetChaos}


# ----------------------------------------------------------------------
# Process entry points
# ----------------------------------------------------------------------


def host_record():
    import importlib.util
    import platform

    from repro.experiments.diskcache import get_kernel_cache
    from repro.experiments.parallel import default_workers
    from repro.sim.batch import resolve_backend
    from repro.sim.config import knob_fingerprint

    kernels = get_kernel_cache()
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "backend": resolve_backend(),
        "workers": default_workers(),
        "kernel_cache": "enabled" if kernels.enabled else "disabled",
        "knobs": [[k, v] for k, v in knob_fingerprint() if v is not None],
    }


def _check_checkout():
    import repro

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit("repro imported from %s, not %s"
                         % (repro.__file__, src))


def _stats_snapshot():
    from repro.sim.perf import solver_table_stats
    from repro.sim.spanplan import kernel_cache_stats

    snap = dict(solver_table_stats())
    snap.update(kernel_cache_stats())
    return snap


def _import_figures(host):
    """Seconds taken to import ``repro.experiments.figures``."""
    start = host.mark()
    import repro.experiments.figures  # noqa: F401

    import_s = host.interval(start)[0]
    _check_checkout()
    return import_s


def run_measured(mode, workload, seed, workdir, trace, out_path):
    # Untraced processes sample the host's speed from the start; the
    # samples would land in the spans of a traced one.
    host = HostSpeed()
    if not trace:
        host.start()
    import_s = _import_figures(host)
    tracer = Tracer()
    if trace:
        tracer.install()
    traced_from = time.perf_counter()
    work = WORKLOADS[workload]()
    before = _stats_snapshot()
    work.setup(seed)
    record = {"setup_s": host.scaled((T0, 0.0, 0)), "import_s": import_s}
    if mode == "pass":
        ops = Ops(host)
        start = host.mark()
        work.run_pass(seed, ops, tracer)
        wall_s, speed = host.interval(start)
        end = time.perf_counter()
        host.stop()
        after = _stats_snapshot()
        if trace:
            tracer.uninstall()
            tracer.drain_machines()
        fidelity, items, counts = work.outputs(seed)
        if workload == "fig10":
            work.save(workdir)
        record.update({
            "wall_s": wall_s,
            "speed": speed,
            "op_s": ops.op_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "failures": ops.failures,
            "fidelity": fidelity,
            "digest": digest(items),
            "host": host_record(),
        })
        if trace:
            from repro.experiments.diskcache import get_cache

            cache = get_cache().stats()
            counts.update({
                "cache.bytes": cache["total_bytes"],
                "cache.corrupt_drops": cache["corrupt_drops"],
                "cache.hits": tracer.cache_hits,
            })
            for key in after:
                counts["stat." + key] = after[key] - before.get(key, 0)
            for key, value in tracer.counts.items():
                counts[key] = value
            record["traced_s"] = end - traced_from
            record["totals"] = tracer.totals()
            record["counts"] = counts
            tracer.dump(os.path.join(workdir, "spans-pass.jsonl"))
    host.stop()
    with open(out_path, "w") as handle:
        json.dump(record, handle)


def run_render(seed, workdir, trace, out_path, figure):
    import_s = _import_figures(HostSpeed())
    tracer = Tracer()
    if trace:
        tracer.install()
    traced_from = time.perf_counter()
    Fig10.render(seed, figure)
    sys.stdout.flush()
    record = {"import_s": import_s}
    if trace:
        record["traced_s"] = time.perf_counter() - traced_from
        tracer.uninstall()
        tracer.drain_machines()
        record["totals"] = tracer.totals()
        record["counts"] = dict(tracer.counts, **{"cache.hits":
                                                  tracer.cache_hits})
        tracer.dump(os.path.join(workdir, "spans-render-%s.jsonl" % figure))
    with open(out_path, "w") as handle:
        json.dump(record, handle)


def main(argv):
    mode, workload, seed, workdir, trace, out_path = argv[:6]
    seed = int(seed)
    trace = trace == "1"
    if mode == "render":
        run_render(seed, workdir, trace, out_path, argv[6])
    else:
        run_measured(mode, workload, seed, workdir, trace, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
