"""End-to-end and per-layer benchmark of the Dirigent reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload managed|fig10|fleet-chaos \
        --seed N --seconds S --trace 0|1

Every workload is a closed loop: one client, no think time, one
simulation process at a time (``REPRO_WORKERS=1``).  Each pass runs in a
fresh child process (``child.py``) that imports ``repro`` from ``src/``,
sets the workload up and runs one pass of it, so every pass pays the
same cold-process costs a user pays.  A run makes enough passes to fill
``--seconds`` at the workload's nominal pass length (``PASS_S``), and
at least two, and reports each operation at its fastest and set-up
times as a median.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs an untraced and then a traced pass and prints the
per-layer metrics (see ``spans.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is non-zero when any operation failed or a
check did not hold.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from child import FIG10_FIGURES, WORKLOAD_ENV  # noqa: E402
from spans import layer_metrics  # noqa: E402

WORKLOADS = tuple(WORKLOAD_ENV)

#: Pass length of each workload on the 2-vCPU build host.  A run makes
#: ``ceil(--seconds / PASS_S)`` passes, and at least ``MIN_PASSES``, so
#: the count depends on the workload and ``--seconds`` alone: stopping
#: once the measured time reaches ``--seconds`` would give slow runs
#: fewer passes than fast ones, which biases the result wherever a pass
#: lasts about ``--seconds / k``, and would give a faster commit more
#: passes.
PASS_S = {"managed": 10.0, "fig10": 13.0, "fleet-chaos": 22.0}

#: ``wall_s`` times each operation at its fastest over the run's
#: passes, so it needs two of them.
MIN_PASSES = 2

#: Set-up samples per run (pass processes count as samples): at least
#: the first, and up to the second while set-up-only processes have
#: used less than ``SETUP_TOPUP_S``.
SETUP_SAMPLES = (3, 5)
SETUP_TOPUP_S = 3.0

#: Fresh-process re-renders of fig10 after each pass, and at least per
#: run: the samples are spread over the run because host speed drifts
#: over seconds.
RENDERS_PER_PASS = 2
RENDER_SAMPLES = 3

#: Printed beside the end-to-end metrics but given no bound.
#: ``rerender_s`` applies to ``fig10`` only, and ``std_reduction``, a
#: sigma ratio over 10 executions, moves more across seeds than a bound
#: of at most 0.25 holds.
UNBOUNDED = ("rerender_s", "std_reduction")

#: Seed kept out of every tuning run, for rechecking a claimed gain.
HELD_OUT_SEED = 7919

#: No new pass starts once a run has used this much wall time.
RUN_LIMIT_S = 150.0

#: Paper values for the fidelity metrics (fig10 and headline notes).
PAPER = {
    "fg_success": (0.99, "fig10 note: Dirigent ~0.99 FG success"),
    "bg_loss": (0.09, "headline note: 9% BG loss"),
    "std_reduction": (0.85, "headline note: 85% sigma reduction"),
}

FIDELITY_NOTES = (
    "the model is checked only against the paper's shape (who wins, by "
    "roughly what factor), not its absolute numbers",
    "small E is sampling-limited: fig10 over all 35 mixes prints Dirigent "
    "FG success / BG harmonic mean 0.729 / 0.0 at E=2, 0.934 / 0.599 at "
    "E=10 and 0.991 / 0.915 at the default E=40 (EXPERIMENTS.md)",
)


class Failures:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, notes=()):
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes)


class Bench:
    def __init__(self, root, work, workload, seed):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.failures = Failures()
        self.children = 0
        self.last_cache = None

    def _run(self, args, cache_dir):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(WORKLOAD_ENV[self.workload])
        env.update({
            "PYTHONPATH": os.path.join(self.root, "src"),
            "PYTHONHASHSEED": "0",
            "REPRO_WORKERS": "1",
            "REPRO_CACHE_DIR": cache_dir,
        })
        timeout = max(10.0, 175.0 - (time.perf_counter() - self.started))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "child.py")]
                + args, cwd=self.root, env=env, stdout=subprocess.PIPE,
                universal_newlines=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        return proc.returncode, proc.stdout, elapsed

    def measured(self, mode, trace=False):
        """One ``pass`` or ``setup`` child; its record, or None."""
        self.children += 1
        out = os.path.join(self.work, "record-%d.json" % self.children)
        cache = os.path.join(self.work, "cache-%d" % self.children)
        code, _, elapsed = self._run(
            [mode, self.workload, str(self.seed), self.work,
             "1" if trace else "0", out], cache_dir=cache)
        if code != 0 or not os.path.exists(out):
            self.failures.add(1, 1, ["%s process exited with %s"
                                     % (mode, code)])
            return None
        with open(out) as handle:
            record = json.load(handle)
        record["elapsed"] = elapsed
        if mode == "pass":
            self.failures.add(record["attempted"], record["failed"],
                              record["failures"])
            if self.last_cache:
                shutil.rmtree(self.last_cache, ignore_errors=True)
            self.last_cache = cache
        else:
            shutil.rmtree(cache, ignore_errors=True)
        return record

    def rerender(self, trace=False):
        """Fresh-process ``repro figure`` runs against the last fig10 pass.

        Returns ``(seconds, records)``; each figure printed must match
        the text the pass rendered, byte for byte.
        """
        total = 0.0
        records = []
        for name in FIG10_FIGURES:
            self.children += 1
            out = os.path.join(self.work, "record-%d.json" % self.children)
            code, text, elapsed = self._run(
                ["render", self.workload, str(self.seed), self.work,
                 "1" if trace else "0", out, name],
                cache_dir=self.last_cache)
            total += elapsed
            try:
                with open(os.path.join(self.work, name + ".txt")) as handle:
                    expected = handle.read()
            except FileNotFoundError:  # the pass failed to render it
                expected = None
            ok = code == 0 and text == expected and os.path.exists(out)
            self.failures.add(1, 0 if ok else 1, [] if ok else [
                "re-render of %s differs from the pass output" % name])
            if ok:
                with open(out) as handle:
                    records.append(json.load(handle))
        return total, records

    def elapsed(self):
        return time.perf_counter() - self.started

    def untraced(self, seconds):
        renders_per_pass, render_samples = (
            (RENDERS_PER_PASS, RENDER_SAMPLES) if self.workload == "fig10"
            else (0, 0))
        passes = []
        renders = []
        count = max(MIN_PASSES, math.ceil(seconds / PASS_S[self.workload]))
        for _ in range(count):
            if passes and self.elapsed() + passes[-1]["elapsed"] \
                    > RUN_LIMIT_S:
                break
            record = self.measured("pass")
            if record is None:
                break
            passes.append(record)
            renders += [self.rerender()[0] for _ in range(renders_per_pass)]
        if not passes:
            return None, {}
        while len(renders) < render_samples:
            renders.append(self.rerender()[0])
        setups = [p["setup_s"] for p in passes]
        topup_s = 0.0
        while len(setups) < SETUP_SAMPLES[0] or (
                len(setups) < SETUP_SAMPLES[1] and topup_s < SETUP_TOPUP_S):
            record = self.measured("setup")
            if record is None:
                break
            setups.append(record["setup_s"])
            topup_s += record["elapsed"]
        self.check_digests(passes)
        first = passes[0]
        metrics = {
            "wall_s": fastest_pass_s(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in passes),
        }
        if renders:
            metrics["rerender_s"] = statistics.median(renders)
        metrics.update(first["fidelity"])
        info = {"passes": passes, "setups": setups, "renders": renders}
        return first, dict(metrics=metrics, **info)

    def traced(self):
        # The untraced pass runs first, so byte-compiling the sources
        # falls outside the traced one.
        before = self.measured("pass")
        traced = self.measured("pass", trace=True)
        if None in (before, traced):
            return None, {}
        renders = self.rerender(trace=True)[1] \
            if self.workload == "fig10" else []
        self.check_digests([before, traced])
        totals = {}
        counts = dict(traced["counts"])
        traced_s = traced["traced_s"]
        for record in [traced] + renders:
            for name, row in record["totals"].items():
                acc = totals.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += row[i]
        for record in renders:
            traced_s += record["traced_s"]
            counts["cache.hits"] = (counts.get("cache.hits", 0)
                                    + record["counts"]["cache.hits"])
        import_s = statistics.median(
            r["import_s"] for r in [before, traced] + renders)
        render_ticks = sum(r["counts"].get("sim.ticks", 0) for r in renders)
        metrics = layer_metrics(
            totals, counts, import_s, render_ticks, traced["wall_s"],
            before["wall_s"], traced_s)
        return traced, {"metrics": metrics, "passes": [before, traced]}

    def check_digests(self, passes):
        digests = sorted(set(p["digest"] for p in passes))
        if len(digests) > 1:
            self.failures.add(0, 1, ["sim_digest differs between passes: %s"
                                     % ", ".join(digests)])


def fastest_pass_s(passes):
    """One pass's time at nominal host speed, each operation at its
    fastest over the passes.

    The host-speed scaling (``child.HostSpeed``) removes the drift of
    minutes; what is left are bursts of a few seconds that only ever
    slow an operation, so the faster of two samples taken one pass apart
    is the one they disturbed less.  Passes run the operations in the
    same order, which keeps every operation's samples a pass apart.
    """
    best = {}
    for record in passes:
        for label, seconds in record["op_s"].items():
            best[label] = min(seconds, best.get(label, seconds))
    return sum(best.values())


def _fmt(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def report(bench, record, info, units, trace):
    out = []
    host = record["host"] if record else {}
    out.append("perfbench %s seed=%d trace=%d (held-out seed: %d)"
               % (bench.workload, bench.seed, trace, HELD_OUT_SEED))
    if host:
        out.append(
            "host: nproc=%s loadavg=%s python=%s numpy=%s backend=%s "
            "workers=%s kernel_cache=%s"
            % (host["nproc"], "/".join(str(x) for x in host["loadavg"]),
               host["python"], "yes" if host["numpy"] else "no",
               host["backend"], host["workers"], host["kernel_cache"]))
        out.append("knobs: %s" % (" ".join(
            "%s=%s" % (k, v) for k, v in host["knobs"]) or "(defaults)"))
    passes = info.get("passes", [])
    if passes:
        out.append("passes: %d (%s s as timed; host speed %s)" % (
            len(passes), ", ".join("%.3f" % p["wall_s"] for p in passes),
            ", ".join("%.3f" % p["speed"] for p in passes)))
        out.append("sim_digest: %s" % passes[0]["digest"])
    if "setups" in info:
        out.append("setup samples: %s s" % ", ".join(
            "%.3f" % s for s in info["setups"]))
    if info.get("renders"):
        out.append("re-render samples: %s s" % ", ".join(
            "%.3f" % s for s in info["renders"]))
    for name, value in info.get("metrics", {}).items():
        unit = units.get(name, "s" if name.endswith("_s") else "fraction")
        line = "%-26s %14s %s" % (name, _fmt(value), unit)
        if name in PAPER:
            line += "   (paper %.2f, %s)" % PAPER[name]
        if name in UNBOUNDED:
            line += "   (printed, no bound)"
        out.append(line)
    if not trace:
        for note in FIDELITY_NOTES:
            out.append("note: %s" % note)
    failures = bench.failures
    ratio = (failures.failed / failures.attempted
             if failures.attempted else 1.0)
    out.append("%-26s %14s fraction   (%d failed of %d operations)" % (
        "failed_ratio", _fmt(ratio), failures.failed, failures.attempted))
    for note in failures.notes:
        out.append("failure: %s" % note)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under %s"
              % os.path.join(root, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    work = os.path.join(root, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(root, work, args.workload, args.seed)
    try:
        if args.trace:
            record, info = bench.traced()
        else:
            record, info = bench.untraced(args.seconds)
    finally:
        for entry in os.listdir(work):
            if entry.startswith("cache-"):
                shutil.rmtree(os.path.join(work, entry), ignore_errors=True)
    metrics = info.get("metrics", {})
    missing = [name for name in wanted if name not in metrics]
    if missing:
        bench.failures.add(0, 1, ["no value for %s" % ", ".join(missing)])
    for line in report(bench, record, info, units, args.trace):
        print(line)
    failures = bench.failures
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted if name in metrics},
    }))
    return 0 if failures.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
