"""Command-line entry point: regenerate paper figures as text tables.

Usage::

    python -m repro list
    python -m repro figure fig10 [--executions 40] [--seed 0] [--max-rows 40]
    python -m repro figure fig10 --workers 4
    python -m repro table1
    python -m repro cache stats
    python -m repro cache clear
    python -m repro bench [--profile profile.pstats] [--skip-floors]
    python -m repro lint [paths ...] [--format=json] [--select=DET,ENV]
    python -m repro chaos [--scenario sensor-degraded] [--mix "bodytrack bwaves"]
    python -m repro chaos --fleet [--scenario node-crash] [--nodes 5]
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.figures import FIGURES
from repro.experiments.report import render


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures of the Dirigent (ASPLOS 2016) paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available figures")
    fig = sub.add_parser("figure", help="run one figure driver")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--executions", type=int, default=None,
                     help="FG executions per run, at least 1 (default: "
                          "REPRO_EXECUTIONS or 40)")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--max-rows", type=int, default=0,
                     help="truncate output to this many rows (0 = all)")
    fig.add_argument("--workers", type=int, default=None,
                     help="worker processes for the sweep, at least 1 "
                          "(default: REPRO_WORKERS or the CPU count; "
                          "1 = serial)")
    fig.add_argument("--backend", choices=("scalar", "batch"), default=None,
                     help="simulation backend (default: REPRO_SIM_BACKEND "
                          "or batch); scalar is the bit-exact reference")
    sub.add_parser("table1", help="print the benchmark inventory")
    # Listed for --help only: main hands everything after "lint" to
    # repro.analysis.cli.run_lint, which owns the options.
    sub.add_parser(
        "lint",
        help="run the determinism & invariant static analyzer "
             "(options: repro lint --help)",
    )
    cache = sub.add_parser("cache", help="inspect or purge the result cache")
    cache.add_argument("action", choices=("stats", "clear"))
    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection scenario suite "
             "(see docs/robustness.md)",
    )
    chaos.add_argument(
        "--scenario", action="append", default=None, dest="scenarios",
        metavar="NAME",
        help="scenario to run (repeatable; default: the full catalog)",
    )
    chaos.add_argument(
        "--mix", action="append", default=None, dest="mixes",
        metavar="MIX",
        help="workload mix to run (repeatable; default: the chaos suite "
             "mixes)",
    )
    chaos.add_argument("--executions", type=int, default=None,
                       help="measured FG executions per cell, at least 1 "
                            "(default: REPRO_EXECUTIONS or 40)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--max-rows", type=int, default=0,
                       help="truncate output to this many rows (0 = all)")
    chaos.add_argument(
        "--fleet", action="store_true",
        help="run the fleet scenario catalog (node-level faults and the "
             "self-healing control plane) instead of the single-node "
             "sensor/actuator suite",
    )
    chaos.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="fleet size for --fleet, at least 2 (default: 5)",
    )
    bench = sub.add_parser(
        "bench",
        help="run the performance benchmark harness "
             "(writes BENCH_harness.json)",
    )
    bench.add_argument(
        "--profile", metavar="PSTATS", nargs="?",
        const="bench_profile.pstats", default=None,
        help="run under cProfile: dump the stats to PSTATS (default "
             "bench_profile.pstats) and print the top 25 functions by "
             "cumulative time",
    )
    bench.add_argument(
        "--skip-floors", action="store_true",
        help="record measurements without asserting the acceptance "
             "floors (useful on slow shared hosts)",
    )
    return parser


#: ``(option, least value)`` of the integer options ``figure`` and
#: ``chaos`` take, checked before any work starts.
_OPTION_FLOORS = (
    ("executions", 1),
    ("workers", 1),
    ("max_rows", 0),
    ("nodes", 2),
)


def _below_floor(args) -> Optional[str]:
    """The usage message for the first integer option below its floor."""
    for dest, least in _OPTION_FLOORS:
        value = getattr(args, dest, None)
        if value is not None and value < least:
            return "--%s must be at least %d (got %d)" % (
                dest.replace("_", "-"), least, value
            )
    return None


def _load_bench_module():
    """Import ``benchmarks/bench_perf_harness.py`` from the repo tree."""
    import importlib.util
    from pathlib import Path

    path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "bench_perf_harness.py"
    )
    if not path.exists():
        raise FileNotFoundError(
            "benchmark harness not found at %s (the bench command runs "
            "from a source checkout)" % path
        )
    spec = importlib.util.spec_from_file_location("bench_perf_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_bench(args) -> int:
    """Handler for the ``bench`` subcommand."""
    bench = _load_bench_module()
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            artifact = bench.run_benchmark()
        finally:
            profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(25)
        print("profile written to %s" % args.profile)
    else:
        artifact = bench.run_benchmark()
    backends = artifact["backends"]
    print("artifact written to %s" % bench.ARTIFACT)
    print("tick kernel batch/scalar:      %.3fx"
          % artifact["tick_kernel"]["speedup_default"])
    print("event-sparse batch/scalar:     %.3fx"
          % backends["event_sparse"]["speedup"])
    print("contended-noisy batch/scalar:  %.3fx"
          % backends["contended_noisy"]["speedup"])
    print("end-to-end Dirigent:           %.3fx"
          % backends["end_to_end_dirigent"]["speedup"])
    e2e = backends["end_to_end_dirigent"]
    print("Dirigent span plans:           %d built for %d spans (was %d)"
          % (e2e["plan_builds"], e2e["spans"], e2e["plan_builds_before"]))
    print("Dirigent control loop:         %d live wakeups, %d in-kernel "
          "(was %d / %d), %d counter snapshots (was %d)"
          % (e2e["live_wakeups"], e2e["kernel_wakeups"],
             e2e["live_wakeups_before"], e2e["kernel_wakeups_before"],
             e2e["counter_snapshots"], e2e["counter_snapshots_before"]))
    solver = backends["fast_path"]["contended_noisy"]
    print("contended-noisy solver:        %d rho iterations over %d "
          "compiled ticks"
          % (solver["rho_iterations"], solver["compiled_ticks"]))
    fleet = artifact["fleet"]
    print("fleet catalog ticks:           %d (was %d)"
          % (fleet["ticks"], fleet["ticks_before"]))
    jitter = artifact["shared_jitter"]
    print("partition-sweep jitter draws:  %d (runs read %d)"
          % (jitter["sweep_jitter_draws"],
             jitter["sweep_jitter_draws_before"]))
    print("machines alive after runs:     %d fleet, %d end-to-end"
          % (fleet["machines_alive"],
             backends["end_to_end_dirigent"]["machines_alive"]))
    print("sweep speedup (warm cache):    %.3fx over serial cold"
          % artifact["sweep"]["speedup_warm_vs_serial_cold"])
    warm = artifact["warm_worker"]
    print("warm-pool sweep speedup:       %.3fx (%d warm starts, "
          "%d of %d sweeps parallel)"
          % (warm["speedup_warm_vs_cold"], warm["warm_starts"],
             warm["parallel_sweeps"], warm["reps"]))
    if args.skip_floors:
        return 0
    try:
        bench.check_floors(artifact)
    except AssertionError as exc:
        print("FLOOR MISSED: %s" % exc)
        return 1
    print("all acceptance floors met")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.analysis.cli import run_lint

        return run_lint(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(FIGURES):
            print(name)
        return 0
    if args.command == "table1":
        print(render(FIGURES["table1"]()))
        return 0
    if args.command == "bench":
        return _run_bench(args)
    if args.command in ("figure", "chaos"):
        problem = _below_floor(args)
        if problem is not None:
            print(problem)
            return 2
    if args.command == "chaos":
        from repro.experiments.chaos import (
            DEFAULT_FLEET_EXECUTIONS,
            DEFAULT_FLEET_NODES,
            run_chaos,
            run_fleet_chaos,
        )
        from repro.experiments.mixes import all_single_fg_mixes, multi_fg_mixes
        from repro.faults import FLEET_SCENARIO_NAMES, SCENARIO_NAMES

        catalog = FLEET_SCENARIO_NAMES if args.fleet else SCENARIO_NAMES
        for name in args.scenarios or ():
            if name not in catalog:
                print("unknown scenario %r (available: %s)"
                      % (name, ", ".join(catalog)))
                return 2
        known = [mix.name for mix in all_single_fg_mixes() + multi_fg_mixes()]
        for name in args.mixes or ():
            if name not in known:
                print("unknown mix %r (available: %s)"
                      % (name, ", ".join(known)))
                return 2
        if args.fleet:
            result = run_fleet_chaos(
                scenarios=args.scenarios,
                num_nodes=(
                    DEFAULT_FLEET_NODES if args.nodes is None else args.nodes
                ),
                mixes=args.mixes,
                executions=(
                    args.executions if args.executions is not None
                    else DEFAULT_FLEET_EXECUTIONS
                ),
                seed=args.seed,
            )
        else:
            if args.nodes is not None:
                print("--nodes requires --fleet")
                return 2
            result = run_chaos(
                mixes=args.mixes,
                scenarios=args.scenarios,
                executions=args.executions,
                seed=args.seed,
            )
        print(render(result, max_rows=args.max_rows))
        return 0
    if args.command == "cache":
        from repro.experiments.diskcache import get_cache
        cache = get_cache()
        if args.action == "clear":
            removed = cache.clear()
            print("removed %d cached entries from %s" % (removed, cache.root))
            return 0
        stats = cache.stats()
        print("cache root:    %s" % stats["root"])
        print("enabled:       %s" % stats["enabled"])
        print("code version:  %s" % stats["code_version"])
        for kind, count in sorted(stats["entries"].items()):
            print("  %-12s %d" % (kind, count))
        print("total entries: %d (%.1f KiB)"
              % (stats["total_entries"], stats["total_bytes"] / 1024.0))
        print("corrupt drops: %d (unreadable entries discarded this "
              "process)" % stats["corrupt_drops"])
        return 0
    driver = FIGURES[args.name]
    kwargs = {}
    if args.executions is not None:
        kwargs["executions"] = args.executions
    # Exported rather than passed down: workers inherit the environment,
    # and every cache key folds the resolved backend in.
    import os

    from repro.sim.config import ENV_BACKEND, ENV_WORKERS
    if args.workers is not None:
        os.environ[ENV_WORKERS] = str(args.workers)
    if args.backend is not None:
        os.environ[ENV_BACKEND] = args.backend
    result = driver(seed=args.seed, **kwargs)
    from repro.experiments.parallel import last_sweep

    print(render(result, max_rows=args.max_rows, sweep=last_sweep()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
