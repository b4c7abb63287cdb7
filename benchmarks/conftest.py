"""Shared benchmark configuration.

Each benchmark regenerates one paper figure/table through the drivers in
:mod:`repro.experiments.figures` and asserts the *shape* of the paper's
result (who wins, rough factors, crossovers) — absolute numbers come from
the simulated substrate and are not expected to match the 2016 testbed.

Execution counts default to 30 per run (the paper uses 100); raise them
with ``REPRO_BENCH_EXECUTIONS`` for tighter statistics.  Benchmarks share
one process, so per-mix Baseline runs, profiles, and policy runs are
cached across figures; files are named so aggregate figures run after the
per-mix figures they reuse.  Figure sweeps take their worker count from
``REPRO_WORKERS``, as every other sweep does.
"""

from __future__ import annotations

import os

import pytest

#: FG executions measured per run in the benchmark suite.
BENCH_EXECUTIONS = int(os.environ.get("REPRO_BENCH_EXECUTIONS", "30"))


def run_once(benchmark, fn, *args, **kwargs):
    """Run a figure driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


@pytest.fixture
def executions():
    """Execution count for benchmark runs."""
    return BENCH_EXECUTIONS
