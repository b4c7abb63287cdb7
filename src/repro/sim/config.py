"""Machine configuration and environment knobs for the simulated node.

The defaults mirror the evaluation platform of the Dirigent paper: a 6-core
Intel Xeon E5-2618L v3 with per-core DVFS (Dirigent uses 5 equispaced grades
between 1.2 and 2.0 GHz), a 15 MB 20-way last-level cache with way
partitioning (Intel CAT), and 4 channels of DDR4-2133 memory.

The simulator is a discrete-time performance model; ``tick_s`` sets its
resolution.  The remaining knobs parameterize the contention model: memory
latency inflation under load, cache inertia, and the stochastic noise that
creates run-to-run variation (OS jitter, timer error, input-size jitter).

This module is also the **single funnel for environment variables**: every
``REPRO_*`` knob the package honors is declared in :data:`KNOBS` and read
through a typed accessor defined here.  Accessors re-read the environment
on every call — never at import time — so worker processes and tests that
set a variable after import observe the change.  The static analyzer
(:mod:`repro.analysis`) enforces both properties: rule ``ENV001`` rejects
``os.environ`` reads anywhere else in the package, rule ``ENV002`` rejects
accessor calls that execute at import time, and rule ``ENV003``
cross-checks that every knob declared here as result-relevant is folded
into the experiment cache keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError

#: Frequency grades used by Dirigent on the evaluation machine (GHz).
DEFAULT_FREQ_GRADES_GHZ: Tuple[float, ...] = (1.2, 1.4, 1.6, 1.8, 2.0)


@dataclass(frozen=True)
class MachineConfig:
    """Static description of the simulated machine.

    Attributes:
        num_cores: Number of physical cores; each core runs at most one
            pinned process, matching the paper's pinned deployment.
        freq_grades_ghz: Available per-core DVFS grades, ascending.
        llc_ways: Associativity of the way-partitioned last-level cache.
        llc_mb: Last-level cache capacity in mebibytes (reporting only).
        mem_peak_gbps: Peak sustainable memory bandwidth in gigabytes/s.
        mem_base_latency_ns: Unloaded LLC-miss penalty in nanoseconds.
        mem_contention_scale: Strength of queueing-induced latency
            inflation; the loaded penalty is
            ``base * (1 + scale * rho / (1 - rho))``.
        mem_rho_cap: Upper bound on modeled bandwidth utilization to keep
            the queueing term finite.
        cache_line_bytes: Line size used to convert misses to bandwidth.
        tick_s: Simulator tick length in seconds.
        cache_inertia_tau_s: Time constant of the exponential approach of
            actual cache occupancy to its post-repartition target ("cache
            inertia" in the paper).
        os_jitter_sigma: Standard deviation of the per-tick lognormal
            progress-rate noise modeling OS interference.
        timer_jitter_prob: Probability that a timer fires one tick late,
            modeling sleep-timer error (the paper's ``dT_i != dT``).
        freq_transition_ticks: Ticks before a frequency change takes
            effect.
        seed: Root seed for all stochastic streams of the machine.
    """

    num_cores: int = 6
    freq_grades_ghz: Tuple[float, ...] = DEFAULT_FREQ_GRADES_GHZ
    llc_ways: int = 20
    llc_mb: float = 15.0
    # Effective bandwidth available to LLC-miss traffic under the model's
    # abstraction (not the DDR4 pin bandwidth): calibrated so that five
    # streaming batch tasks drive the utilization regime in which the
    # paper's testbed exhibits its contention behaviour.
    mem_peak_gbps: float = 4.0
    mem_base_latency_ns: float = 80.0
    mem_contention_scale: float = 2.5
    mem_rho_cap: float = 0.95
    cache_line_bytes: int = 64
    tick_s: float = 1e-3
    cache_inertia_tau_s: float = 0.15
    os_jitter_sigma: float = 0.015
    timer_jitter_prob: float = 0.2
    freq_transition_ticks: int = 1
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be >= 1")
        if not self.freq_grades_ghz:
            raise ConfigurationError("freq_grades_ghz must be non-empty")
        if any(f <= 0 for f in self.freq_grades_ghz):
            raise ConfigurationError("frequency grades must be positive")
        if list(self.freq_grades_ghz) != sorted(self.freq_grades_ghz):
            raise ConfigurationError("frequency grades must be ascending")
        if len(set(self.freq_grades_ghz)) != len(self.freq_grades_ghz):
            raise ConfigurationError("frequency grades must be distinct")
        if self.llc_ways < 2:
            raise ConfigurationError("llc_ways must be >= 2 to partition")
        if self.mem_peak_gbps <= 0:
            raise ConfigurationError("mem_peak_gbps must be positive")
        if self.mem_base_latency_ns <= 0:
            raise ConfigurationError("mem_base_latency_ns must be positive")
        if not 0.0 < self.mem_rho_cap < 1.0:
            raise ConfigurationError("mem_rho_cap must be in (0, 1)")
        if self.tick_s <= 0:
            raise ConfigurationError("tick_s must be positive")
        if self.cache_inertia_tau_s < 0:
            raise ConfigurationError("cache_inertia_tau_s must be >= 0")
        if self.os_jitter_sigma < 0:
            raise ConfigurationError("os_jitter_sigma must be >= 0")
        if not 0.0 <= self.timer_jitter_prob <= 1.0:
            raise ConfigurationError("timer_jitter_prob must be in [0, 1]")

    @property
    def min_freq_ghz(self) -> float:
        """Lowest available frequency grade."""
        return self.freq_grades_ghz[0]

    @property
    def max_freq_ghz(self) -> float:
        """Highest available frequency grade."""
        return self.freq_grades_ghz[-1]

    @property
    def num_grades(self) -> int:
        """Number of DVFS grades."""
        return len(self.freq_grades_ghz)

    def with_seed(self, seed: int) -> "MachineConfig":
        """Return a copy of this configuration with a different seed."""
        return replace(self, seed=seed)

    def grade_of(self, freq_ghz: float) -> int:
        """Return the grade index of ``freq_ghz``.

        Raises:
            ConfigurationError: if the frequency is not an exact grade.
        """
        try:
            return self.freq_grades_ghz.index(freq_ghz)
        except ValueError:
            raise ConfigurationError(
                "frequency %.3f GHz is not one of the available grades %s"
                % (freq_ghz, list(self.freq_grades_ghz))
            ) from None


#: Configuration mirroring the paper's Xeon E5-2618L v3 testbed.
PAPER_MACHINE = MachineConfig()


# ---------------------------------------------------------------------------
# Environment knobs
# ---------------------------------------------------------------------------

#: FG executions measured per task when the caller does not choose.
ENV_EXECUTIONS = "REPRO_EXECUTIONS"

#: Worker-process count for the parallel sweep engine.
ENV_WORKERS = "REPRO_WORKERS"

#: Simulation backend selector (``scalar`` or ``batch``).
ENV_BACKEND = "REPRO_SIM_BACKEND"

#: Root directory of the persistent result cache.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Persistent-cache master switch (``0``/``off``/``false`` disables
#: reads and writes).
ENV_CACHE = "REPRO_CACHE"

#: Per-cell wall-clock timeout for parallel sweep workers (seconds).
ENV_CELL_TIMEOUT_S = "REPRO_CELL_TIMEOUT_S"

#: Graceful-degradation kill switch (``0``/``off``/``false`` disables
#: all hardening).
ENV_DEGRADED_MODE = "REPRO_DEGRADED_MODE"

#: Fleet failover kill switch (``0``/``off``/``false`` disables stream
#: re-placement).
ENV_FLEET_FAILOVER = "REPRO_FLEET_FAILOVER"

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Default FG executions per task (the paper uses 100).
DEFAULT_EXECUTIONS_FALLBACK = 40


@dataclass(frozen=True)
class EnvKnob:
    """Declaration of one environment variable the package honors.

    Attributes:
        name: The environment variable.
        accessor: Name of the typed accessor function in this module.
        kind: Value shape (``int``/``flag``/``str``/``path``), for docs.
            Every ``flag`` accessor parses its value with
            :func:`_flag_enabled`.
        default: Human-readable default, for docs and ``--help`` text.
        cache_key_symbol: When the knob can change *simulation results*,
            the identifier that must appear inside the experiment
            harness's disk-cache key tuples so cached cells can never be
            served across differing knob values.  ``None`` marks knobs
            that affect scheduling, performance, or the cache machinery
            itself but are result-neutral by construction (pinned by the
            equivalence test suites).
        doc: One-line summary surfaced by ``repro lint --list-rules``
            tooling and the docs.
    """

    name: str
    accessor: str
    kind: str
    default: str
    cache_key_symbol: Optional[str]
    doc: str


#: Registry of every supported environment knob.  ``repro.analysis``
#: treats this tuple as ground truth: a new ``os.environ`` read anywhere
#: else in the package fails lint until the knob is declared here.
KNOBS: Tuple[EnvKnob, ...] = (
    EnvKnob(
        ENV_EXECUTIONS, "default_executions", "int",
        str(DEFAULT_EXECUTIONS_FALLBACK), "executions",
        "Default FG executions measured per task.",
    ),
    EnvKnob(
        ENV_WORKERS, "env_workers", "int", "cpu count", None,
        "Worker processes for parallel sweeps (scheduling only).",
    ),
    EnvKnob(
        ENV_BACKEND, "env_backend", "str", "batch", "resolve_backend",
        "Simulation backend (scalar reference or batch engine).",
    ),
    EnvKnob(
        ENV_CACHE_DIR, "cache_dir", "path", DEFAULT_CACHE_DIR, None,
        "Root directory of the persistent result cache.",
    ),
    EnvKnob(
        ENV_CACHE, "cache_enabled", "flag", "1", None,
        "Persistent result cache master switch.",
    ),
    EnvKnob(
        # Scheduling-only: a timed-out cell is recomputed serially with
        # identical inputs, so the knob can never change a cell's value.
        ENV_CELL_TIMEOUT_S, "env_cell_timeout_s", "float", "none", None,
        "Per-cell timeout for parallel sweep workers (scheduling only).",
    ),
    EnvKnob(
        # Result-relevant only for *fault-injected* runs, which bypass
        # the disk cache entirely (run_policy_cached never takes a
        # FaultPlan); clean runs are bit-identical either way, pinned by
        # the zero-fault equivalence tests.
        ENV_DEGRADED_MODE, "degraded_mode_enabled", "flag", "1", None,
        "Graceful-degradation hardening kill switch (chaos baseline).",
    ),
    EnvKnob(
        # Result-relevant only for *node-faulted* fleet runs, which are
        # never disk-cached (ClusterResult never enters the result
        # cache, mirroring the single-node chaos path); zero-fault fleet
        # runs install no control plane at all, so the knob cannot reach
        # them — pinned by the zero-node-fault bit-identity tests.
        ENV_FLEET_FAILOVER, "fleet_failover_enabled", "flag", "1", None,
        "Fleet failover kill switch (no-failover chaos baseline).",
    ),
)


def default_executions() -> int:
    """FG executions per task when the caller does not choose.

    Reads ``REPRO_EXECUTIONS`` on every call (never at import), so late
    environment changes — a test's ``monkeypatch.setenv``, a sweep
    worker inheriting an exported value — take effect immediately.

    Raises:
        ConfigurationError: if the variable is set but not an integer.
    """
    raw = os.environ.get(ENV_EXECUTIONS)
    if raw is None or not raw.strip():
        return DEFAULT_EXECUTIONS_FALLBACK
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            "%s must be an integer, got %r" % (ENV_EXECUTIONS, raw)
        ) from None
    if value < 1:
        raise ConfigurationError(
            "%s must be >= 1, got %d" % (ENV_EXECUTIONS, value)
        )
    return value


def env_workers() -> Optional[int]:
    """``REPRO_WORKERS`` as a positive int, or None when unset/invalid.

    Invalid values degrade to None (the CPU count) rather than failing a
    sweep over a harmless typo; the knob only affects scheduling.
    """
    raw = os.environ.get(ENV_WORKERS)
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def env_backend() -> Optional[str]:
    """``REPRO_SIM_BACKEND`` verbatim, or None when unset.

    Validation (and the default) lives in
    :func:`repro.sim.batch.resolve_backend`, the single resolver every
    cache key folds in.
    """
    return os.environ.get(ENV_BACKEND) or None


#: Values that switch a ``flag`` knob off, compared after stripping
#: surrounding whitespace and lower-casing.
_FLAG_OFF = ("0", "off", "false")


def _flag_enabled(name: str) -> bool:
    """Parse the ``flag`` knob ``name``: on unless set to an off-value.

    Every flag accessor below calls this, so all of them agree that
    ``0``, ``off`` and ``false`` (any case, surrounding whitespace
    ignored) switch a knob off, and that anything else — unset
    included — leaves it on.
    """
    return os.environ.get(name, "").strip().lower() not in _FLAG_OFF


def cache_dir() -> str:
    """Root of the persistent result cache (``REPRO_CACHE_DIR``)."""
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` disables the persistent cache."""
    return _flag_enabled(ENV_CACHE)


def env_cell_timeout_s() -> Optional[float]:
    """``REPRO_CELL_TIMEOUT_S`` as a positive float, or None when unset.

    None means "wait forever" (today's behavior).  Invalid or
    non-positive values degrade to None rather than failing a sweep over
    a typo; the knob only affects scheduling — a timed-out cell is
    recomputed serially with identical inputs.
    """
    raw = os.environ.get(ENV_CELL_TIMEOUT_S)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def degraded_mode_enabled() -> bool:
    """False when ``REPRO_DEGRADED_MODE`` disables all hardening.

    With hardening off the runtime never rejects outlier samples,
    never retries failed actuations, and never enters the degraded or
    safe modes — the unhardened baseline the chaos regression tests
    compare against.  Clean (fault-free) runs are bit-identical under
    both settings because every hardening path is trigger-gated on
    fault symptoms that clean runs never produce.
    """
    return _flag_enabled(ENV_DEGRADED_MODE)


def fleet_failover_enabled() -> bool:
    """False when ``REPRO_FLEET_FAILOVER`` disables stream re-placement.

    With failover off the fleet control plane still monitors heartbeats
    and accounts detection times, but never re-places streams off dead
    nodes — the no-failover baseline the fleet chaos regression tests
    compare against.  Zero-node-fault runs install no control plane at
    all, so the knob cannot affect them.
    """
    return _flag_enabled(ENV_FLEET_FAILOVER)


def knob_fingerprint() -> Tuple[Tuple[str, Optional[str]], ...]:
    """Raw environment values of every declared knob, in registry order.

    The parallel sweep engine folds this snapshot into its worker-pool
    generation key: forked workers capture the parent's environment at
    spawn time, so any knob flip must retire the live pool rather than
    let stale workers serve the next sweep.  Reading through
    ``os.environ`` here (rather than the typed accessors) keeps the
    fingerprint sensitive to *any* textual change, including
    invalid-but-set values the accessors would normalize away.
    """
    return tuple((knob.name, os.environ.get(knob.name)) for knob in KNOBS)
