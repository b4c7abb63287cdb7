"""Simulated multicore machine substrate.

This package replaces the paper's physical testbed (6-core Xeon E5-2618L
v3 with per-core DVFS, Intel CAT, and performance counters) with a
discrete-time performance model exposing the same control and observation
surface through :class:`repro.sim.osal.SystemInterface`.
"""

from repro.sim.cache import SharedCache, contiguous_mask, full_mask
from repro.sim.config import DEFAULT_FREQ_GRADES_GHZ, PAPER_MACHINE, MachineConfig
from repro.sim.counters import CounterBank, CounterSnapshot
from repro.sim.energy import EnergyConfig, EnergyModel
from repro.sim.frequency import FrequencyGovernor
from repro.sim.machine import Machine
from repro.sim.memguard import BandwidthBudget, MemGuard
from repro.sim.memory import MemorySystem
from repro.sim.osal import SystemInterface
from repro.sim.perf import PerfInput, PerfOutput, solve_tick
from repro.sim.process import (
    STATE_PAUSED,
    STATE_RUNNING,
    ExecutionRecord,
    Process,
)
from repro.sim.timebase import TimerWheel, VirtualClock, derive_rng
from repro.sim.trace import MachineTracer, TraceSample, sparkline

__all__ = [
    "DEFAULT_FREQ_GRADES_GHZ",
    "PAPER_MACHINE",
    "MachineConfig",
    "Machine",
    "SystemInterface",
    "SharedCache",
    "full_mask",
    "contiguous_mask",
    "CounterBank",
    "CounterSnapshot",
    "EnergyConfig",
    "EnergyModel",
    "MachineTracer",
    "TraceSample",
    "sparkline",
    "FrequencyGovernor",
    "MemorySystem",
    "MemGuard",
    "BandwidthBudget",
    "PerfInput",
    "PerfOutput",
    "solve_tick",
    "Process",
    "ExecutionRecord",
    "STATE_RUNNING",
    "STATE_PAUSED",
    "TimerWheel",
    "VirtualClock",
    "derive_rng",
]
