"""Shared fixtures: small machines and fast synthetic workloads.

Unit tests run on miniature workloads (tens of milliseconds of virtual
time) so the whole suite stays fast; integration tests use the real
catalog with reduced execution counts.
"""

from __future__ import annotations

import os

import pytest

from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.spec import KIND_BG, KIND_FG, PhaseSpec, WorkloadSpec


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_cache(tmp_path_factory):
    """Point the persistent result cache at a throwaway directory.

    Tests must neither read a developer's warm ``.repro_cache`` (results
    could mask regressions) nor delete it (``clear_caches`` purges disk).
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro_cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def run_calls(monkeypatch):
    """Policy names of the ``harness.run_policy`` calls this process
    makes while the test runs (a forked sweep worker counts into its
    own copy)."""
    from repro.experiments import harness

    calls = []
    real = harness.run_policy

    def counted(mix, policy, *args, **kwargs):
        calls.append(policy.name)
        return real(mix, policy, *args, **kwargs)

    monkeypatch.setattr(harness, "run_policy", counted)
    return calls


def make_phase(
    name="p",
    instructions=2e8,
    base_cpi=0.8,
    apki=10.0,
    mpki_floor=0.3,
    mpki_peak=2.0,
    ways_scale=4.0,
    mem_sensitivity=1.0,
):
    """PhaseSpec factory with small-test defaults."""
    return PhaseSpec(
        name=name,
        instructions=instructions,
        base_cpi=base_cpi,
        apki=apki,
        mpki_floor=mpki_floor,
        mpki_peak=mpki_peak,
        ways_scale=ways_scale,
        mem_sensitivity=mem_sensitivity,
    )


def make_fg(name="tiny-fg", phases=None, input_noise=0.0, total_gi=0.4):
    """A small FG workload (~0.2 s standalone) for unit tests."""
    if phases is None:
        half = total_gi / 2 * 1e9
        phases = (
            make_phase("compute", instructions=half, base_cpi=0.6, mpki_floor=0.1,
                       mpki_peak=1.0, apki=6.0),
            make_phase("memory", instructions=half, base_cpi=0.9, mpki_floor=0.8,
                       mpki_peak=4.0, apki=18.0),
        )
    return WorkloadSpec(
        name=name, kind=KIND_FG, phases=tuple(phases), input_noise=input_noise
    )


def make_bg(name="tiny-bg", heavy=True):
    """A small BG workload with two contrasting phases."""
    phases = (
        make_phase(
            "heavy",
            instructions=6e8,
            base_cpi=0.8,
            apki=45.0 if heavy else 8.0,
            mpki_floor=2.0 if heavy else 0.4,
            mpki_peak=3.0 if heavy else 1.0,
            ways_scale=2.5,
            mem_sensitivity=0.8,
        ),
        make_phase(
            "calm",
            instructions=9e8,
            base_cpi=0.6,
            apki=4.0,
            mpki_floor=0.2,
            mpki_peak=0.6,
            ways_scale=3.0,
        ),
    )
    return WorkloadSpec(name=name, kind=KIND_BG, phases=phases)


@pytest.fixture
def config():
    """Default paper-style machine configuration with a fixed seed."""
    return MachineConfig(seed=42)


@pytest.fixture
def quiet_config():
    """Noise-free configuration for deterministic numeric checks."""
    return MachineConfig(
        seed=42,
        os_jitter_sigma=0.0,
        timer_jitter_prob=0.0,
    )


@pytest.fixture
def machine(config):
    """An empty machine with the default config."""
    return Machine(config)


@pytest.fixture
def quiet_machine(quiet_config):
    """An empty noise-free machine."""
    return Machine(quiet_config)


@pytest.fixture
def tiny_fg():
    """Small two-phase FG workload."""
    return make_fg()


@pytest.fixture
def tiny_bg():
    """Small two-phase BG workload."""
    return make_bg()


def run_executions(machine, n, guard_s=300.0):
    """Tick the machine until n FG completions occur; return the records."""
    records = []
    machine.add_completion_listener(lambda p, r: records.append(r))
    guard = int(guard_s / machine.config.tick_s)
    ticks = 0
    while len(records) < n:
        machine.tick()
        ticks += 1
        assert ticks <= guard, "machine did not complete executions in time"
    return records
