"""Exact solver shortcuts: bit-identity against the direct model.

The rho fixed point exits early once an update leaves rho
bit-unchanged, and the batch backend's clone-lane dedup kernels solve
once per class of identical lanes.  Neither is an approximation: the
early exit must return the floats the full loop produces, and the
dedup kernels must leave the machine bit-equal to the scalar
reference.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import BACKEND_BATCH, BACKEND_SCALAR
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.memory import MemorySystem
from repro.sim.perf import (
    FIXED_POINT_ITERATIONS,
    MPKI_SCALE,
    PerfInput,
    solve_tick,
)
from repro.sim.perf import _evaluate  # the direct reference evaluation
from tests.conftest import make_bg, make_fg

QUIET = dict(os_jitter_sigma=0.0, timer_jitter_prob=0.0)

#: rho is clamped to the cap by construction.
rho_st = st.floats(
    min_value=0.0, max_value=0.95, allow_nan=False, allow_infinity=False
)


def _memory() -> MemorySystem:
    return MemorySystem(MachineConfig())


class TestSolveTickTabulation:
    """solve_tick: the early exit is an identity."""

    def _inputs(self, mpkis):
        return [
            PerfInput(
                freq_ghz=2.0 + 0.4 * i,
                base_cpi=0.6 + 0.1 * i,
                mpki=mpki,
                mem_sensitivity=1.0,
            )
            for i, mpki in enumerate(mpkis)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        mpkis=st.lists(
            st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
            min_size=1, max_size=4,
        ),
        hint=rho_st,
    )
    def test_early_exit_matches_manual_reference_loop(self, mpkis, hint):
        # The unoptimized fixed point, written out longhand with the
        # direct evaluation and no convergence exit.
        memory = _memory()
        inputs = self._inputs(mpkis)
        rho = max(0.0, hint)
        for _ in range(FIXED_POINT_ITERATIONS):
            penalty = memory.penalty_ns(rho)
            outputs = [_evaluate(entry, penalty) for entry in inputs]
            rho = memory.utilization_for(
                sum(out.miss_rate for out in outputs)
            )
        penalty = memory.penalty_ns(rho)
        outputs = [_evaluate(entry, penalty) for entry in inputs]
        got_outputs, got_rho = solve_tick(inputs, memory, rho_hint=hint)
        assert got_rho == rho
        assert got_outputs == outputs


class TestContendedDedupIntegration:
    """Clone-lane dedup in the batch backend: exact, and observable."""

    def _machine(self, backend):
        machine = Machine(MachineConfig(seed=7, **QUIET), backend=backend)
        machine.spawn(make_fg(), core=0, nice=-5)
        for core in range(1, machine.config.num_cores):
            machine.spawn(make_bg(heavy=True), core=core, nice=5)
        machine.settle_cache()
        return machine

    def _assert_equal(self, a, b):
        assert a.clock.tick == b.clock.tick
        assert a.rho == b.rho
        for core in range(a.config.num_cores):
            ca, cb = a.read_counters(core), b.read_counters(core)
            for field in (
                "instructions", "cycles", "llc_accesses", "llc_misses"
            ):
                assert getattr(ca, field) == getattr(cb, field), (
                    core, field
                )
            assert a.cache.effective_ways(core) == \
                b.cache.effective_ways(core)

    def test_dedup_kernels_match_scalar_and_count(self):
        scalar = self._machine(BACKEND_SCALAR)
        batch = self._machine(BACKEND_BATCH)
        scalar.run_ticks(6_000)
        batch.run_ticks(6_000)
        self._assert_equal(scalar, batch)
        stats = batch.backend_stats()
        # Four identical BG clone lanes solve once per class: the
        # solver counters must show the dedup actually engaged.
        assert stats["table_builds"] > 0
        assert stats["table_hits"] > 0
        assert stats["rho_iterations"] > 0

    def test_warm_start_counters_in_sparse_regime(self):
        machine = Machine(
            MachineConfig(seed=3, **QUIET), backend=BACKEND_BATCH
        )
        machine.spawn(make_fg(), core=0, nice=-5)
        machine.settle_cache()
        machine.run_ticks(6_000)
        stats = machine.backend_stats()
        # Stationary spans reuse the converged rho: warm hits dominate.
        assert stats["rho_warm_hits"] > 0
        assert stats["rho_warm_hits"] + (
            stats["rho_iterations"] // FIXED_POINT_ITERATIONS
        ) > 0


def test_mpki_scale_is_the_canonical_constant():
    # The scalar kernel, the span kernels and solve_tick share one
    # constant, so every path rounds identically.
    assert MPKI_SCALE == 1e-3
