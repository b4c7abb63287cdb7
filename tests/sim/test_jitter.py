"""Shared OS-jitter tapes (:mod:`repro.sim.jitter`).

A tape must hold exactly the factors ``exp(rng.gauss(mu, sigma))`` a
machine's own per-core RNG would draw, in stream order, however its
readers interleave scalar ticks and span kernels; and a scope must
change which object holds a draw, never a result.  CPython's
``random.gauss`` is the oracle throughout.
"""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import BASELINE, DIRIGENT, Policy
from repro.experiments import harness
from repro.experiments.mixes import mix_by_name
from repro.sim.batch import BACKEND_BATCH, BACKEND_SCALAR
from repro.sim.config import ENV_BACKEND, MachineConfig
from repro.sim.jitter import WINDOW, JitterTape, shared_jitter
from repro.sim.machine import Machine
from repro.sim.timebase import derive_rng
from tests.conftest import make_bg, make_fg


def _oracle(seed, core, sigma, count):
    rng = derive_rng(seed, "jitter-core-%d" % core)
    mu = -0.5 * sigma * sigma
    return [math.exp(rng.gauss(mu, sigma)) for _ in range(count)]


def _machine(backend, seed=21, sigma=0.015):
    config = MachineConfig(
        seed=seed, os_jitter_sigma=sigma, cache_inertia_tau_s=0.15,
    )
    machine = Machine(config, backend=backend)
    machine.spawn(make_fg(input_noise=0.05), core=0, nice=-5)
    for core in range(1, config.num_cores):
        machine.spawn(make_bg(heavy=core % 2 == 0), core=core, nice=5)
    machine.settle_cache()
    return machine


def _state(machine):
    return (
        machine.clock.tick,
        machine.rho,
        [tuple(array) for array in machine._cnt_arrays],
        [machine.cache.effective_ways(core)
         for core in range(machine.config.num_cores)],
    )


class TestTapeFollowsTheStream:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        core=st.integers(0, 5),
        sigma=st.sampled_from([0.015, 0.05, 0.4]),
        ends=st.lists(st.integers(0, 3 * WINDOW + 7), min_size=1,
                      max_size=4),
    )
    def test_fills_equal_cpython_gauss(self, seed, core, sigma, ends):
        tape = JitterTape(seed, core, sigma)
        for pos in sorted(ends):
            assert tape.fill(pos) == tape.end > pos
        assert tape.end % WINDOW == 0
        assert list(tape.values) == _oracle(seed, core, sigma, tape.end)

    @settings(max_examples=12, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(["tick", "span", "pause"]),
                      st.integers(1, 700)),
            min_size=1, max_size=8,
        ),
    )
    def test_scalar_and_span_reads_interleaved(self, steps):
        # A scoped batch machine reads its tapes through Machine.tick
        # and the span kernels by turns; pausing core 2 for a while
        # moves its cursor off the others', so the lanes reach their
        # tapes' drawn ends on different ticks.  It must match an
        # unscoped scalar machine drawing from its own RNGs, and every
        # tape must hold the oracle's draws.
        reference = _machine(BACKEND_SCALAR)
        with shared_jitter():
            machine = _machine(BACKEND_BATCH)
            parked = machine.process_on_core(2).pid
            for kind, ticks in steps:
                for m in (reference, machine):
                    if kind == "tick":
                        for _ in range(min(ticks, 60)):
                            m.tick()
                        continue
                    if kind == "pause":
                        m.pause(parked)
                    m.run_ticks(ticks)
                    if kind == "pause":
                        m.resume(parked)
            assert _state(machine) == _state(reference)
            for core, tape in enumerate(machine._jit_tapes):
                assert machine._jit_pos[core] <= tape.end
                assert list(tape.values) == _oracle(
                    21, core, 0.015, tape.end
                )
            assert machine._jit_pos[1] == machine.clock.tick
            if any(kind == "pause" for kind, _ in steps):
                assert machine._jit_pos[2] < machine._jit_pos[1]

    def test_span_kernels_cross_tape_ends(self):
        # Every tick of this run is a span tick, and the lanes cross
        # their tapes' drawn ends inside spans: a fill ends no span.
        scalar = _machine(BACKEND_SCALAR)
        drawing = _machine(BACKEND_BATCH)
        with shared_jitter():
            batch = _machine(BACKEND_BATCH)
        for machine in (scalar, drawing, batch):
            machine.run_ticks(3 * WINDOW + 11)
        assert _state(batch) == _state(scalar) == _state(drawing)
        stats = batch.backend_stats()
        assert stats["compiled_ticks"] == batch.clock.tick
        assert stats["spans"] == drawing.backend_stats()["spans"]
        assert batch._jit_tapes[0].end == 4 * WINDOW


class TestScopeSharing:
    def test_machines_of_one_seed_read_one_tape(self):
        with shared_jitter() as scope:
            first = _machine(BACKEND_BATCH)
            second = _machine(BACKEND_BATCH)
            other = _machine(BACKEND_BATCH, seed=22)
            for core in range(first.config.num_cores):
                assert first._jit_tapes[core] is second._jit_tapes[core]
                assert first._jit_tapes[core] is not other._jit_tapes[core]
            first.run_ticks(2 * WINDOW + 5)
            drawn = scope.drawn()
            second.run_ticks(2 * WINDOW + 5)
            # The second run reads the first one's draws.
            assert scope.drawn() == drawn == 6 * 3 * WINDOW
        assert first._jitter_rngs == [] and first._gauss_fns == []
        assert _state(first)[1:] == _state(second)[1:]

    def test_unshared_machine_holds_no_tape(self):
        # Outside a scope a machine draws in place from its own RNGs:
        # after a 30k-tick run it holds no tape at all.
        machine = _machine(BACKEND_BATCH)
        machine.run_ticks(30_000)
        assert machine._jit_tapes == []
        assert machine._jit_pos == [0] * machine.config.num_cores
        assert len(machine._jitter_rngs) == machine.config.num_cores

    def test_sigma_zero_reads_no_tape(self):
        with shared_jitter() as scope:
            machine = _machine(BACKEND_BATCH, sigma=0.0)
            machine.run_ticks(500)
        assert machine._jit_tapes == []
        assert scope.drawn() == 0

    def test_scopes_nest(self):
        with shared_jitter() as outer:
            with shared_jitter() as inner:
                assert inner is outer
                machine = _machine(BACKEND_BATCH)
            # The inner exit keeps the outer scope's tapes.
            assert outer.tapes
            assert _machine(BACKEND_BATCH)._jit_tapes == machine._jit_tapes
        assert not outer.tapes

    def test_scope_exit_frees_its_tapes(self):
        gc.disable()
        try:
            with shared_jitter() as scope:
                machine = _machine(BACKEND_BATCH)
                machine.run_ticks(WINDOW + 3)
                refs = [weakref.ref(tape) for tape in machine._jit_tapes]
                machine.close()
                del machine
                assert all(ref() is not None for ref in refs)
            assert all(ref() is None for ref in refs)
            assert scope.drawn() == 6 * 2 * WINDOW
        finally:
            gc.enable()


@pytest.mark.parametrize("backend", [BACKEND_BATCH, BACKEND_SCALAR])
def test_one_mix_in_one_scope_equals_no_scope(backend, monkeypatch):
    """A mix's Baseline, partition sweep and Dirigent run inside one
    scope give exactly the results they give without one."""
    monkeypatch.setenv(ENV_BACKEND, backend)
    mix = mix_by_name("ferret rs")
    sweep = Policy(
        name="PartitionSweep", static_bg_grade=0, static_partition=True
    )

    def runs():
        harness.clear_caches()
        baseline = harness.run_policy(mix, BASELINE, executions=2, warmup=1)
        swept = [
            harness.run_policy(
                mix, sweep, deadlines_s=(), executions=2, warmup=1,
                static_fg_ways=ways,
            )
            for ways in (4, 10)
        ]
        dirigent = harness.run_policy(
            mix, DIRIGENT, deadlines_s=baseline.deadlines_s, executions=2,
            warmup=1,
        )
        return repr([baseline] + swept + [dirigent])

    plain = runs()
    with shared_jitter() as scope:
        shared = runs()
    harness.clear_caches()
    assert shared == plain
    assert scope.drawn() > 0
