"""Analytic per-tick performance model.

For each running process the model combines three effects the paper's
mechanisms act on:

* **Frequency**: compute-bound work scales with core frequency, while the
  memory-stall component of CPI is frequency-invariant in wall time (the
  miss penalty in *cycles* grows with frequency), so memory-bound phases
  benefit less from DVFS — exactly why throttling streaming BG tasks is
  cheap and speeding up FG tasks has diminishing returns.
* **Cache allocation**: the phase's miss curve evaluated at the process's
  effective LLC ways yields its MPKI.
* **Bandwidth contention**: all misses share the memory system; the loaded
  penalty couples every core's progress rate.

Demand and latency are mutually dependent (faster cores emit more misses,
raising the penalty, slowing everyone), so the tick solves a small fixed
point over the aggregate utilization ``rho``.

:func:`solve_tick` is that fixed point written out plainly.  The hot
loops (``Machine.tick`` and the span kernels of
:mod:`repro.sim.spanplan`) inline the same operations in the same order
and never call it; it stays as the reference the model-consistency
tests check them against.  The simulator keeps no solver memo: every
tick, scalar or span-compiled, solves the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.memory import MemorySystem

#: Fixed-point iterations over the aggregate utilization ``rho``.  Shared
#: with the inlined hot loop in :meth:`repro.sim.machine.Machine.tick` so
#: the two implementations cannot drift apart.
FIXED_POINT_ITERATIONS = 3

#: Per-kilo-instruction scale applied to MPKI/APKI terms.  Multiplication
#: by this constant (rather than division by 1000.0) is the canonical
#: form; the machine's inline loop uses the same constant so both paths
#: round identically.
MPKI_SCALE = 1e-3


@dataclass(frozen=True)
class PerfInput:
    """Per-process inputs to one tick of the performance model.

    Attributes:
        freq_ghz: Effective core frequency.
        base_cpi: Phase compute CPI (no misses).
        mpki: Misses per kilo-instruction at the current allocation.
        mem_sensitivity: Phase multiplier on the loaded penalty.
        jitter: Multiplicative OS-noise factor on the progress rate.
    """

    freq_ghz: float
    base_cpi: float
    mpki: float
    mem_sensitivity: float
    jitter: float = 1.0


@dataclass(frozen=True)
class PerfOutput:
    """Per-process results of one tick of the performance model.

    Attributes:
        ips: Instructions retired per second.
        miss_rate: LLC misses per second.
        cpi: Effective cycles per instruction.
        cycles_per_s: Busy cycles per second (the core frequency in Hz).
    """

    ips: float
    miss_rate: float
    cpi: float
    cycles_per_s: float


def solve_tick(
    inputs: Sequence[PerfInput],
    memory: MemorySystem,
    rho_hint: float = 0.0,
    iterations: int = FIXED_POINT_ITERATIONS,
    refine_final: bool = True,
) -> Tuple[List[PerfOutput], float]:
    """Solve one tick's coupled progress rates.

    Args:
        inputs: Model inputs for every *running* process.
        memory: The shared memory system (provides the penalty curve).
        rho_hint: Starting utilization guess, typically last tick's value;
            the fixed point converges in 2-3 iterations from a warm start.
        iterations: Fixed-point iterations to run.
        refine_final: Re-evaluate the outputs once more at the converged
            utilization so outputs and rho agree exactly.  The machine's
            inline hot loop skips this refinement as a deliberate economy;
            pass False to reproduce its results bit-for-bit.

    Returns:
        Per-process outputs (aligned with ``inputs``) and the final
        utilization ``rho``.
    """
    if iterations < 1:
        raise SimulationError("iterations must be >= 1")
    rho = max(0.0, rho_hint)
    outputs: List[PerfOutput] = []
    converged = False
    for _ in range(iterations):
        penalty_ns = memory.penalty_ns(rho)
        outputs = [_evaluate(entry, penalty_ns) for entry in inputs]
        total_miss_rate = sum(out.miss_rate for out in outputs)
        new_rho = memory.utilization_for(total_miss_rate)
        if new_rho == rho:
            # The update left rho bit-unchanged, so every remaining
            # iteration — and the final refinement — would re-derive the
            # exact same penalty and outputs.  Skipping them is an
            # identity, not an approximation; warm-started callers (the
            # hint is last tick's converged rho) exit here on the first
            # iteration when nothing moved.
            converged = True
            break
        rho = new_rho
    if refine_final and not converged:
        # Final evaluation at the converged utilization so outputs and
        # rho agree.
        penalty_ns = memory.penalty_ns(rho)
        outputs = [_evaluate(entry, penalty_ns) for entry in inputs]
    return outputs, rho


def solver_table_stats() -> Dict[str, int]:
    """Counters of module-level solver tables: always empty.

    The simulator keeps no solver table or memo.  The function stays so
    callers that diff these counters around a run keep working; they
    read zeros.
    """
    return {}


def _evaluate(entry: PerfInput, penalty_ns: float) -> PerfOutput:
    stall_cycles = (
        entry.mpki * MPKI_SCALE
        * penalty_ns
        * entry.mem_sensitivity
        * entry.freq_ghz  # ns -> cycles at freq_ghz GHz
    )
    cpi = entry.base_cpi + stall_cycles
    ips = entry.freq_ghz * 1e9 / cpi * entry.jitter
    return PerfOutput(
        ips=ips,
        miss_rate=ips * entry.mpki * MPKI_SCALE,
        cpi=cpi,
        cycles_per_s=entry.freq_ghz * 1e9 * entry.jitter,
    )
