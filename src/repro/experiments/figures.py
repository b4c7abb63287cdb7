"""Per-figure experiment drivers (Section 5 of the paper).

Each ``figN`` function regenerates the rows/series of the corresponding
paper figure and returns a :class:`FigureResult`; the benchmark harness
under ``benchmarks/`` is a thin wrapper around these.  Absolute numbers
come from the simulated substrate, so the reproduction target is the
*shape*: who wins, by roughly what factor, and where crossovers fall.

Default-option cells come from the harness's result store
(:func:`repro.experiments.harness.run_policy_cached`), so aggregate
figures (10, 13) reuse the per-mix runs of Figures 9a-9c; drivers over
many mixes take theirs from :func:`_cells`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.policies import (
    BASELINE,
    DIRIGENT,
    DIRIGENT_FREQ,
    PAPER_POLICIES,
    STATIC_BOTH,
    Policy,
)
from repro.core.stats import harmonic_mean, mean
from repro.errors import ExperimentError
from repro.experiments.harness import (
    RunResult,
    measure_baseline,
    measure_standalone,
    partition_sweep,
    run_policy,
    run_policy_cached,
)
from repro.experiments.parallel import default_workers, run_grid
from repro.experiments.metrics import histogram, std_reduction
from repro.experiments.mixes import (
    Mix,
    all_single_fg_mixes,
    mix_by_name,
    multi_fg_mixes,
    rotate_bg_mixes,
    single_bg_mixes,
)
from repro.sim.config import MachineConfig, default_executions
from repro.sim.jitter import shared_jitter
from repro.workloads.catalog import (
    foreground_names,
    rotate_pair_names,
    single_bg_names,
    table1_rows,
)


@dataclass(frozen=True)
class FigureResult:
    """Regenerated rows of one paper figure or table.

    Attributes:
        name: Figure identifier (e.g. ``"fig9a"``).
        title: Human-readable description.
        headers: Column names.
        rows: Data rows aligned with ``headers``.
        notes: Free-form remarks (e.g. the paper's reference values).
    """

    name: str
    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    notes: Tuple[str, ...] = ()


def _cells(
    mixes: Sequence[Mix],
    policies: Sequence[Policy],
    executions: int,
    seed: int,
) -> Dict[Tuple[Mix, Policy], RunResult]:
    """Every mix x policy cell's result, keyed ``(mix, policy)``.

    With more than one worker the cells come from one
    :func:`repro.experiments.parallel.run_grid` sweep (identical results
    to the serial path).  Every cell the sweep did not return, all of
    them at one worker, comes from :func:`run_policy_cached`, mix by mix:
    each mix's runs share one jitter scope, so every run after the first
    reads the OS-jitter draws an earlier one made.
    """
    swept: Dict[Tuple, RunResult] = {}
    if default_workers() > 1:
        swept = run_grid(mixes, policies, executions=executions,
                         seed=seed).results
    cells: Dict[Tuple[Mix, Policy], RunResult] = {}
    for mix in mixes:
        with shared_jitter():
            for policy in policies:
                result = swept.get((mix.name, policy.name))
                if result is None:
                    result = run_policy_cached(
                        mix, policy, executions=executions, seed=seed
                    )
                cells[mix, policy] = result
    return cells


def _executions(executions: Optional[int]) -> int:
    return default_executions() if executions is None else executions


# ---------------------------------------------------------------------------
# Conceptual figures (Section 1-4 illustrations, regenerated from data)
# ---------------------------------------------------------------------------


def fig1(
    executions: Optional[int] = None, seed: int = 0, bins: int = 18
) -> FigureResult:
    """Figure 1: completion-time pdfs — standalone, contended, "ideal".

    The paper's motivating sketch, regenerated from measured data: the
    standalone curve finishes far ahead of the deadline (wasted headroom),
    free contention pushes mass past the deadline, and Dirigent realizes
    the "ideal" curve concentrated just below it.
    """
    n = _executions(executions)
    mix = mix_by_name("ferret bwaves")
    standalone = measure_standalone(mix.fg_name, executions=n, seed=seed)
    baseline = measure_baseline(mix, executions=n, seed=seed)
    ideal = run_policy_cached(mix, DIRIGENT, executions=n, seed=seed)
    series = {
        "Standalone": list(standalone.durations_s),
        "Contention": baseline.all_durations,
        "Ideal(Dirigent)": ideal.all_durations,
    }
    lo = min(min(v) for v in series.values())
    hi = max(max(v) for v in series.values())
    rows: List[Tuple[object, ...]] = []
    for name, durations in series.items():
        centers, densities = histogram(durations, bins=bins, lo=lo, hi=hi)
        for center, density in zip(centers, densities):
            rows.append((name, round(center, 4), round(density, 3)))
    return FigureResult(
        name="fig1",
        title="FG Completion-Time PDFs: Standalone / Contention / Ideal",
        headers=("Curve", "ExecTime(s)", "Density"),
        rows=tuple(rows),
        notes=(
            "Deadline (mu+0.3sigma of contention): %.4f s"
            % baseline.deadlines_s[0],
            "Paper: the ideal curve meets throughput and latency targets "
            "precisely, freeing the standalone curve's headroom.",
        ),
    )


def fig2(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 2: reservation-based scheduler efficiency vs. variance.

    Type A tasks (high variance: Baseline completion times) force larger
    per-task reservations than type B tasks (low variance: Dirigent
    completion times), so fewer type-A streams fit on the same capacity.
    """
    from repro.sched.reservation import max_streams, reservation_for

    n = _executions(executions)
    mix = mix_by_name("ferret rs")
    baseline = measure_baseline(mix, executions=n, seed=seed)
    dirigent = run_policy_cached(mix, DIRIGENT, executions=n, seed=seed)
    type_a = baseline.all_durations
    type_b = dirigent.all_durations
    period = reservation_for(type_a, 0.95) * 1.05
    capacity = 8.0
    rows = (
        (
            "TypeA(Baseline)",
            round(reservation_for(type_a, 0.95), 4),
            max_streams(type_a, period, capacity),
        ),
        (
            "TypeB(Dirigent)",
            round(reservation_for(type_b, 0.95), 4),
            max_streams(type_b, period, capacity),
        ),
    )
    return FigureResult(
        name="fig2",
        title="Reservation-Based Scheduling Efficiency (95%% guarantee, "
        "%.1f-core capacity)" % capacity,
        headers=("TaskType", "ReservationPerTask(s)", "StreamsAdmitted"),
        rows=rows,
        notes=(
            "Stream period: %.4f s" % period,
            "Paper: high-variance (type A) tasks force the scheduler to "
            "expand reservations, wasting capacity.",
        ),
    )


def fig3(**_: object) -> FigureResult:
    """Figure 3: worked example of the execution-time predictor.

    A three-segment profile is traversed under uneven contention; the
    table shows each segment's profiled duration, measured duration, rate
    factor alpha, and Equation 1 penalty, plus the Equation 2 prediction
    made at the end of segment 2 against the actual completion time.
    """
    from repro.core.predictor import CompletionTimePredictor
    from repro.core.profile import ExecutionProfile, ProfileSegment

    dt = 5e-3
    profile = ExecutionProfile(
        "example",
        dt,
        (
            ProfileSegment(dt, 1.2e7),
            ProfileSegment(dt, 0.8e7),
            ProfileSegment(dt, 1.0e7),
        ),
    )
    # Execution with per-segment slowdowns 1.5x, 1.2x, 1.3x.
    slowdowns = (1.5, 1.2, 1.3)
    predictor = CompletionTimePredictor(profile, scaling="alpha")
    bounds = profile.boundaries()
    predictor.start_execution(0.0)
    t = 0.0
    crossings = []
    for bound, slowdown in zip(bounds, slowdowns):
        t += dt * slowdown
        crossings.append(t)
        predictor.observe(t, bound)
    # Re-run to capture the prediction after segment 2.
    predictor2 = CompletionTimePredictor(profile, scaling="alpha")
    predictor2.start_execution(0.0)
    predictor2.observe(crossings[0], bounds[0])
    predictor2.observe(crossings[1], bounds[1])
    prediction_at_2 = predictor2.predict(crossings[1])
    actual = crossings[-1]
    rows = []
    prev_t = 0.0
    for i, (slowdown, cross) in enumerate(zip(slowdowns, crossings)):
        measured = cross - prev_t
        rows.append(
            (
                "S%d" % (i + 1),
                round(dt, 4),
                round(measured, 4),
                round(measured / dt, 3),
                round(measured - dt, 4),
            )
        )
        prev_t = cross
    return FigureResult(
        name="fig3",
        title="Execution-Time Predictor Worked Example (Equations 1-2)",
        headers=(
            "Segment",
            "ProfiledDt(s)",
            "MeasuredDt(s)",
            "Alpha",
            "PenaltyP(s)",
        ),
        rows=tuple(rows),
        notes=(
            "Prediction after segment 2 (Eq. 2, literal alpha scaling): "
            "%.4f s; actual completion: %.4f s" % (prediction_at_2, actual),
            "Paper: the moving average of rate factors scales the "
            "remaining penalties forward.",
        ),
    )


# ---------------------------------------------------------------------------
# Table 1 and workload overviews
# ---------------------------------------------------------------------------


def table1(**_: object) -> FigureResult:
    """Table 1: FG and BG benchmark inventory."""
    return FigureResult(
        name="table1",
        title="FG and BG Benchmarks",
        headers=("Type", "Name", "Description"),
        rows=tuple(table1_rows()),
    )


def fig4(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 4: FG overview — exec time and MPKI, alone vs. contended.

    The contended configuration is one FG task against five ``bwaves``
    BG tasks, as in the paper.
    """
    n = _executions(executions)
    rows: List[Tuple[object, ...]] = []
    for fg in foreground_names():
        alone = measure_standalone(fg, executions=n, seed=seed)
        mix = mix_by_name("%s bwaves" % fg)
        contended = measure_baseline(mix, executions=n, seed=seed)
        rows.append(
            (
                fg,
                round(alone.stats.mean_s, 3),
                round(contended.fg_stats.mean_s, 3),
                round(alone.mpki, 3),
                round(contended.fg_mpki, 3),
            )
        )
    return FigureResult(
        name="fig4",
        title="Overview of FG Workloads (alone vs. 5x bwaves)",
        headers=(
            "FG",
            "ExecTimeAlone(s)",
            "ExecTimeContend(s)",
            "MPKIAlone",
            "MPKIContend",
        ),
        rows=tuple(rows),
        notes=(
            "Paper: completion times span 0.5-1.6s; contention inflates "
            "both time and MPKI, most for streamcluster.",
        ),
    )


def fig5(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 5: BG overview — total L3 MPK-FG-I and FG miss share.

    FG is ``ferret``; each BG workload (3 single + 4 rotate pairs) runs
    on the five remaining cores under Baseline.
    """
    n = _executions(executions)
    rows: List[Tuple[object, ...]] = []
    bg_labels = list(single_bg_names()) + list(rotate_pair_names())
    for bg in bg_labels:
        mix = mix_by_name("ferret %s" % bg)
        result = measure_baseline(mix, executions=n, seed=seed)
        total_misses = result.fg_misses + result.bg_misses
        total_mpkfi = (
            total_misses / result.fg_instr * 1000.0 if result.fg_instr else 0.0
        )
        share = total_misses and result.fg_misses / total_misses
        rows.append((bg, round(total_mpkfi, 2), round(share, 3)))
    rows.sort(key=lambda r: r[1])
    return FigureResult(
        name="fig5",
        title="Overview of BG Workloads (FG = ferret)",
        headers=("BG", "TotalL3MPK-FG-I", "FGMissShare"),
        rows=tuple(rows),
        notes=(
            "Paper: BG workloads cover a wide spectrum of miss pressure "
            "(total misses per kilo-FG-instruction from ~3 to ~13).",
        ),
    )


# ---------------------------------------------------------------------------
# Predictor accuracy
# ---------------------------------------------------------------------------


def fig6(executions: int = 50, seed: int = 0) -> FigureResult:
    """Figure 6: prediction trace for raytrace with RS, 50 executions.

    Midpoint predictions in the Baseline configuration (no management),
    matching the paper's trace.
    """
    mix = mix_by_name("raytrace rs")
    result = run_policy(
        mix, BASELINE, executions=executions, seed=seed, observe_predictor=True
    )
    rows: List[Tuple[object, ...]] = []
    for record in result.prediction_logs[0][-executions:]:
        rows.append(
            (
                record.execution_index,
                round(record.actual_total_s, 4),
                round(record.predicted_total_s, 4),
                round(record.relative_error, 4),
            )
        )
    return FigureResult(
        name="fig6",
        title="Prediction Trace for Raytrace with RS (Baseline)",
        headers=("Execution", "ExecTime(s)", "Prediction(s)", "Error"),
        rows=tuple(rows),
        notes=("Paper: predicted completion closely tracks actual; errors "
               "stay within a few percent.",),
    )


def fig7(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 7: predictor accuracy for all 35 single-FG mixes.

    Midpoint prediction error (Equation 3) and completion-time standard
    deviation normalized to the mean, per mix, in the Baseline
    configuration.
    """
    n = _executions(executions)
    rows: List[Tuple[object, ...]] = []
    for mix in all_single_fg_mixes():
        result = run_policy(
            mix, BASELINE, executions=n, seed=seed, observe_predictor=True
        )
        errors = [p.relative_error for p in result.prediction_logs[0]]
        if not errors:
            raise ExperimentError("no predictions recorded for %s" % mix.name)
        rows.append(
            (
                mix.name,
                round(mean(errors), 4),
                round(result.fg_stats.normalized_std, 4),
            )
        )
    avg_err = mean([r[1] for r in rows])
    return FigureResult(
        name="fig7",
        title="Prediction Accuracy for all FG-BG mixes (Baseline)",
        headers=("Mix", "AvgError", "NormalizedStd"),
        rows=tuple(rows),
        notes=(
            "Overall average error: %.4f" % avg_err,
            "Paper: overall average 2.4%; all >4%-error points have "
            "streamcluster as FG (worst: rs at 12.5%); std >> error.",
        ),
    )


# ---------------------------------------------------------------------------
# Coarse control / partitioning
# ---------------------------------------------------------------------------


def fig8(
    executions: int = 12,
    seed: int = 0,
    ways_range: Sequence[int] = tuple(range(2, 19)),
    dirigent_executions: int = 60,
) -> FigureResult:
    """Figure 8: exhaustive partition sweep for streamcluster with PCA.

    Sweeps static FG partitions and reports mean FG execution time
    normalized to the smallest partition, plus the partition the coarse
    controller converges to.
    """
    mix = mix_by_name("streamcluster pca")
    means = partition_sweep(mix, ways_range, executions, 3, seed=seed)
    worst = means[0][1]
    rows = [
        (ways, round(m, 4), round(m / worst, 4)) for ways, m in means
    ]
    dirigent = run_policy_cached(
        mix, DIRIGENT, executions=dirigent_executions, seed=seed
    )
    converged = dirigent.partition_history[-1] if dirigent.partition_history else None
    history = dirigent.partition_history
    return FigureResult(
        name="fig8",
        title="Exhaustive Search on Partition Size (streamcluster + PCA)",
        headers=("FGWays", "ExecTimeMean(s)", "NormalizedToSmallest"),
        rows=tuple(rows),
        notes=(
            "Coarse controller partition history: %s" % (history,),
            "Converged FG ways: %s" % converged,
            "Paper: knee of the sweep at 5 ways; Dirigent converges to "
            "the same partition within ~32 executions.",
        ),
    )


# ---------------------------------------------------------------------------
# Main performance comparison
# ---------------------------------------------------------------------------


def _mix_policy_rows(
    mixes: Sequence[Mix], executions: int, seed: int
) -> List[Tuple[object, ...]]:
    rows: List[Tuple[object, ...]] = []
    cells = _cells(mixes, PAPER_POLICIES, executions, seed)
    for mix in mixes:
        baseline = cells[mix, BASELINE]
        for policy in PAPER_POLICIES:
            result = cells[mix, policy]
            bg_rel = (
                result.bg_instr_per_s / baseline.bg_instr_per_s
                if baseline.bg_instr_per_s
                else 0.0
            )
            rows.append(
                (
                    mix.name,
                    policy.name,
                    round(result.fg_success_ratio, 3),
                    round(bg_rel, 3),
                    round(result.fg_stats.mean_s, 4),
                    round(result.fg_stats.std_s, 4),
                )
            )
    return rows


def fig9a(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 9a: FG success and BG throughput, single-BG mixes."""
    rows = _mix_policy_rows(single_bg_mixes(), _executions(executions), seed)
    return FigureResult(
        name="fig9a",
        title="FG and BG Performance: Single BG Workload Mixes",
        headers=("Mix", "Policy", "FGSuccess", "BGThroughput", "FGMean(s)", "FGStd(s)"),
        rows=tuple(rows),
        notes=("BG throughput normalized to Baseline per mix.",),
    )


def fig9b(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 9b: FG success and BG throughput, rotate-BG mixes."""
    rows = _mix_policy_rows(rotate_bg_mixes(), _executions(executions), seed)
    return FigureResult(
        name="fig9b",
        title="FG and BG Performance: Rotate BG Workload Mixes",
        headers=("Mix", "Policy", "FGSuccess", "BGThroughput", "FGMean(s)", "FGStd(s)"),
        rows=tuple(rows),
        notes=("BG throughput normalized to Baseline per mix.",),
    )


def fig9c(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 9c: FG success and BG throughput, multi-FG mixes."""
    rows = _mix_policy_rows(multi_fg_mixes(), _executions(executions), seed)
    return FigureResult(
        name="fig9c",
        title="FG and BG Performance: Multiple FG Workload Mixes",
        headers=("Mix", "Policy", "FGSuccess", "BGThroughput", "FGMean(s)", "FGStd(s)"),
        rows=tuple(rows),
        notes=("Total FG+BG processes always equal the core count.",),
    )


def _summary(
    name: str,
    title: str,
    mixes: Sequence[Mix],
    executions: int,
    seed: int,
    paper_note: str,
) -> FigureResult:
    rows: List[Tuple[object, ...]] = []
    cells = _cells(mixes, PAPER_POLICIES, executions, seed)
    for policy in PAPER_POLICIES:
        successes: List[float] = []
        bg_rels: List[float] = []
        for mix in mixes:
            baseline, result = cells[mix, BASELINE], cells[mix, policy]
            successes.append(result.fg_success_ratio)
            if baseline.bg_instr_per_s > 0:
                bg_rels.append(
                    max(result.bg_instr_per_s / baseline.bg_instr_per_s, 1e-9)
                )
        rows.append(
            (
                policy.name,
                round(mean(successes), 3),
                round(harmonic_mean(bg_rels), 3),
            )
        )
    return FigureResult(
        name=name,
        title=title,
        headers=("Policy", "FGSuccess(arith mean)", "BGThroughput(harm mean)"),
        rows=tuple(rows),
        notes=(paper_note,),
    )


def fig10(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 10: summary of all 35 single-FG mixes."""
    return _summary(
        "fig10",
        "Summary of All Single FG Workload Mixes",
        all_single_fg_mixes(),
        _executions(executions),
        seed,
        "Paper: Baseline ~0.59/1.00, StaticFreq ~0.87/0.60, StaticBoth "
        "~0.99/0.61, DirigentFreq ~0.95/0.85, Dirigent ~0.99/0.92.",
    )


def fig13(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 13: summary of all multi-FG mixes."""
    return _summary(
        "fig13",
        "Summary of All Multiple FG Workload Mixes",
        multi_fg_mixes(),
        _executions(executions),
        seed,
        "Paper: same ordering as the single-FG summary; Dirigent keeps "
        ">98% success with the best managed BG throughput.",
    )


# ---------------------------------------------------------------------------
# Distribution views
# ---------------------------------------------------------------------------


def fig11(
    executions: Optional[int] = None, seed: int = 0, bins: int = 24
) -> FigureResult:
    """Figure 11: execution-time pdf curves for ferret with five RS BGs."""
    n = _executions(executions)
    mix = mix_by_name("ferret rs")
    cells = _cells([mix], PAPER_POLICIES, n, seed)
    results = {p.name: cells[mix, p] for p in PAPER_POLICIES}
    lo = min(min(r.all_durations) for r in results.values())
    hi = max(max(r.all_durations) for r in results.values())
    rows: List[Tuple[object, ...]] = []
    for policy_name, result in results.items():
        centers, densities = histogram(
            result.all_durations, bins=bins, lo=lo, hi=hi
        )
        for center, density in zip(centers, densities):
            rows.append((policy_name, round(center, 4), round(density, 3)))
    return FigureResult(
        name="fig11",
        title="Execution Time Probability Density (ferret + 5x RS)",
        headers=("Policy", "ExecTime(s)", "Density"),
        rows=tuple(rows),
        notes=(
            "Paper: Baseline/StaticFreq stretch wide; DirigentFreq pulls "
            "StaticBoth's two peaks together; Dirigent merges them.",
        ),
    )


def fig12(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 12: BG core frequency distribution, DirigentFreq vs Dirigent."""
    n = _executions(executions)
    mix = mix_by_name("ferret rs")
    rows: List[Tuple[object, ...]] = []
    config = MachineConfig()
    for policy in (DIRIGENT_FREQ, DIRIGENT):
        result = run_policy_cached(mix, policy, executions=n, seed=seed)
        total = sum(result.bg_grade_histogram.values())
        for grade in range(config.num_grades):
            count = result.bg_grade_histogram.get(grade, 0)
            rows.append(
                (
                    policy.name,
                    "%.1fGHz" % config.freq_grades_ghz[grade],
                    round(count / total, 3) if total else 0.0,
                )
            )
    return FigureResult(
        name="fig12",
        title="BG Core Frequency Distribution (ferret + 5x RS)",
        headers=("Policy", "Frequency", "Probability"),
        rows=tuple(rows),
        notes=(
            "Paper: cache partitioning lets BG cores run at much higher "
            "frequency on average under Dirigent than DirigentFreq.",
        ),
    )


def fig14(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Figure 14: normalized standard deviation for multi-FG mixes."""
    n = _executions(executions)
    rows: List[Tuple[object, ...]] = []
    mixes = multi_fg_mixes()
    cells = _cells(mixes, PAPER_POLICIES, n, seed)
    for mix in mixes:
        base_std = cells[mix, BASELINE].fg_stats.std_s
        for policy in PAPER_POLICIES:
            result = cells[mix, policy]
            rows.append(
                (
                    mix.name,
                    policy.name,
                    round(result.fg_stats.std_s / base_std, 3)
                    if base_std > 0
                    else 0.0,
                )
            )
    return FigureResult(
        name="fig14",
        title="Normalized Standard Deviation of Multiple FG Workload Mixes",
        headers=("Mix", "Policy", "StdOverBaseline"),
        rows=tuple(rows),
        notes=(
            "Paper: variance grows with more FG copies sharing the "
            "partition, yet Dirigent still reduces it sharply.",
        ),
    )


def fig15(
    executions: Optional[int] = None,
    seed: int = 0,
    factors: Sequence[float] = (1.00, 1.03, 1.06, 1.09, 1.12, 1.15, 1.18),
    warmup: int = 40,
) -> FigureResult:
    """Figure 15: FG throughput vs. BG performance tradeoff.

    One raytrace FG against five bwaves BGs; the target completion time
    sweeps from the standalone mean upward.  Reports mean FG time
    normalized to standalone, FG sigma normalized to Baseline, and BG
    throughput normalized to Baseline.

    Tight targets are only reachable once the coarse controller has
    grown the FG partition, so the measurement window opens after a
    longer-than-usual warmup (the paper measures the converged system).
    """
    n = _executions(executions)
    mix = mix_by_name("raytrace bwaves")
    standalone = measure_standalone(mix.fg_name, executions=n, seed=seed)
    baseline = measure_baseline(mix, executions=n, seed=seed)
    rows: List[Tuple[object, ...]] = []
    for factor in factors:
        deadline = standalone.stats.mean_s * factor
        result = run_policy(
            mix,
            DIRIGENT,
            deadlines_s=(deadline,),
            executions=n,
            warmup=warmup,
            seed=seed,
        )
        rows.append(
            (
                "%.2fx" % factor,
                round(result.fg_stats.mean_s / standalone.stats.mean_s, 3),
                round(result.fg_stats.std_s / baseline.fg_stats.std_s, 3)
                if baseline.fg_stats.std_s > 0
                else 0.0,
                round(result.bg_instr_per_s / baseline.bg_instr_per_s, 3),
                round(result.fg_success_ratio, 3),
            )
        )
    return FigureResult(
        name="fig15",
        title="Tradeoff Between FG Throughput and BG Performance "
        "(raytrace + 5x bwaves)",
        headers=(
            "Target",
            "FGTimeAvg(vs standalone)",
            "FGTimeStd(vs Baseline)",
            "BGThroughput",
            "FGSuccess",
        ),
        rows=tuple(rows),
        notes=(
            "Paper: Dirigent tracks the target across the sweep (except "
            "1.00x, where collocation leaves no slack) and converts FG "
            "slack into BG throughput.",
        ),
    )


def headline(executions: Optional[int] = None, seed: int = 0) -> FigureResult:
    """Headline claims: sigma reduction vs. BG cost, and the gain over
    coarse time scale schemes.
    """
    n = _executions(executions)
    mixes = all_single_fg_mixes()
    cells = _cells(
        mixes, (BASELINE, STATIC_BOTH, DIRIGENT_FREQ, DIRIGENT), n, seed
    )
    reductions: Dict[str, List[float]] = {"DirigentFreq": [], "Dirigent": []}
    bg_costs: Dict[str, List[float]] = {"DirigentFreq": [], "Dirigent": []}
    static_bg: List[float] = []
    dirigent_bg: List[float] = []
    for mix in mixes:
        baseline = cells[mix, BASELINE]
        static_both = cells[mix, STATIC_BOTH]
        for policy in (DIRIGENT_FREQ, DIRIGENT):
            result = cells[mix, policy]
            reductions[policy.name].append(
                std_reduction(baseline.fg_stats.std_s, result.fg_stats.std_s)
            )
            bg_costs[policy.name].append(
                1.0 - result.bg_instr_per_s / baseline.bg_instr_per_s
            )
            if policy == DIRIGENT:
                dirigent_bg.append(result.bg_instr_per_s)
                static_bg.append(static_both.bg_instr_per_s)
    gain_vs_static = mean(
        [d / s for d, s in zip(dirigent_bg, static_bg) if s > 0]
    )
    rows = (
        (
            "DirigentFreq",
            round(mean(reductions["DirigentFreq"]), 3),
            round(mean(bg_costs["DirigentFreq"]), 3),
        ),
        (
            "Dirigent",
            round(mean(reductions["Dirigent"]), 3),
            round(mean(bg_costs["Dirigent"]), 3),
        ),
    )
    return FigureResult(
        name="headline",
        title="Headline: sigma reduction vs. BG performance cost",
        headers=("Policy", "AvgStdReduction", "AvgBGPerfLoss"),
        rows=rows,
        notes=(
            "Dirigent BG throughput vs StaticBoth (coarse schemes): "
            "%.2fx" % gain_vs_static,
            "Paper: Dirigent 85% sigma reduction at 9% BG loss "
            "(DirigentFreq: 70% at 15%); ~30% better BG throughput than "
            "coarse time scale schemes.",
        ),
    )


#: Registry of all figure drivers by identifier.
FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "table1": table1,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9a": fig9a,
    "fig9b": fig9b,
    "fig9c": fig9c,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "headline": headline,
}
