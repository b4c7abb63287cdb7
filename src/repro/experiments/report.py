"""Fixed-width text rendering of figure results."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.experiments.figures import FigureResult
from repro.experiments.parallel import SweepResult


def sweep_summary(sweep: SweepResult) -> Tuple[str, ...]:
    """One-line-per-fact summary of how a sweep actually executed.

    Surfaces the dispatch counters that matter when a sweep misbehaves
    (retries, failures, degraded serial fallback) alongside the
    warm-worker telemetry (pool reuse, steals).  Zero-valued
    degradation counters are omitted so a healthy sweep reads as two
    short lines.
    """
    lines: List[str] = []
    mode = "%s, %d worker%s" % (
        sweep.mode, sweep.workers, "" if sweep.workers == 1 else "s"
    )
    if sweep.fallback_reason:
        mode += " (fallback: %s)" % sweep.fallback_reason
    lines.append("sweep: %d cells in %.2fs (%s)"
                 % (len(sweep.results), sweep.elapsed_s, mode))
    if sweep.pack_sizes:
        lines.append("packs: %d sized %s" % (
            len(sweep.pack_sizes),
            "/".join(str(size) for size in sweep.pack_sizes),
        ))
    if sweep.retried or sweep.failed:
        lines.append("degraded: %d cell(s) retried serially, %d failed"
                     % (sweep.retried, sweep.failed))
    if sweep.warm_starts:
        lines.append("warm workers: %d warm start(s)" % sweep.warm_starts)
    if sweep.steals or sweep.packs_split:
        lines.append("stealing: %d steal(s), %d pack(s) split"
                     % (sweep.steals, sweep.packs_split))
    return tuple(lines)


def render(
    result: FigureResult,
    max_rows: int = 0,
    sweep: Optional[SweepResult] = None,
) -> str:
    """Render a :class:`FigureResult` as an aligned text table.

    Args:
        result: The figure data to render.
        max_rows: Truncate to this many rows (0 or less = no limit).
        sweep: When given, append that sweep's execution summary as a
            footer (dispatch mode, pack sizes, retries, warm-worker
            counters).
    """
    rows = [tuple(str(cell) for cell in row) for row in result.rows]
    shown = rows if max_rows <= 0 else rows[:max_rows]
    headers = tuple(str(h) for h in result.headers)
    widths = [len(h) for h in headers]
    for row in shown:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(row) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines: List[str] = [
        "%s — %s" % (result.name, result.title),
        fmt(headers),
        fmt(tuple("-" * w for w in widths)),
    ]
    lines.extend(fmt(row) for row in shown)
    if len(shown) < len(rows):
        lines.append("... (%d more rows)" % (len(rows) - len(shown)))
    for note in result.notes:
        lines.append("note: %s" % note)
    if sweep is not None:
        lines.extend(sweep_summary(sweep))
    return "\n".join(lines)
