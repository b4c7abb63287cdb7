"""``repro lint`` — run the determinism & invariant analyzer.

Usage (via the package CLI)::

    repro lint                          # analyze the shipped repro package
    repro lint src tests               # analyze explicit paths
    repro lint --format=json           # machine-readable report (CI)
    repro lint --format=sarif          # SARIF 2.1.0 log (code scanning)
    repro lint --select=DET,ENV003     # rule families or exact ids
    repro lint --list-rules            # registry dump
    repro lint --baseline              # filter committed baseline findings
    repro lint --update-baseline       # rewrite the baseline file
    repro lint --changed               # only files changed in git
    repro lint --cache                 # incremental content-hash cache

Exit status is 0 when no error-severity finding survives suppression
and baseline filtering, 1 otherwise — the CI static-analysis job gates
on exactly this.
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path
from typing import List, Optional, Sequence, Set

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.cache import LintCache
from repro.analysis.core import (
    Rule,
    collect_files,
    default_rules,
    run_analysis,
)
from repro.analysis.reporters import FORMATS, render, render_rule_list


def default_lint_root() -> Path:
    """Directory containing the installed ``repro`` package.

    Analyzing relative to this root gives modules relpaths like
    ``repro/sim/config.py``, which is what path-scoped rules match on.
    """
    import repro

    return Path(repro.__file__).resolve().parent.parent


def select_rules(rules: Sequence[Rule],
                 select: Optional[str]) -> List[Rule]:
    """Filter ``rules`` by a comma-separated id/family-prefix list.

    ``--select=DET`` keeps the whole DET family; ``--select=ENV003``
    keeps one rule.  Unknown tokens raise so typos fail loudly instead
    of silently linting nothing.
    """
    if not select:
        return list(rules)
    tokens = [token.strip() for token in select.split(",") if token.strip()]
    chosen: List[Rule] = []
    for token in tokens:
        matched = [rule for rule in rules if rule.id.startswith(token)]
        if not matched:
            known = ", ".join(rule.id for rule in rules)
            raise SystemExit(
                "repro lint: unknown rule selector %r (known: %s)"
                % (token, known)
            )
        for rule in matched:
            if rule not in chosen:
                chosen.append(rule)
    return chosen


def git_changed_files(root: Path) -> Optional[Set[Path]]:
    """Resolved paths of files changed in the enclosing git worktree.

    Covers staged, unstaged, and untracked changes (``git status
    --porcelain``).  Returns None when ``root`` is not inside a git
    checkout (or git is unavailable) so the caller can fail loudly.
    """
    try:
        toplevel = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    changed: Set[Path] = set()
    for line in status.splitlines():
        if len(line) < 4:
            continue
        payload = line[3:]
        if " -> " in payload:  # rename: gate on the new name
            payload = payload.split(" -> ", 1)[1]
        payload = payload.strip().strip('"')
        if payload:
            changed.add((Path(toplevel) / payload).resolve())
    return changed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static determinism & hot-path invariant analyzer.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze "
             "(default: the installed repro package)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="fmt",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids or family prefixes "
             "(e.g. DET,ENV003); default: all rules",
    )
    parser.add_argument(
        "--root", default=None,
        help="root for scope-relative paths "
             "(default: the package parent for the default target, "
             "the current directory for explicit paths)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--baseline", nargs="?", const=DEFAULT_BASELINE, default=None,
        metavar="PATH",
        help="filter findings recorded in a baseline file before "
             "gating (default path: %s)" % DEFAULT_BASELINE,
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file with the current findings "
             "and exit 0",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="analyze only files changed in the git worktree "
             "(staged, unstaged, untracked)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="reuse findings for content-unchanged files via the "
             "incremental cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="incremental cache location "
             "(default: <root>/.repro_cache/lint)",
    )
    return parser


def run_lint(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro lint``; returns the process exit code."""
    options = build_parser().parse_args(argv)
    rules = select_rules(default_rules(), options.select)

    if options.list_rules:
        print(render_rule_list(rules, options.fmt))
        return 0

    if options.paths:
        paths = [Path(p) for p in options.paths]
        root = Path(options.root) if options.root else Path.cwd()
    else:
        root = default_lint_root()
        if options.root:
            root = Path(options.root)
        paths = [root / "repro"]

    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise SystemExit(
            "repro lint: no such path: %s" % ", ".join(missing)
        )

    if options.changed:
        changed = git_changed_files(root)
        if changed is None:
            raise SystemExit(
                "repro lint: --changed requires a git checkout "
                "enclosing the lint root"
            )
        paths = [p for p in collect_files(paths)
                 if p.resolve() in changed]

    cache = None
    if options.cache:
        if options.cache_dir:
            lint_cache_dir = Path(options.cache_dir)
        else:
            # Share the repository cache root (REPRO_CACHE_DIR aware)
            # with the result cache instead of anchoring at the lint
            # root, which may be a source subdirectory.
            from repro.sim.config import cache_dir as repro_cache_dir

            lint_cache_dir = Path(repro_cache_dir()) / "lint"
        cache = LintCache(root, cache_dir=lint_cache_dir)

    result = run_analysis(paths, rules=rules, root=root, cache=cache)
    findings = result.findings

    baseline_path = Path(options.baseline) if options.baseline else None
    baselined = stale_count = None
    if options.update_baseline:
        baseline_path = baseline_path or Path(DEFAULT_BASELINE)
        save_baseline(baseline_path, findings, root)
        print("repro lint: baseline %s updated with %d finding(s)"
              % (baseline_path, len(findings)))
        return 0
    if baseline_path is not None:
        entries = load_baseline(baseline_path)
        findings, baselined, stale = apply_baseline(
            findings, entries, root)
        stale_count = len(stale)

    print(render(
        findings, options.fmt,
        checked_files=result.checked_files,
        suppressed=result.suppressed,
        rule_stats={rule_id: stats.as_dict()
                    for rule_id, stats in result.rule_stats.items()},
        cache_stats=result.cache_stats,
        baselined=baselined,
        stale_baseline=stale_count,
        rules=rules,
        root=root,
    ))
    return 1 if any(f.severity == "error" for f in findings) else 0
