"""``repro lint`` — run the determinism & invariant analyzer.

Usage (via the package CLI)::

    repro lint                          # analyze the shipped repro package
    repro lint src tests               # analyze explicit paths
    repro lint --format=json           # machine-readable report (CI)
    repro lint --format=sarif          # SARIF 2.1.0 log (code scanning)
    repro lint --select=DET,ENV003     # rule families or exact ids
    repro lint --list-rules            # registry dump

Every run is one full pass over the paths it is given.  Exit status is
0 when no error-severity finding survives inline suppression, 1
otherwise — the CI static-analysis job gates on exactly this — and 2
for a usage error (an unknown option, a missing path, a path holding
no Python file or an unknown ``--select`` token), so a typo never
reads as a clean pass or a violation.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.core import (
    Rule, collect_files, default_rules, run_analysis,
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
    keeps one rule.  Unknown tokens raise :class:`ValueError` so typos
    fail loudly instead of silently linting nothing.
    """
    if not select:
        return list(rules)
    tokens = [token.strip() for token in select.split(",") if token.strip()]
    chosen: List[Rule] = []
    for token in tokens:
        matched = [rule for rule in rules if rule.id.startswith(token)]
        if not matched:
            known = ", ".join(rule.id for rule in rules)
            raise ValueError("unknown rule selector %r (known: %s)"
                             % (token, known))
        for rule in matched:
            if rule not in chosen:
                chosen.append(rule)
    return chosen


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
    return parser


def run_lint(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro lint``; returns the process exit code."""
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        rules = select_rules(default_rules(), options.select)
    except ValueError as exc:
        parser.error(str(exc))

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
        parser.error("no such path: %s" % ", ".join(missing))
    empty = [str(p) for p in paths if not collect_files([p])]
    if empty:
        parser.error("no Python file in: %s" % ", ".join(empty))

    result = run_analysis(paths, rules=rules, root=root)
    print(render(
        result.findings, options.fmt,
        checked_files=result.checked_files,
        suppressed=result.suppressed,
        rule_stats={rule_id: stats.as_dict()
                    for rule_id, stats in result.rule_stats.items()},
        rules=rules,
        root=root,
    ))
    return 1 if any(f.severity == "error" for f in result.findings) else 0
