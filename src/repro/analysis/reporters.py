"""Finding reporters for ``repro lint``.

Three formats:

* **text** — one ``path:line:col: SEVERITY RULE message`` row per
  finding plus a summary line; for humans and CI logs.
* **json** — a stable machine-readable document (``version`` field,
  findings as objects, severity tallies, per-rule timing/suppression
  stats); for the CI gate and editor integrations.  Consumers should
  key on ``summary.errors`` for the pass/fail decision, mirroring the
  CLI's exit code.
* **sarif** — a SARIF 2.1.0 log (one run, the analyzer as the tool
  driver, every rule as tool metadata); for code-scanning UIs and the
  CI artifact upload.

JSON document history: version 1 had ``findings`` + ``summary``
(findings/errors/warnings/checked_files); version 2 adds
``summary.suppressed`` and the per-rule ``rule_stats`` map.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.core import Finding, Rule, iter_rule_info

#: Format names accepted by ``repro lint --format``.
FORMATS = ("text", "json", "sarif")

#: Schema version of the JSON report document.
JSON_VERSION = 2

#: SARIF log format pinning.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def summarize(findings: Sequence[Finding]) -> Dict[str, int]:
    """Severity tallies for a finding list."""
    errors = sum(1 for f in findings if f.severity == "error")
    return {
        "findings": len(findings),
        "errors": errors,
        "warnings": len(findings) - errors,
    }


def render_text(findings: Sequence[Finding],
                checked_files: Optional[int] = None,
                suppressed: Optional[int] = None) -> str:
    """Human-readable report, one row per finding plus a summary."""
    lines: List[str] = []
    for finding in findings:
        lines.append("%s: %s %s %s" % (
            finding.location(), finding.severity, finding.rule,
            finding.message,
        ))
    summary = summarize(findings)
    checked = "" if checked_files is None else (
        " in %d files" % checked_files
    )
    extra = " (%d suppressed)" % suppressed if suppressed else ""
    if summary["findings"]:
        lines.append("%d finding(s)%s: %d error(s), %d warning(s)%s" % (
            summary["findings"], checked, summary["errors"],
            summary["warnings"], extra,
        ))
    else:
        lines.append("no findings%s%s" % (checked, extra))
    return "\n".join(lines)


def render_json(findings: Sequence[Finding],
                checked_files: Optional[int] = None,
                suppressed: Optional[int] = None,
                rule_stats: Optional[Dict[str, object]] = None) -> str:
    """Machine-readable report (sorted keys, trailing-newline-free)."""
    document: Dict[str, object] = {
        "version": JSON_VERSION,
        "findings": [finding.as_dict() for finding in findings],
        "summary": summarize(findings),
    }
    summary = document["summary"]
    if checked_files is not None:
        summary["checked_files"] = checked_files
    if suppressed is not None:
        summary["suppressed"] = suppressed
    if rule_stats is not None:
        document["rule_stats"] = rule_stats
    return json.dumps(document, indent=2, sort_keys=True)


def _sarif_uri(path: str, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return Path(path).resolve().relative_to(
                root.resolve()).as_posix()
        except ValueError:
            pass
    return Path(path).as_posix()


def render_sarif(findings: Sequence[Finding],
                 rules: Optional[Iterable[Rule]] = None,
                 root: Optional[Path] = None) -> str:
    """SARIF 2.1.0 log: one run, the analyzer as the tool driver.

    Paths are relativized to ``root`` (the analysis root) so the log is
    portable across checkouts; severities map 1:1 onto SARIF levels.
    """
    rule_rows = list(iter_rule_info(rules)) if rules is not None else []
    driver: Dict[str, object] = {
        "name": "repro-lint",
        "rules": [
            {
                "id": row["id"],
                "shortDescription": {"text": row["description"]},
                "defaultConfiguration": {"level": row["severity"]},
                "properties": {"kind": row["kind"]},
            }
            for row in rule_rows
        ],
    }
    results = [
        {
            "ruleId": finding.rule,
            "level": finding.severity,
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _sarif_uri(finding.path, root),
                        },
                        "region": {
                            "startLine": max(1, finding.line),
                            "startColumn": finding.col + 1,
                        },
                    },
                }
            ],
        }
        for finding in findings
    ]
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render(findings: Sequence[Finding], fmt: str,
           checked_files: Optional[int] = None,
           suppressed: Optional[int] = None,
           rule_stats: Optional[Dict[str, object]] = None,
           rules: Optional[Iterable[Rule]] = None,
           root: Optional[Path] = None) -> str:
    """Dispatch on ``fmt`` (one of :data:`FORMATS`)."""
    if fmt == "json":
        return render_json(findings, checked_files,
                           suppressed=suppressed, rule_stats=rule_stats)
    if fmt == "text":
        return render_text(findings, checked_files, suppressed=suppressed)
    if fmt == "sarif":
        return render_sarif(findings, rules=rules, root=root)
    raise ValueError("unknown format %r (expected one of %s)"
                     % (fmt, ", ".join(FORMATS)))


def render_rule_list(rules: Iterable[Rule], fmt: str) -> str:
    """``--list-rules`` output in either format.

    Project rules (whole-set cross-checks like the COV family) are
    marked: a ``kind`` column in text, a ``kind`` field in JSON.
    """
    rows = list(iter_rule_info(rules))
    if fmt == "json":
        return json.dumps({"version": JSON_VERSION, "rules": rows},
                          indent=2, sort_keys=True)
    lines = ["%-8s %-8s %-8s %s" % (row["id"], row["severity"],
                                    row["kind"], row["description"])
             for row in rows]
    return "\n".join(lines)
