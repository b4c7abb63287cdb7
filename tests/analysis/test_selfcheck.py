"""Self-check: the shipped ``repro`` package is lint-clean.

This is the analyzer's own acceptance gate — the same invocation CI
runs.  If a change to ``src/repro`` trips a rule, this test fails with
the findings in the assertion message; either fix the violation or (for
a reviewed false positive) add an inline
``# repro-lint: disable=RULE`` with a justification comment.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.analysis.core import analyze_paths


PACKAGE_DIR = Path(repro.__file__).resolve().parent


class TestShippedTreeIsClean:
    def test_analyzer_reports_no_findings(self):
        findings = analyze_paths([PACKAGE_DIR],
                                 root=PACKAGE_DIR.parent)
        assert findings == [], "\n".join(
            "%s: %s %s" % (finding.location(), finding.rule,
                           finding.message)
            for finding in findings
        )

    def test_cli_lint_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_cli_lint_json_document(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 2
        assert document["findings"] == []
        assert document["summary"]["errors"] == 0
        assert document["summary"]["checked_files"] > 40
        assert document["summary"]["suppressed"] == 0
        # Per-rule stats cover every registered rule, with timings.
        stats = document["rule_stats"]
        for rule_id in ("DET001", "COV002", "FLO001", "GEN002"):
            assert rule_id in stats
            assert stats[rule_id]["findings"] == 0
            assert stats[rule_id]["time_s"] >= 0.0

    def test_list_rules_marks_project_rules(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        kinds = {row["id"]: row["kind"] for row in document["rules"]}
        for rule_id in ("COV002", "COV003", "GEN002", "ENV003"):
            assert kinds[rule_id] == "project"
        for rule_id in ("DET001", "FLO001", "FLO002", "FLO003"):
            assert kinds[rule_id] == "module"


class TestCliSurface:
    def test_lint_fails_on_fixture_violation(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\nSTART = time.time()\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_lint_json_findings_parse(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\nSTART = time.time()\n"
        )
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] >= 1
        rules = {finding["rule"] for finding in document["findings"]}
        assert "DET001" in rules

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "ENV001", "PAR001", "GEN001"):
            assert rule_id in out

    def test_select_unknown_rule_errors(self, tmp_path, capsys):
        # A usage error exits 2, so a typo never reads as a finding (1).
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path), "--select", "NOPE"])
        assert excinfo.value.code == 2
        assert "unknown rule selector 'NOPE'" in capsys.readouterr().err

    def test_missing_path_errors(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(missing)])
        assert excinfo.value.code == 2
        assert "no such path: %s" % missing in capsys.readouterr().err

    def test_select_family_filters(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import os\nimport time\n"
            "START = time.time()\n"
            "LIMIT = os.environ.get('REPRO_LIMIT')\n"
        )
        assert main(["lint", str(tmp_path), "--select", "ENV"]) == 1
        out = capsys.readouterr().out
        assert "ENV" in out
        assert "DET001" not in out
