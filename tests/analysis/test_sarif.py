"""SARIF 2.1.0 reporter tests.

Structural assertions always run; full schema validation runs when the
``jsonschema`` package is importable (it is not installed in every CI
leg) against the trimmed 2.1.0 schema shipped next to this test.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.core import Finding, default_rules
from repro.analysis.reporters import (
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
    render_sarif,
)


SCHEMA_PATH = Path(__file__).with_name("sarif-2.1.0-subset.schema.json")

FINDINGS = [
    Finding(rule="DET001", severity="error", path="/work/repro/sim/hot.py",
            line=12, col=4, message="wall clock read at import time"),
    Finding(rule="COV002", severity="error", path="/work/repro/sim/machine.py",
            line=1, col=0, message="hot-state mutation '_leak' uncovered"),
    Finding(rule="DET003", severity="warning", path="outside/of/root.py",
            line=3, col=0, message="set iteration in hot path"),
]


def _log(findings=FINDINGS, root=Path("/work")):
    return json.loads(render_sarif(findings, rules=default_rules(),
                                   root=root))


class TestSarifStructure:
    def test_log_skeleton(self):
        log = _log()
        assert log["$schema"] == SARIF_SCHEMA_URI
        assert log["version"] == SARIF_VERSION
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["results"]) == len(FINDINGS)

    def test_rules_metadata_covers_registry(self):
        log = _log()
        rows = log["runs"][0]["tool"]["driver"]["rules"]
        ids = {row["id"] for row in rows}
        assert {"DET001", "COV002", "FLO001", "GEN002"} <= ids
        for row in rows:
            assert row["shortDescription"]["text"]
            assert row["defaultConfiguration"]["level"] in ("error",
                                                            "warning")
            assert row["properties"]["kind"] in ("module", "project")

    def test_result_fields_and_levels(self):
        results = _log()["runs"][0]["results"]
        by_rule = {r["ruleId"]: r for r in results}
        assert by_rule["DET001"]["level"] == "error"
        assert by_rule["DET003"]["level"] == "warning"
        assert by_rule["DET001"]["message"]["text"] == (
            "wall clock read at import time"
        )

    def test_locations_relativized_and_one_based(self):
        results = _log()["runs"][0]["results"]
        by_rule = {r["ruleId"]: r for r in results}
        loc = by_rule["DET001"]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "repro/sim/hot.py"
        assert loc["region"]["startLine"] == 12
        assert loc["region"]["startColumn"] == 5  # col 4, SARIF 1-based
        # A path outside the root stays as given rather than escaping
        # it with ".." segments.
        outside = by_rule["DET003"]["locations"][0]["physicalLocation"]
        assert outside["artifactLocation"]["uri"] == "outside/of/root.py"

    def test_empty_run_is_valid_shape(self):
        log = _log(findings=[])
        assert log["runs"][0]["results"] == []


class TestSarifSchemaValidation:
    def test_log_validates_against_sarif_2_1_0_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        jsonschema.validate(_log(), schema)
        jsonschema.validate(_log(findings=[]), schema)

    def test_doctored_log_fails_validation(self):
        """The schema subset actually constrains — it is not vacuous."""
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        log = _log()
        log["version"] = "9.9.9"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(log, schema)
        log = _log()
        log["runs"][0]["results"][0]["level"] = "fatal"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(log, schema)
