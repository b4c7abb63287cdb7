"""Doctored-drift self-check for the COV state-coverage rules.

The acceptance property of the COV family is *sensitivity on the real
code*: take the shipped scalar kernel verbatim, inject one fake
hot-state mutation, and the analyzer must flag it against the
span-kernel registry.  A fixture-only test could pass with an extractor that
never understands the real ``Machine.tick``; this one cannot.
"""

from pathlib import Path

import repro
from repro.analysis.core import analyze_paths, default_rules
from repro.analysis.rules_cov import extract_hot_state
from repro.sim.spanplan import KERNEL_STATE


PACKAGE_DIR = Path(repro.__file__).resolve().parent
MACHINE_SOURCE = PACKAGE_DIR / "sim" / "machine.py"

#: The mutation injected into the copied kernel; deliberately named so
#: it can never collide with real state.
PROBE = "_drift_probe"


def _cov_rules():
    return [rule for rule in default_rules()
            if rule.id == "COV002"]


def _doctored_tree(tmp_path, extra_line):
    """Copy the real machine module with one injected tick statement."""
    text = MACHINE_SOURCE.read_text(encoding="utf-8")
    anchor = "        self._rho = rho"
    assert anchor in text, (
        "machine.py no longer contains the tick anchor statement this "
        "test splices after; update the anchor"
    )
    doctored = text.replace(anchor, anchor + "\n" + extra_line, 1)
    target = tmp_path / "repro" / "sim" / "machine.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(doctored, encoding="utf-8")
    return tmp_path


class TestDoctoredDrift:
    def test_fake_hot_state_attribute_is_flagged(self, tmp_path):
        tree = _doctored_tree(
            tmp_path, "        self.%s = rho" % PROBE)
        findings = analyze_paths([tree], rules=_cov_rules(), root=tree)
        assert [f.rule for f in findings] == ["COV002"]
        assert "'%s'" % PROBE in findings[0].message
        assert findings[0].severity == "error"

    def test_fake_process_mutation_is_flagged(self, tmp_path):
        tree = _doctored_tree(
            tmp_path, "        proc.%s = rho" % PROBE)
        findings = analyze_paths([tree], rules=_cov_rules(), root=tree)
        assert [f.rule for f in findings] == ["COV002"]
        assert "'process.%s'" % PROBE in findings[0].message

    def test_undoctored_copy_is_clean(self, tmp_path):
        text = MACHINE_SOURCE.read_text(encoding="utf-8")
        target = tmp_path / "repro" / "sim" / "machine.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        findings = analyze_paths([tmp_path], rules=_cov_rules(),
                                 root=tmp_path)
        assert findings == [], "\n".join(f.message for f in findings)


class TestExtractionMatchesRegistries:
    """The extraction, registry, and allowlist agree exactly.

    This is the same invariant COV002 enforces, asserted directly so a
    failure names the exact sets instead of a finding list.
    """

    def test_extraction_covers_registry_and_allowlist(self):
        import ast

        from repro.analysis.core import SourceModule
        from repro.analysis.rules_cov import parse_scalar_only

        text = MACHINE_SOURCE.read_text(encoding="utf-8")
        module = SourceModule(MACHINE_SOURCE, "repro/sim/machine.py",
                              text, ast.parse(text))
        extracted = extract_hot_state(module)
        scalar_only = parse_scalar_only(module)
        assert extracted is not None
        assert scalar_only, "SCALAR_ONLY_STATE should not be empty"
        assert extracted == set(KERNEL_STATE) | scalar_only
