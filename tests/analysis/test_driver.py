"""Tests for the analyzer driver's plumbing:

* inline suppressions counted, not reported,
* overlapping-path dedupe,
* decorator-expression finding anchoring.
"""

import textwrap

from repro.analysis.core import analyze_paths, default_rules, run_analysis


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def det_rules():
    return [r for r in default_rules() if r.id.startswith("DET")]


BAD_SOURCE = "import time\nSTART = time.time()\n"


def test_suppressed_findings_are_counted(tmp_path):
    tree = write_tree(tmp_path / "src", {
        "a.py": "import time\n"
                "START = time.time()  # repro-lint: disable=DET001\n",
    })
    result = run_analysis([tree], rules=det_rules(), root=tree)
    assert result.findings == []
    assert result.suppressed == 1


class TestOverlappingPathDedupe:
    def test_nested_paths_report_once(self, tmp_path):
        tree = write_tree(tmp_path, {"pkg/mod.py": BAD_SOURCE})
        findings = analyze_paths([tree, tree / "pkg",
                                  tree / "pkg" / "mod.py"],
                                 rules=det_rules(), root=tree)
        assert len(findings) == 1


class TestDecoratorAnchoring:
    SOURCE = """\
        import time


        def deco(stamp):
            def wrap(fn):
                return fn
            return wrap


        @deco(time.time())
        def handler():
            return 1
    """

    def test_finding_anchors_at_the_def_line(self, tmp_path):
        tree = write_tree(tmp_path, {"mod.py": self.SOURCE})
        findings = analyze_paths([tree], rules=det_rules(), root=tree)
        assert [f.rule for f in findings] == ["DET001"]
        # Line 11 is `def handler():`, not line 10 (the decorator).
        assert findings[0].line == 11

    def test_suppression_on_the_def_line_works(self, tmp_path):
        source = self.SOURCE.replace(
            "def handler():",
            "def handler():  # repro-lint: disable=DET001",
        )
        tree = write_tree(tmp_path, {"mod.py": source})
        assert analyze_paths([tree], rules=det_rules(),
                             root=tree) == []
