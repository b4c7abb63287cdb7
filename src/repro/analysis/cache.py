"""Content-hash incremental cache for ``repro lint``.

The analyzer is fast, but the CI gate and editor integrations run it on
every save; an incremental cache makes the warm path near-free.  A
cache key must fold in *everything* the cached value depends on:

* **Module rules** cache per file, keyed by the file's root-relative
  path and content hash.  A warm hit replays the stored findings and
  suppression tallies without parsing the file.
* **Project rules** cache per run, keyed by the hash of every analyzed
  file's ``(relpath, sha)`` pair: every project rule is a pure function
  of the analyzed sources.
* The whole cache is invalidated when the analyzer itself changes: the
  store embeds a fingerprint of every source file in
  :mod:`repro.analysis`, so editing a rule never replays stale
  findings.

The store is one JSON document under ``.repro_cache/lint/`` (the
repository's cache directory, already git-ignored and skipped by file
collection), written atomically via rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.core import Finding

#: Store format version; bump on layout changes.
CACHE_VERSION = 1

#: Store location relative to the lint root.
CACHE_SUBDIR = Path(".repro_cache") / "lint"


def analyzer_fingerprint() -> str:
    """Hash of every analyzer source file (rules included).

    Any edit to the analyzer package — a new rule, a changed message,
    a driver fix — yields a different fingerprint and therefore a cold
    cache.
    """
    digest = hashlib.sha256()
    package_dir = Path(__file__).resolve().parent
    for source in sorted(package_dir.glob("*.py")):
        digest.update(source.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(source.read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()


class LintCache:
    """Findings cache shared by module and project rule passes.

    The driver (:func:`repro.analysis.core.run_analysis`) owns the
    lookup/store protocol; this class only persists it.
    """

    def __init__(self, root: Path,
                 cache_dir: Optional[Path] = None) -> None:
        self.directory = (Path(cache_dir) if cache_dir is not None
                          else Path(root) / CACHE_SUBDIR)
        self.path = self.directory / "findings.json"
        self._fingerprint = analyzer_fingerprint()
        self._modules: Dict[str, Dict[str, object]] = {}
        self._project: Optional[Dict[str, object]] = None
        self._dirty = False
        self._load()

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return
        if (not isinstance(document, dict)
                or document.get("version") != CACHE_VERSION
                or document.get("analyzer") != self._fingerprint):
            return
        modules = document.get("modules")
        if isinstance(modules, dict):
            self._modules = modules
        project = document.get("project")
        if isinstance(project, dict):
            self._project = project

    def save(self) -> None:
        """Atomically persist the store (no-op when nothing changed)."""
        if not self._dirty:
            return
        document = {
            "version": CACHE_VERSION,
            "analyzer": self._fingerprint,
            "modules": self._modules,
            "project": self._project,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix="findings-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(tmp_name, self.path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        self._dirty = False

    # -- module entries ----------------------------------------------------

    def lookup_module(
        self, relkey: str, sha: str
    ) -> Optional[Tuple[List[Finding], Dict[str, int]]]:
        entry = self._modules.get(relkey)
        if not isinstance(entry, dict) or entry.get("sha") != sha:
            return None
        return (_decode_findings(entry.get("findings")),
                _decode_suppressed(entry.get("suppressed")))

    def store_module(self, relkey: str, sha: str,
                     findings: List[Finding],
                     suppressed_by_rule: Dict[str, int]) -> None:
        self._modules[relkey] = {
            "sha": sha,
            "findings": [f.as_dict() for f in findings],
            "suppressed": dict(suppressed_by_rule),
        }
        self._dirty = True

    # -- the project entry -------------------------------------------------

    def lookup_project(
        self, key: str
    ) -> Optional[Tuple[List[Finding], Dict[str, int]]]:
        entry = self._project
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        return (_decode_findings(entry.get("findings")),
                _decode_suppressed(entry.get("suppressed")))

    def store_project(self, key: str, findings: List[Finding],
                      suppressed_by_rule: Dict[str, int]) -> None:
        self._project = {
            "key": key,
            "findings": [f.as_dict() for f in findings],
            "suppressed": dict(suppressed_by_rule),
        }
        self._dirty = True


def _decode_findings(rows: object) -> List[Finding]:
    findings: List[Finding] = []
    if not isinstance(rows, list):
        return findings
    for row in rows:
        if not isinstance(row, dict):
            continue
        try:
            findings.append(Finding(
                rule=str(row["rule"]),
                severity=str(row["severity"]),
                path=str(row["path"]),
                line=int(row["line"]),
                col=int(row["col"]),
                message=str(row["message"]),
            ))
        except (KeyError, TypeError, ValueError):
            continue
    return findings


def _decode_suppressed(mapping: object) -> Dict[str, int]:
    if not isinstance(mapping, dict):
        return {}
    result: Dict[str, int] = {}
    for rule_id, count in mapping.items():
        try:
            result[str(rule_id)] = int(count)
        except (TypeError, ValueError):
            continue
    return result
