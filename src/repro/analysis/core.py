"""Rule framework of the determinism & invariant analyzer.

The analyzer is a small AST-based lint engine specialized to this
repository's correctness contract: the perf work of PRs 1-3 made the
simulator's results depend on invariants (bit-exact kernels, honest
cache keys, share-nothing sweep workers) that runtime tests can only
sample.  The rules here check them mechanically on every file, the way
Dirigent itself continuously audits execution against a profiled
contract.

Structure:

* :class:`Finding` — one diagnostic, with rule id, severity, location.
* :class:`Rule` — per-module rules; :class:`ProjectRule` — rules that
  need the whole analyzed set (cross-file checks, codegen audits).
* :class:`SourceModule` — a parsed file plus the derived indexes rules
  share: suppression comments, import-time node marking, and a parent
  map.
* :func:`analyze_paths` — the driver: collect files, parse, run every
  registered rule, filter suppressed findings.

Suppressions are inline comments on the offending line::

    t0 = time.time()  # repro-lint: disable=DET001
    x = f()           # repro-lint: disable        (all rules)

Rules register themselves with the :func:`register` decorator; importing
:mod:`repro.analysis.rules_det` (etc.) populates the registry, which
:func:`default_rules` does on demand.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

#: Finding severities, in gating order.  ``error`` findings fail
#: ``repro lint`` (exit 1); ``warning`` findings are reported only.
SEVERITIES = ("error", "warning")

#: Inline suppression syntax: ``# repro-lint: disable=RULE1,RULE2`` or a
#: blanket ``# repro-lint: disable``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<rules>[A-Z0-9,\s]+))?"
)

#: Directory names never analyzed.
_SKIP_DIRS = {"__pycache__", ".git", ".repro_cache"}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule.

    Attributes:
        rule: Rule identifier (e.g. ``"DET001"``).
        severity: ``"error"`` or ``"warning"``.
        path: File the finding is in (as given to the analyzer).
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        message: Human-readable description of the violation.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        """``path:line:col`` for text reporters."""
        return "%s:%d:%d" % (self.path, self.line, self.col)

    def as_dict(self) -> Dict[str, object]:
        """JSON-reporter shape."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class SourceModule:
    """A parsed source file plus the indexes rules share.

    Attributes:
        path: Filesystem path of the file.
        relpath: Path relative to the analysis root, POSIX-style (rules
            match scopes — e.g. ``sim/`` — against this).
        text: Raw source text.
        tree: Parsed :mod:`ast` module.
        suppressions: line -> set of suppressed rule ids; the sentinel
            ``"*"`` suppresses every rule on that line.
    """

    def __init__(self, path: Path, relpath: str, text: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.tree = tree
        self.suppressions = _collect_suppressions(text)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._import_time: Optional[Set[ast.AST]] = None
        self._decorator_owners: Optional[Dict[ast.AST, ast.AST]] = None

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the module tree (built lazily)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    @property
    def import_time_nodes(self) -> Set[ast.AST]:
        """Nodes whose code executes while the module is being imported.

        Covers module-level statements, class bodies, decorators,
        argument defaults and annotations of module/class-level ``def``s
        — everything that runs before the first caller ever invokes a
        function.  Bodies of functions (and lambdas) are excluded.
        """
        if self._import_time is None:
            marked: Set[ast.AST] = set()

            def mark(node: ast.AST, import_time: bool) -> None:
                if import_time:
                    marked.add(node)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # Decorators, defaults, and annotations evaluate at
                    # def-time (import time for top-level/class defs);
                    # the body does not.
                    for dec in node.decorator_list:
                        mark(dec, import_time)
                    args = node.args
                    for default in list(args.defaults) + [
                        d for d in args.kw_defaults if d is not None
                    ]:
                        mark(default, import_time)
                    for child in node.body:
                        mark(child, False)
                elif isinstance(node, ast.Lambda):
                    for default in list(node.args.defaults) + [
                        d for d in node.args.kw_defaults if d is not None
                    ]:
                        mark(default, import_time)
                    mark(node.body, False)
                else:
                    for child in ast.iter_child_nodes(node):
                        mark(child, import_time)

            for stmt in self.tree.body:
                mark(stmt, True)
            self._import_time = marked
        return self._import_time

    def decorator_owner(self, node: ast.AST) -> Optional[ast.AST]:
        """The decorated ``def``/``class`` owning ``node``, or None.

        Findings anchored at nodes *inside* a decorator expression are
        reported at the owning definition's line, so an inline
        ``# repro-lint: disable=RULE`` placed on the ``def`` line
        suppresses them (the natural place reviewers put it).
        """
        if self._decorator_owners is None:
            owners: Dict[ast.AST, ast.AST] = {}
            for owner in ast.walk(self.tree):
                if not isinstance(owner, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                    continue
                for dec in owner.decorator_list:
                    for inner in ast.walk(dec):
                        owners[inner] = owner
            self._decorator_owners = owners
        return self._decorator_owners.get(node)

    def path_matches(self, *suffixes: str) -> bool:
        """True when the module's relative path ends with any suffix."""
        return any(self.relpath.endswith(suffix) for suffix in suffixes)

    def in_scope(self, scope: Optional[str]) -> bool:
        """True when the module lies under ``scope`` (``None`` = all)."""
        if scope is None:
            return True
        return ("/%s" % scope) in ("/" + self.relpath)

    def top_level_names(self) -> Set[str]:
        """Names bound by module-level statements (defs, assigns, imports)."""
        names: Set[str] = set()
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    names.update(_target_names(target))
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                names.update(_target_names(stmt.target))
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    names.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    names.add(alias.asname or alias.name)
        return names

    def suppressed(self, finding: Finding) -> bool:
        """True when an inline comment silences this finding."""
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "*" in rules or finding.rule in rules


def _target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.update(_target_names(element))
    return names


def _collect_suppressions(text: str) -> Dict[int, Set[str]]:
    """Parse ``# repro-lint: disable[=...]`` comments, by line."""
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            raw = match.group("rules")
            if raw is None:
                rules = {"*"}
            else:
                rules = {r.strip() for r in raw.split(",") if r.strip()}
            suppressions.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass
    return suppressions


# ---------------------------------------------------------------------------
# Rules and registry
# ---------------------------------------------------------------------------


class Rule:
    """Base class for per-module rules.

    Subclasses set ``id``, ``severity``, and ``description`` and
    implement :meth:`check_module`.  The driver instantiates each rule
    once per run.
    """

    id: str = ""
    severity: str = "error"
    description: str = ""
    #: "module" for per-file rules, "project" for whole-set rules;
    #: surfaced by ``--list-rules`` and used by the incremental cache
    #: (module-rule findings cache per file, project rules per run).
    kind: str = "module"

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at ``node``.

        A node inside a decorator expression anchors at the decorated
        definition's ``def``/``class`` line instead, so suppressions
        placed on the definition line apply.
        """
        anchor = module.decorator_owner(node) or node
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=str(module.path),
            line=getattr(anchor, "lineno", 1),
            col=getattr(anchor, "col_offset", 0),
            message=message,
        )


class ProjectRule(Rule):
    """A rule that runs once over the whole analyzed module set."""

    kind = "project"

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        """Yield findings for the analyzed set as a whole."""
        raise NotImplementedError


#: Registered rule classes by id, in registration order.
REGISTRY: Dict[str, type] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError("rule %r has no id" % rule_cls)
    if rule_cls.id in REGISTRY and REGISTRY[rule_cls.id] is not rule_cls:
        raise ValueError("duplicate rule id %s" % rule_cls.id)
    if rule_cls.severity not in SEVERITIES:
        raise ValueError(
            "rule %s has invalid severity %r" % (rule_cls.id,
                                                 rule_cls.severity)
        )
    REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def default_rules() -> List[Rule]:
    """Instantiate every registered rule (importing the rule modules)."""
    # Imported here so the registry is populated exactly once, on first
    # use, without import cycles at package-init time.
    from repro.analysis import (  # noqa: F401
        rules_cov,
        rules_det,
        rules_env,
        rules_flo,
        rules_gen,
        rules_par,
    )
    return [REGISTRY[rule_id]() for rule_id in sorted(REGISTRY)]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Dotted name of an expression (``a.b.c``), or None if not one."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    """Dotted name a call targets (``a.b.c`` for ``a.b.c(...)``)."""
    return dotted_name(call.func)


def is_set_expression(node: ast.AST) -> bool:
    """True for expressions that are unambiguously unordered sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset")
    return False


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand paths into the sorted list of ``.py`` files to analyze.

    Overlapping inputs (``repro lint src src/repro``, a file listed
    twice, a directory plus a file inside it) are deduplicated by
    resolved path, so each file is analyzed — and each finding counted
    — exactly once.
    """
    files: List[Path] = []
    seen: Set[Path] = set()

    def add(candidate: Path) -> None:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            files.append(candidate)

    for path in paths:
        if path.is_file() and path.suffix == ".py":
            add(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = set(candidate.parts)
                if parts & _SKIP_DIRS or ".egg-info" in str(candidate):
                    continue
                add(candidate)
    return files


def module_relpath(path: Path, root: Optional[Path] = None) -> str:
    """POSIX path of ``path`` relative to ``root`` (scope matching)."""
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()
    return path.as_posix()


def load_module(path: Path, root: Optional[Path] = None) -> SourceModule:
    """Parse one file into a :class:`SourceModule`.

    Raises:
        SyntaxError: when the file does not parse (reported by the
            driver as an analyzer-level finding).
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return SourceModule(path, module_relpath(path, root), text, tree)


@dataclass
class RuleStats:
    """Per-rule run accounting (surfaced in the JSON summary)."""

    findings: int = 0
    suppressed: int = 0
    time_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "findings": self.findings,
            "suppressed": self.suppressed,
            "time_s": round(self.time_s, 6),
        }


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced, for reporters and the CLI."""

    findings: List[Finding]
    checked_files: int
    rule_stats: Dict[str, RuleStats] = field(default_factory=dict)
    cache_stats: Optional[Dict[str, object]] = None

    @property
    def suppressed(self) -> int:
        """Total findings silenced by inline suppressions."""
        return sum(stats.suppressed for stats in self.rule_stats.values())


def _stats_for(rule_stats: Dict[str, RuleStats], rule_id: str) -> RuleStats:
    stats = rule_stats.get(rule_id)
    if stats is None:
        stats = rule_stats[rule_id] = RuleStats()
    return stats


def run_analysis(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
    cache=None,
) -> AnalysisResult:
    """Run ``rules`` (default: all registered) over ``paths``.

    Findings come back sorted by (path, line, rule) with inline
    suppressions already filtered out; files that fail to parse yield a
    synthetic ``PARSE`` error finding instead of aborting the run.
    ``cache`` (a :class:`repro.analysis.cache.LintCache`) reuses
    module-rule findings for files whose content hash is unchanged and
    the whole project-rule pass when *no* analyzed file changed — a
    fully warm run never parses a single file.
    """
    if rules is None:
        rules = default_rules()
    module_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    rule_stats: Dict[str, RuleStats] = {r.id: RuleStats() for r in rules}
    findings: List[Finding] = []

    entries: List[tuple] = []  # (path, relkey, text, content_sha)
    for path in collect_files([Path(p) for p in paths]):
        text = path.read_text(encoding="utf-8")
        entries.append((path, module_relpath(path, root), text,
                        _content_sha(text)))

    project_key = None
    cached_project = None
    if cache is not None and project_rules:
        project_key = _content_sha("\x1f".join(
            sorted("%s=%s" % (relkey, sha)
                   for _, relkey, _, sha in entries)
        ))
        cached_project = cache.lookup_project(project_key)
    # Project rules need the parsed module set, so a project-cache miss
    # forces parsing even content-unchanged files (their module-rule
    # findings still come from the cache).
    need_all_modules = bool(project_rules) and cached_project is None

    modules: List[SourceModule] = []
    files_reused = 0
    for path, relkey, text, sha in entries:
        cached_mod = cache.lookup_module(relkey, sha) if cache else None
        if cached_mod is not None:
            mod_findings, suppressed_by_rule = cached_mod
            files_reused += 1
            findings.extend(mod_findings)
            for finding in mod_findings:
                _stats_for(rule_stats, finding.rule).findings += 1
            for rule_id, count in suppressed_by_rule.items():
                _stats_for(rule_stats, rule_id).suppressed += count
            if not need_all_modules:
                continue
        try:
            module = load_module(path, root=root)
        except SyntaxError as exc:
            if cached_mod is None:
                parse_finding = Finding(
                    rule="PARSE",
                    severity="error",
                    path=str(path),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message="file does not parse: %s" % exc.msg,
                )
                findings.append(parse_finding)
                _stats_for(rule_stats, "PARSE").findings += 1
                if cache is not None:
                    cache.store_module(relkey, sha, [parse_finding], {})
            continue
        modules.append(module)
        if cached_mod is not None:
            continue  # parsed only for the project pass
        mod_findings = []
        suppressed_by_rule: Dict[str, int] = {}
        for rule in module_rules:
            stats = rule_stats[rule.id]
            started = time.perf_counter()
            for finding in rule.check_module(module):
                if module.suppressed(finding):
                    stats.suppressed += 1
                    suppressed_by_rule[rule.id] = (
                        suppressed_by_rule.get(rule.id, 0) + 1
                    )
                else:
                    mod_findings.append(finding)
                    stats.findings += 1
            stats.time_s += time.perf_counter() - started
        findings.extend(mod_findings)
        if cache is not None:
            cache.store_module(relkey, sha, mod_findings,
                               suppressed_by_rule)

    if cached_project is not None:
        project_findings, suppressed_by_rule = cached_project
        findings.extend(project_findings)
        for finding in project_findings:
            _stats_for(rule_stats, finding.rule).findings += 1
        for rule_id, count in suppressed_by_rule.items():
            _stats_for(rule_stats, rule_id).suppressed += count
    else:
        by_path = {str(m.path): m for m in modules}
        project_findings = []
        suppressed_by_rule = {}
        for rule in project_rules:
            stats = rule_stats[rule.id]
            started = time.perf_counter()
            for finding in rule.check_project(modules):
                module = by_path.get(finding.path)
                if module is not None and module.suppressed(finding):
                    stats.suppressed += 1
                    suppressed_by_rule[rule.id] = (
                        suppressed_by_rule.get(rule.id, 0) + 1
                    )
                else:
                    project_findings.append(finding)
                    stats.findings += 1
            stats.time_s += time.perf_counter() - started
        findings.extend(project_findings)
        if cache is not None and project_key is not None:
            cache.store_project(project_key, project_findings,
                                suppressed_by_rule)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    cache_stats = None
    if cache is not None:
        cache_stats = {
            "enabled": True,
            "files_reused": files_reused,
            "files_analyzed": len(entries) - files_reused,
            "project_reused": cached_project is not None,
        }
        cache.save()
    return AnalysisResult(
        findings=findings,
        checked_files=len(entries),
        rule_stats=rule_stats,
        cache_stats=cache_stats,
    )


def analyze_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """:func:`run_analysis` returning just the finding list."""
    return run_analysis(paths, rules=rules, root=root).findings


def _content_sha(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def iter_rule_info(rules: Iterable[Rule]) -> Iterator[Dict[str, str]]:
    """Rule metadata rows for reporters and ``--list-rules``."""
    for rule in rules:
        yield {
            "id": rule.id,
            "severity": rule.severity,
            "kind": rule.kind,
            "description": rule.description,
        }
