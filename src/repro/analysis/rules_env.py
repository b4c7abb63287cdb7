"""ENV rules: one funnel for environment knobs, honest cache keys.

The persistent disk cache treats results as pure functions of their key
parts; an environment variable that changes results but is read outside
the declared funnel silently poisons that contract (the
``DEFAULT_EXECUTIONS`` import-time read fixed alongside this analyzer
was exactly this bug: workers observed a value frozen at import, and
late ``REPRO_EXECUTIONS`` changes were ignored).

* ``ENV001`` — ``os.environ`` / ``os.getenv`` may be *read* only inside
  :mod:`repro.sim.config`, the typed accessor module whose
  :data:`repro.sim.config.KNOBS` registry declares every knob.  Writes
  (``os.environ[k] = v``) remain legal anywhere — the CLI exports the
  resolved backend to workers that way.
* ``ENV002`` — neither raw environment reads nor knob accessors may
  execute at import time (module body, class body, decorator, or
  argument default).  Import-time reads freeze the value per process.
* ``ENV003`` — cross-check (project rule): every knob whose registry
  entry declares a ``cache_key_symbol`` must have that symbol appear
  inside the experiment harness's disk-cache key tuples, so cached
  cells can never be served across differing knob values.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    ProjectRule,
    Rule,
    SourceModule,
    call_name,
    dotted_name,
    register,
)

#: The only module allowed to read the environment.
CONFIG_MODULE_SUFFIX = "repro/sim/config.py"

#: Harness module whose cache-key tuples ENV003 inspects.
HARNESS_MODULE_SUFFIX = "repro/experiments/harness.py"

#: Variable names treated as cache-key tuples in the harness.
CACHE_KEY_NAMES = ("key",)


def _knob_registry() -> Tuple[Sequence, Set[str]]:
    """The declared knobs and their accessor names.

    Imported lazily so the analyzer can still lint arbitrary trees (the
    rules degrade to raw ``os.environ`` policing when :mod:`repro.sim`
    is not importable).
    """
    try:
        from repro.sim.config import KNOBS
    except ImportError:  # pragma: no cover - repro is always importable here
        return (), set()
    return KNOBS, {knob.accessor for knob in KNOBS}


def _environ_read(node: ast.AST) -> Optional[str]:
    """Describe the environment read ``node`` performs, or None.

    Recognizes ``os.environ.get/setdefault/pop(...)``, ``os.getenv``,
    ``os.environ[...]`` in load context, and ``... in os.environ``.
    """
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("os.getenv", "getenv"):
            return name
        if name in ("os.environ.get", "environ.get",
                    "os.environ.setdefault", "environ.setdefault",
                    "os.environ.pop", "environ.pop",
                    "os.environ.items", "environ.items",
                    "os.environ.copy", "environ.copy"):
            return name
    elif isinstance(node, ast.Subscript):
        if (dotted_name(node.value) in ("os.environ", "environ")
                and isinstance(node.ctx, ast.Load)):
            return "os.environ[...]"
    elif isinstance(node, ast.Compare):
        for comparator in node.comparators:
            if dotted_name(comparator) in ("os.environ", "environ"):
                return "in os.environ"
    return None


@register
class EnvironReadOutsideConfig(Rule):
    """ENV001: environment reads only through the config accessors."""

    id = "ENV001"
    severity = "error"
    description = (
        "os.environ read outside repro/sim/config.py: declare the knob "
        "in repro.sim.config.KNOBS and read it through its typed "
        "accessor so workers, tests, and cache keys agree on its value"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if module.path_matches(CONFIG_MODULE_SUFFIX):
            return
        for node in ast.walk(module.tree):
            what = _environ_read(node)
            if what is not None:
                yield self.finding(
                    module, node,
                    "%s read outside the config accessor module; add an "
                    "accessor to repro.sim.config instead" % what,
                )


@register
class ImportTimeEnvRead(Rule):
    """ENV002: no environment access while a module imports."""

    id = "ENV002"
    severity = "error"
    description = (
        "environment knob evaluated at import time (module constant, "
        "class body, or argument default): the value freezes per "
        "process and late changes are silently ignored"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        _, accessors = _knob_registry()
        import_time = module.import_time_nodes
        for node in ast.walk(module.tree):
            if node not in import_time:
                continue
            what = _environ_read(node)
            if what is None and isinstance(node, ast.Call):
                name = call_name(node)
                if name is not None and name.split(".")[-1] in accessors:
                    what = "%s()" % name
            if what is not None:
                yield self.finding(
                    module, node,
                    "%s executes at import time; resolve the knob inside "
                    "the function that needs it" % what,
                )


def _cache_key_symbols(harness: SourceModule) -> Set[str]:
    """Identifiers appearing inside the harness's cache-key tuples.

    A cache-key tuple is the value of an assignment to ``key``, or a
    tuple passed as the key argument of a ``cached(...)`` call or of a
    ``.get``/``.put`` call on the disk cache.
    """
    tuples: List[ast.AST] = []
    for node in ast.walk(harness.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Name)
                        and target.id in CACHE_KEY_NAMES
                        and isinstance(node.value, ast.Tuple)):
                    tuples.append(node.value)
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name and name.split(".")[-1] in ("cached", "get", "put"):
                for arg in node.args[1:2]:
                    if isinstance(arg, ast.Tuple):
                        tuples.append(arg)
    symbols: Set[str] = set()
    for tuple_node in tuples:
        for node in ast.walk(tuple_node):
            if isinstance(node, ast.Name):
                symbols.add(node.id)
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name:
                    symbols.add(name.split(".")[-1])
    return symbols


@register
class CacheKeyCrossCheck(ProjectRule):
    """ENV003: result-relevant knobs must be folded into cache keys."""

    id = "ENV003"
    severity = "error"
    description = (
        "a knob declared cache-relevant in repro.sim.config.KNOBS does "
        "not appear in the experiment harness's disk-cache key tuples; "
        "cached results could be served across differing knob values"
    )

    def check_project(
        self, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        harness = next(
            (m for m in modules if m.path_matches(HARNESS_MODULE_SUFFIX)),
            None,
        )
        if harness is None:
            # Not analyzing the repository tree (e.g. a fixture dir).
            return
        knobs, _ = _knob_registry()
        symbols = _cache_key_symbols(harness)
        for knob in knobs:
            if knob.cache_key_symbol is None:
                continue
            if knob.cache_key_symbol not in symbols:
                yield Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=str(harness.path),
                    line=1,
                    col=0,
                    message=(
                        "knob %s is declared cache-relevant (symbol %r) "
                        "but that symbol never appears in a cache-key "
                        "tuple in %s"
                        % (knob.name, knob.cache_key_symbol,
                           HARNESS_MODULE_SUFFIX)
                    ),
                )
