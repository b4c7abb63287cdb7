"""COV rules: cross-backend state-coverage audit.

Two backends advance the same machine state — the scalar reference
kernel (``Machine.tick``) and the batch engine's span-compiled kernels
— and the runtime equivalence suites can only *sample* their
agreement.  The #1 silent-corruption risk as the simulator grows is a
new hot-state field that the scalar kernel mutates and the span
kernels never mirror: every sampled run still matches until a workload
touches the forgotten field.

These project rules close that hole statically.  An AST def-use pass
extracts the set of state mutations in the scalar hot path — attribute
stores, stores through hoisted aliases (``clock = self.clock``;
``cnt_i, cnt_c, cnt_a, cnt_m = self._cnt_arrays``), mutating method
calls on machine sub-objects and processes, RNG draws through hoisted
bound-method tables, method calls on elements of hoisted tables
(``tape = tapes[core]; tape.fill(pos)``), and calls of state-advancing
callable attributes
— and cross-checks it against the machine-readable mirrored-state
registry the span kernels export:

* ``COV002`` — scalar extraction vs the span-kernel registry
  :data:`repro.sim.spanplan.KERNEL_STATE`.  A hot-state mutation absent
  from the registry (and not in the machine module's
  ``SCALAR_ONLY_STATE`` allowlist) is an error; so is a registry entry
  with no scalar counterpart (stale documentation) and a stale
  allowlist row.  A shape-arity audit rides along: every
  ``template_shapes()`` entry must have exactly the arity
  ``SHAPE_FIELDS`` declares, so a new shape axis cannot land without
  the audit learning about it.
* ``COV003`` — the experiment harness's declared
  ``CACHE_KEY_FIELDS`` registry vs its actual result-store
  ``cached(...)`` and disk-cache ``get``/``put`` call sites: undeclared
  namespaces, declared-but-unused namespaces, and key tuples missing a
  declared identifier are all errors.

The registry is read from the *analyzed* modules' ASTs when those
modules are part of the run (so fixture trees are self-contained), and
from the live package otherwise (so ``repro lint
src/repro/sim/machine.py``, an explicit partial path, still
cross-checks).  Like the other project
rules, each rule skips silently when its subject module is not in the
analyzed set.

Naming convention shared by the extraction and the registry: plain
machine attributes (``_rho``), per-process members
(``process.progress``), mutating process method calls
(``process.advance()``), and state-advancing callable attributes
(``_cache_tick()``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set

from repro.analysis.core import (
    Finding,
    ProjectRule,
    SourceModule,
    call_name,
    register,
)

#: Module suffixes of the audited subjects.
MACHINE_MODULE_SUFFIX = "repro/sim/machine.py"
SPANPLAN_MODULE_SUFFIX = "repro/sim/spanplan.py"
HARNESS_MODULE_SUFFIX = "repro/experiments/harness.py"

#: The scalar reference class and its hot-path entry points.
MACHINE_CLASS = "Machine"
HOT_METHODS = ("tick", "dispatch_events", "settle_cache")

#: Attributes whose elements are processes: a name bound by iterating
#: or indexing one of these becomes process-valued, and mutations
#: through it are recorded as ``process.<member>`` entries.
PROCESS_SOURCES = frozenset({"_procs_by_core", "_b_proc"})

#: Name of the scalar-only allowlist parsed from the machine module.
SCALAR_ONLY_NAME = "SCALAR_ONLY_STATE"

#: Receiver names treated as the disk cache in the harness (COV003).
DISK_RECEIVERS = frozenset({"disk", "cache"})

#: The result store's one entry point, ``cached(kind, key, compute)``
#: (COV003): its key tuple feeds both the memo and the disk.
STORE_CALL = "cached"


# ---------------------------------------------------------------------------
# Scalar hot-path def-use extraction
# ---------------------------------------------------------------------------


def _self_attr(node: ast.AST, self_name: str) -> Optional[str]:
    """Attribute name for ``self.<attr>`` expressions, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name):
        return node.attr
    return None


class _MethodExtraction:
    """Def-use state for one method of the machine class."""

    def __init__(self, func: ast.FunctionDef, mutated: Set[str],
                 self_calls: Set[str]) -> None:
        self.func = func
        self.self_name = func.args.args[0].arg if func.args.args else "self"
        self.mutated = mutated          # shared across methods
        self.self_calls = self_calls    # shared recursion worklist
        self.alias: Dict[str, str] = {}        # local -> machine attr
        self.element_of: Dict[str, str] = {}   # loop var -> machine attr
        self.process_names: Set[str] = set()

    # -- pass 1: aliases --------------------------------------------------

    def collect_aliases(self) -> None:
        for node in ast.walk(self.func):
            if not isinstance(node, ast.Assign):
                continue
            attr = _self_attr(node.value, self.self_name)
            if attr is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.alias[target.id] = attr
                elif isinstance(target, ast.Tuple):
                    # cnt_i, cnt_c, cnt_a, cnt_m = self._cnt_arrays —
                    # each unpacked name aliases the source attribute.
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            self.alias[element.id] = attr

    def _attr_of(self, node: ast.AST) -> Optional[str]:
        """Machine attribute an expression refers to (direct or alias)."""
        attr = _self_attr(node, self.self_name)
        if attr is not None:
            return attr
        if isinstance(node, ast.Name):
            return self.alias.get(node.id)
        return None

    # -- pass 2: process-valued names and element bindings ----------------

    def collect_bindings(self) -> None:
        for node in ast.walk(self.func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
                target = node.target
                if (isinstance(iter_expr, ast.Call)
                        and call_name(iter_expr) == "enumerate"
                        and iter_expr.args):
                    # for core, proc in enumerate(self._procs_by_core)
                    attr = self._attr_of(iter_expr.args[0])
                    if (attr in PROCESS_SOURCES
                            and isinstance(target, ast.Tuple)
                            and len(target.elts) == 2
                            and isinstance(target.elts[1], ast.Name)):
                        self.process_names.add(target.elts[1].id)
                else:
                    attr = self._attr_of(iter_expr)
                    if attr is not None and isinstance(target, ast.Name):
                        if attr in PROCESS_SOURCES:
                            self.process_names.add(target.id)
                        self.element_of[target.id] = attr
            elif (isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Subscript)):
                # proc = procs_a[i] / proc = self._procs_by_core[core]
                # binds a process; tape = tapes[core] an element of a
                # hoisted table.
                attr = self._attr_of(node.value.value)
                if attr is None:
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if attr in PROCESS_SOURCES:
                        self.process_names.add(target.id)
                    else:
                        self.element_of[target.id] = attr

    # -- pass 3: mutations -------------------------------------------------

    def _record_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element)
            return
        if isinstance(target, ast.Subscript):
            attr = self._attr_of(target.value)
            if attr is not None:
                self.mutated.add(attr)
            return
        if isinstance(target, ast.Attribute):
            base = target.value
            attr = _self_attr(target, self.self_name)
            if attr is not None:
                self.mutated.add(attr)
                return
            base_attr = self._attr_of(base)
            if base_attr is not None:
                # clock.tick = ... / self.clock.tick = ...
                self.mutated.add(base_attr)
                return
            if isinstance(base, ast.Name) and base.id in self.process_names:
                self.mutated.add("process.%s" % target.attr)

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            receiver_attr = _self_attr(func, self.self_name)
            if receiver_attr is not None:
                # self.<name>(...): a def on the class is analyzed
                # recursively; anything else is a state-advancing
                # callable attribute (e.g. the hoisted
                # ``self._cache_tick = cache.tick_update``).
                self.self_calls.add(receiver_attr)
                return
            base_attr = self._attr_of(base)
            if base_attr is not None:
                # self.governor.tick(...) / memory.observe(...)
                self.mutated.add(base_attr)
                return
            if isinstance(base, ast.Name) and base.id in self.process_names:
                self.mutated.add("process.%s()" % func.attr)
            elif isinstance(base, ast.Name) and base.id in self.element_of:
                # tape = tapes[core]; tape.fill(pos): a method call on an
                # element of a hoisted table advances that element.
                self.mutated.add(self.element_of[base.id])
        elif isinstance(func, ast.Subscript):
            # gauss_fns[core](mu, sigma): a draw through a hoisted
            # bound-method table advances that RNG's state.
            attr = self._attr_of(func.value)
            if attr is not None:
                self.mutated.add(attr)
        elif isinstance(func, ast.Name):
            attr = self.element_of.get(func.id)
            if attr is not None:
                # for listener in self._completion_listeners: listener()
                self.mutated.add(attr)

    def collect_mutations(self) -> None:
        for node in ast.walk(self.func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._record_store(target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._record_store(node.target)
            elif isinstance(node, ast.Call):
                self._record_call(node)


def extract_hot_state(module: SourceModule) -> Optional[Set[str]]:
    """Mutation set of the machine class's hot path, or None.

    Returns None when the module has no ``class Machine`` with a
    ``tick`` method (the caller reports that as drift when it expected
    the scalar reference).  Calls of ``self.<method>()`` where the
    method is defined on the class are followed recursively, so helper
    methods reached from the hot entry points (``_occupancy_weights``,
    ``settle_cache``) contribute their mutations too.
    """
    machine = next(
        (node for node in module.tree.body
         if isinstance(node, ast.ClassDef) and node.name == MACHINE_CLASS),
        None,
    )
    if machine is None:
        return None
    methods = {
        stmt.name: stmt for stmt in machine.body
        if isinstance(stmt, ast.FunctionDef)
    }
    if "tick" not in methods:
        return None
    mutated: Set[str] = set()
    worklist = [name for name in HOT_METHODS if name in methods]
    done: Set[str] = set()
    while worklist:
        name = worklist.pop()
        if name in done:
            continue
        done.add(name)
        self_calls: Set[str] = set()
        extraction = _MethodExtraction(methods[name], mutated, self_calls)
        extraction.collect_aliases()
        extraction.collect_bindings()
        extraction.collect_mutations()
        for called in self_calls:
            if called in methods:
                worklist.append(called)
            else:
                mutated.add("%s()" % called)
    return mutated


# ---------------------------------------------------------------------------
# Registry parsing (from analyzed ASTs, with live-package fallback)
# ---------------------------------------------------------------------------


def _module_assign(module: SourceModule, name: str) -> Optional[ast.Assign]:
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt
    return None


def _string_constants(node: ast.AST) -> Set[str]:
    """String constants inside a set/frozenset/tuple/list literal."""
    values: Set[str] = set()
    if isinstance(node, ast.Call) and call_name(node) in ("frozenset",
                                                          "set"):
        for arg in node.args:
            values |= _string_constants(arg)
        return values
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(
                    element.value, str):
                values.add(element.value)
    return values


def parse_registry_keys(module: SourceModule,
                        name: str) -> Optional[Set[str]]:
    """Keys of a module-level ``NAME = {...}`` dict literal, or None."""
    stmt = _module_assign(module, name)
    if stmt is None or not isinstance(stmt.value, ast.Dict):
        return None
    keys: Set[str] = set()
    for key in stmt.value.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def parse_scalar_only(module: SourceModule) -> Set[str]:
    """The machine module's ``SCALAR_ONLY_STATE`` allowlist (may be empty)."""
    stmt = _module_assign(module, SCALAR_ONLY_NAME)
    if stmt is None:
        return set()
    return _string_constants(stmt.value)


def _live_registry_keys(module_name: str, attr: str) -> Optional[Set[str]]:
    """Registry keys from the live package (partial-path runs)."""
    try:
        import importlib

        live = importlib.import_module(module_name)
        return set(getattr(live, attr))
    except Exception:
        return None


# ---------------------------------------------------------------------------
# COV002: machine hot state vs the span-kernel registry
# ---------------------------------------------------------------------------


def _find(modules: Sequence[SourceModule],
          suffix: str) -> Optional[SourceModule]:
    return next((m for m in modules if m.path_matches(suffix)), None)


@register
class KernelStateCoverage(ProjectRule):
    """COV002: span-kernel KERNEL_STATE + template shape arity."""

    id = "COV002"
    severity = "error"
    description = (
        "a hot-state attribute mutated by the scalar Machine.tick is "
        "missing from the span-kernel KERNEL_STATE registry, or a "
        "template_shapes() entry does not match the declared "
        "SHAPE_FIELDS arity"
    )
    registry_module = "repro.sim.spanplan"
    registry_name = "KERNEL_STATE"

    def _registry_finding(self, module: SourceModule,
                          message: str) -> Finding:
        return Finding(
            rule=self.id, severity=self.severity,
            path=str(module.path), line=1, col=0, message=message,
        )

    def check_project(
        self, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        yield from self.coverage_findings(modules)
        spanplan = _find(modules, SPANPLAN_MODULE_SUFFIX)
        if spanplan is None:
            return
        try:
            from repro.sim.spanplan import SHAPE_FIELDS, template_shapes
        except ImportError as exc:
            yield self._registry_finding(
                spanplan,
                "cannot import the shape-field registry: %s" % exc,
            )
            return
        for shape in template_shapes():
            if len(shape) != len(SHAPE_FIELDS):
                yield self._registry_finding(
                    spanplan,
                    "template shape %r has %d fields but SHAPE_FIELDS "
                    "declares %d (%s); extend the registry (and the "
                    "kernel audit) when adding a shape axis"
                    % (shape, len(shape), len(SHAPE_FIELDS),
                       ", ".join(SHAPE_FIELDS)),
                )

    def coverage_findings(
        self, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        """The scalar extraction vs ``KERNEL_STATE``, both directions."""
        machine = _find(modules, MACHINE_MODULE_SUFFIX)
        if machine is None:
            return
        registry_mod = _find(modules, SPANPLAN_MODULE_SUFFIX)
        if registry_mod is not None:
            registry = parse_registry_keys(registry_mod,
                                           self.registry_name)
            anchor = registry_mod
        else:
            registry = _live_registry_keys(self.registry_module,
                                           self.registry_name)
            anchor = machine
        if registry is None:
            yield self._registry_finding(
                anchor,
                "cannot resolve the span-kernel mirrored-state registry "
                "%s.%s (neither a module-level dict literal in the "
                "analyzed tree nor a live import)"
                % (self.registry_module, self.registry_name),
            )
            return
        extracted = extract_hot_state(machine)
        if extracted is None:
            yield self._registry_finding(
                machine,
                "machine module defines no `class Machine` with a "
                "`tick` method; the scalar reference hot path is the "
                "anchor of the backend state-coverage audit",
            )
            return
        scalar_only = parse_scalar_only(machine)
        for name in sorted(extracted - registry - scalar_only):
            yield self._registry_finding(
                machine,
                "hot-state mutation %r in the scalar kernel has no "
                "entry in %s (%s) and is not allowlisted in %s; the "
                "span-compiled backend would silently drop it — mirror "
                "it or allowlist it explicitly"
                % (name, self.registry_name, self.registry_module,
                   SCALAR_ONLY_NAME),
            )
        for name in sorted(registry - extracted):
            yield self._registry_finding(
                anchor,
                "registry entry %r in %s has no counterpart mutation "
                "in the scalar hot path; remove the stale row (or the "
                "scalar kernel lost a mutation it must perform)"
                % (name, self.registry_name),
            )
        for name in sorted(scalar_only & registry):
            yield self._registry_finding(
                machine,
                "%r is declared scalar-only in %s but also appears in "
                "%s; it cannot be both" % (name, SCALAR_ONLY_NAME,
                                           self.registry_name),
            )
        for name in sorted(scalar_only - extracted):
            yield self._registry_finding(
                machine,
                "allowlist entry %r in %s matches no mutation in the "
                "scalar hot path; remove the stale row"
                % (name, SCALAR_ONLY_NAME),
            )


# ---------------------------------------------------------------------------
# COV003: harness cache-key field registry vs call sites
# ---------------------------------------------------------------------------


def _enclosing_function(module: SourceModule,
                        node: ast.AST) -> Optional[ast.AST]:
    parents = module.parents
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None


def _tuple_symbols(tuple_node: ast.AST) -> Set[str]:
    """Identifiers inside a cache-key tuple (ENV003's convention).

    A direct ``resolve_backend()`` call and a ``backend`` local are the
    same value by construction, so both map to the ``backend`` symbol.
    """
    symbols: Set[str] = set()
    for node in ast.walk(tuple_node):
        if isinstance(node, ast.Name):
            symbols.add(node.id)
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name:
                symbols.add(name.split(".")[-1])
    if "resolve_backend" in symbols:
        symbols.add("backend")
    return symbols


def _is_cache_call(node: ast.Call) -> bool:
    """A ``cached(kind, key, ...)`` or ``disk.get``/``put`` call."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == STORE_CALL
    return (isinstance(func, ast.Attribute)
            and func.attr in ("get", "put")
            and isinstance(func.value, ast.Name)
            and func.value.id in DISK_RECEIVERS)


def _parse_key_fields(
    module: SourceModule,
) -> Optional[Dict[str, Sequence[str]]]:
    stmt = _module_assign(module, "CACHE_KEY_FIELDS")
    if stmt is None or not isinstance(stmt.value, ast.Dict):
        return None
    fields: Dict[str, Sequence[str]] = {}
    for key, value in zip(stmt.value.keys, stmt.value.values):
        if not (isinstance(key, ast.Constant)
                and isinstance(key.value, str)):
            continue
        fields[key.value] = sorted(_string_constants(value))
    return fields


@register
class CacheKeyFieldCoverage(ProjectRule):
    """COV003: result-cache namespaces and key fields match the registry."""

    id = "COV003"
    severity = "error"
    description = (
        "a cached(...) call or disk-cache get/put in the experiment "
        "harness uses an undeclared namespace, omits a declared key "
        "field, or the CACHE_KEY_FIELDS registry declares a namespace "
        "no call site uses"
    )

    def check_project(
        self, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        harness = _find(modules, HARNESS_MODULE_SUFFIX)
        if harness is None:
            return
        declared = _parse_key_fields(harness)
        if declared is None:
            yield Finding(
                rule=self.id, severity=self.severity,
                path=str(harness.path), line=1, col=0,
                message=(
                    "harness declares no module-level CACHE_KEY_FIELDS "
                    "dict; every result-cache namespace must declare the "
                    "identifiers its key tuples fold in"
                ),
            )
            return
        registry_line = _module_assign(harness, "CACHE_KEY_FIELDS").lineno
        used: Set[str] = set()
        for node in ast.walk(harness.tree):
            if not (isinstance(node, ast.Call) and _is_cache_call(node)):
                continue
            if len(node.args) < 2:
                continue
            namespace_arg = node.args[0]
            if not (isinstance(namespace_arg, ast.Constant)
                    and isinstance(namespace_arg.value, str)):
                continue
            namespace = namespace_arg.value
            used.add(namespace)
            if namespace not in declared:
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=str(harness.path), line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "result-cache namespace %r is not declared in "
                        "CACHE_KEY_FIELDS; declare its required key "
                        "fields" % namespace
                    ),
                )
                continue
            key_tuple = self._resolve_key(harness, node)
            if key_tuple is None:
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=str(harness.path), line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "cannot resolve the key tuple of this %r "
                        "cache call to a tuple literal; use an "
                        "inline tuple or a same-function `key = (...)` "
                        "assignment so the audit can see its fields"
                        % namespace
                    ),
                )
                continue
            missing = [
                symbol for symbol in declared[namespace]
                if symbol not in _tuple_symbols(key_tuple)
            ]
            if missing:
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=str(harness.path), line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "key tuple of this %r cache call omits "
                        "declared field(s) %s; cached results could be "
                        "served across differing values"
                        % (namespace, ", ".join(sorted(missing)))
                    ),
                )
        for namespace in sorted(set(declared) - used):
            yield Finding(
                rule=self.id, severity=self.severity,
                path=str(harness.path), line=registry_line, col=0,
                message=(
                    "CACHE_KEY_FIELDS declares namespace %r but no "
                    "cache call site uses it; remove the stale "
                    "row" % namespace
                ),
            )

    def _resolve_key(self, module: SourceModule,
                     call: ast.Call) -> Optional[ast.AST]:
        key_expr = call.args[1]
        if isinstance(key_expr, ast.Tuple):
            return key_expr
        if not isinstance(key_expr, ast.Name):
            return None
        scope = _enclosing_function(module, call)
        if scope is None:
            return None
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Name)
                        and target.id == key_expr.id
                        and isinstance(node.value, ast.Tuple)):
                    return node.value
        return None
