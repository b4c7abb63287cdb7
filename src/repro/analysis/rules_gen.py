"""GEN rules: audit of the span-compiled kernel code generator.

:mod:`repro.sim.spanplan` builds Python source at runtime and
``exec``-compiles it into the simulator's hottest loop.  The generated
kernels are trusted to be bit-identical to the scalar reference *and*
to be pure straight-line float code: every constant closure-bound or
loaded from a closure-bound plan list in the kernel's prologue, no
global lookups (the exec namespace deliberately has empty
``__builtins__``), and no attribute chasing inside the lane loops.
These rules parse the very source strings the generator hands to
``exec()`` — via its kernel-template entry points — and verify that
contract on the AST, so a codegen regression fails lint before it can
reach a benchmark.

* ``GEN001`` (per module) — ``exec``/``eval`` hygiene: any module that
  calls ``exec()`` must pass an explicit namespace (no implicit
  globals) and must export the kernel-template entry points
  (``template_shapes``/``generate_kernel_source``) that make its
  generated code auditable.
* ``GEN002`` (project) — the generated-kernel audit proper, run over
  :func:`repro.sim.spanplan.template_shapes`:

  - the generated module must consist of exactly one factory function
    binding all constants through closure cells (the per-lane phase
    and frequency constants as plan lists the kernel's prologue loads
    into locals) — no imports, no ``global`` statements;
  - every call inside the kernel must target an allowlisted name
    (the math closures ``e_``/``lg_``/``cs_``/``sn_``/``sq_``, the
    per-lane RNG draws ``rnd_<i>``, the timer-RNG draw ``tr_`` of
    in-kernel sampler wakeups, ``acc_e``) or an allowlisted method
    (``advance``, ``complete_execution``, ``append``) on a bound name;
  - no name anywhere in the generated code may resolve to a global
    (checked with :mod:`symtable` — with empty ``__builtins__`` a
    global lookup is a latent ``NameError``);
  - inside the hot ``while`` loops, attribute access is restricted to
    the completion-path allowlist (``progress``,
    ``execution_misses``, ``_target_total`` and the allowlisted
    methods) on plain bound names — never chained, never on call
    results.
"""

from __future__ import annotations

import ast
import re
import symtable
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Set

from repro.analysis.core import (
    Finding,
    ProjectRule,
    Rule,
    SourceModule,
    call_name,
    register,
)

#: Module suffix of the kernel code generator.
SPANPLAN_MODULE_SUFFIX = "repro/sim/spanplan.py"

#: Entry points a codegen module must export to be auditable.
TEMPLATE_ENTRY_POINTS = ("template_shapes", "generate_kernel_source")

#: Plain-name callables the generated kernels may invoke.  ``tr_`` is
#: the timer wheel's ``random``, drawn when a span kernel reschedules a
#: sampler wakeup it took in-kernel.
ALLOWED_CALLS = re.compile(
    r"^(e_|lg_|cs_|sn_|sq_|acc_e|tr_|rnd_\d+)$"
)

#: Methods the generated kernels may invoke (on plain bound names).
ALLOWED_METHODS = frozenset({
    "advance", "complete_execution", "append",
})

#: Attributes tolerated inside the hot loops (completion path reads and
#: write-backs on closure-bound lane objects).
LOOP_ATTRIBUTES = frozenset({
    "progress", "execution_misses", "_target_total",
}) | ALLOWED_METHODS


@dataclass(frozen=True)
class KernelViolation:
    """One contract breach inside a generated kernel source."""

    line: int
    message: str


def audit_kernel_source(source: str,
                        origin: str = "<kernel>") -> List[KernelViolation]:
    """Audit one generated kernel source string.

    Returns the list of contract violations (empty for a conforming
    kernel).  Used by the ``GEN002`` project rule over the shipped
    templates and by tests over doctored sources and real compiled
    kernels.
    """
    violations: List[KernelViolation] = []
    try:
        tree = ast.parse(source, filename=origin)
    except SyntaxError as exc:
        return [KernelViolation(exc.lineno or 1,
                                "generated source does not parse: %s"
                                % exc.msg)]

    # -- module shape: one factory, nothing else, no imports/globals --
    if not (len(tree.body) == 1
            and isinstance(tree.body[0], ast.FunctionDef)):
        violations.append(KernelViolation(
            1, "generated module must be exactly one factory function "
               "(constants enter through closure cells only)"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            violations.append(KernelViolation(
                node.lineno, "generated code must not import"))
        elif isinstance(node, ast.Global):
            violations.append(KernelViolation(
                node.lineno, "generated code must not declare globals"))

    # -- call allowlist --
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if not ALLOWED_CALLS.match(func.id):
                violations.append(KernelViolation(
                    node.lineno,
                    "call to non-allowlisted name %r" % func.id))
        elif isinstance(func, ast.Attribute):
            if func.attr not in ALLOWED_METHODS:
                violations.append(KernelViolation(
                    node.lineno,
                    "call to non-allowlisted method .%s()" % func.attr))
            elif not isinstance(func.value, ast.Name):
                violations.append(KernelViolation(
                    node.lineno,
                    "method call receiver must be a bound name, not a "
                    "chained expression"))
        else:
            violations.append(KernelViolation(
                node.lineno, "call target must be a simple name"))

    # -- no global name resolution anywhere (empty __builtins__) --
    try:
        table = symtable.symtable(source, origin, "exec")
    except SyntaxError:  # already reported above
        table = None
    if table is not None:
        stack = [table]
        while stack:
            scope = stack.pop()
            stack.extend(scope.get_children())
            if scope.get_type() != "function":
                continue
            for symbol in scope.get_symbols():
                if symbol.is_referenced() and symbol.is_global():
                    violations.append(KernelViolation(
                        scope.get_lineno(),
                        "name %r in scope %r resolves to a global; every "
                        "binding must come from a closure cell or local"
                        % (symbol.get_name(), scope.get_name())))

    # -- in-loop attribute discipline --
    for node in ast.walk(tree):
        if not isinstance(node, ast.While):
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Attribute):
                continue
            if inner.attr not in LOOP_ATTRIBUTES:
                violations.append(KernelViolation(
                    inner.lineno,
                    "attribute %r accessed inside a lane loop; hoist it "
                    "into a closure binding" % inner.attr))
            elif not isinstance(inner.value, ast.Name):
                violations.append(KernelViolation(
                    inner.lineno,
                    "chained attribute access inside a lane loop"))
    return violations


@register
class ExecHygiene(Rule):
    """GEN001: exec() only with an explicit, auditable namespace."""

    id = "GEN001"
    severity = "error"
    description = (
        "exec()/eval() without an explicit namespace, or in a module "
        "that does not export kernel-template entry points "
        "(template_shapes/generate_kernel_source) making its generated "
        "code auditable"
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        exec_calls = [
            node for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and call_name(node) in ("exec", "eval")
        ]
        if not exec_calls:
            return
        top_level = module.top_level_names()
        missing = [
            name for name in TEMPLATE_ENTRY_POINTS if name not in top_level
        ]
        for call in exec_calls:
            if len(call.args) < 2:
                yield self.finding(
                    module, call,
                    "%s() without an explicit namespace executes against "
                    "module globals; pass a dedicated dict (with empty "
                    "__builtins__) instead" % call_name(call),
                )
            if missing:
                yield self.finding(
                    module, call,
                    "module calls %s() but does not export %s; generated "
                    "code must be auditable through kernel-template "
                    "entry points"
                    % (call_name(call), " and ".join(missing)),
                )


@register
class GeneratedKernelAudit(ProjectRule):
    """GEN002: the shipped kernel templates obey the codegen contract."""

    id = "GEN002"
    severity = "error"
    description = (
        "a span-kernel template generates code that breaks the codegen "
        "contract (non-allowlisted call, global name resolution, or "
        "attribute access inside a lane loop)"
    )

    def check_project(
        self, modules: Sequence[SourceModule]
    ) -> Iterator[Finding]:
        spanplan = next(
            (m for m in modules
             if m.path_matches(SPANPLAN_MODULE_SUFFIX)),
            None,
        )
        if spanplan is None:
            return
        try:
            from repro.sim.spanplan import (
                generate_kernel_source,
                template_shapes,
            )
        except ImportError as exc:
            yield Finding(
                rule=self.id, severity=self.severity,
                path=str(spanplan.path), line=1, col=0,
                message="cannot import kernel-template entry points: %s"
                        % exc,
            )
            return
        seen: Set[str] = set()
        for shape in template_shapes():
            source = generate_kernel_source(shape)
            for violation in audit_kernel_source(
                source, origin="<spanplan %r>" % (shape,)
            ):
                message = (
                    "template shape %r generates non-conforming code "
                    "(generated line %d): %s"
                    % (shape, violation.line, violation.message)
                )
                if message in seen:
                    continue
                seen.add(message)
                yield Finding(
                    rule=self.id, severity=self.severity,
                    path=str(spanplan.path), line=1, col=0,
                    message=message,
                )
