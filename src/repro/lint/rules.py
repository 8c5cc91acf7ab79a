"""The discipline rule pack: ERR001, RNG001, POOL001, OBS001, FROZEN001.

Each rule encodes one piece of discipline this repo already follows
(or is migrating to); the rationale strings double as the seed of the
``docs/LINT.md`` catalogue, which ``tools/check_docs.py`` keeps in
sync with this registry.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from .base import Finding, ModuleSource, Rule, dotted_name, register

_BARE_ERRORS = ("RuntimeError", "ValueError", "AssertionError")


@register
class BareRaiseRule(Rule):
    """ERR001: no bare builtin raises in the net and core layers."""

    rule_id = "ERR001"
    name = "bare-builtin-raise"
    severity = "error"
    rationale = (
        "repro.net and repro.core degrade gracefully through the "
        "structured error hierarchy (repro.net.errors, "
        "repro.core.errors): callers dispatch on error *types* and "
        "read structured attributes instead of parsing message "
        "strings.  A bare RuntimeError/ValueError/AssertionError "
        "raise re-opens that hole."
    )

    scopes: Tuple[str, ...] = ("repro/net/", "repro/core/")

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        if not any(scope in module.relpath for scope in self.scopes):
            return
        # The error modules themselves define the hierarchy and may
        # document the bare forms they replace.
        if module.relpath.endswith("errors.py"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = ""
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BARE_ERRORS:
                yield self.finding(
                    module,
                    node,
                    f"bare {name} raised in a structured-error layer; "
                    f"raise a repro.net.errors / repro.core.errors type "
                    f"(subclassing {name} keeps existing handlers working)",
                )


@register
class DerivedSeedRule(Rule):
    """RNG001: every ``random.Random(...)`` takes a derived string seed."""

    rule_id = "RNG001"
    name = "derived-string-seed"
    severity = "error"
    rationale = (
        "String seeds of the form 'repro-<component>:<seed>' hash "
        "through SHA-512 inside random.Random — deterministic across "
        "platforms and Python builds, unlike hash(tuple) — and "
        "namespace the stream per component so two subsystems sharing "
        "an integer seed cannot entangle their draws."
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee not in ("random.Random", "Random"):
                continue
            if not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    "random.Random() without a seed draws from ambient "
                    "entropy; pass a derived 'repro-<component>:<seed>' "
                    "string",
                )
                continue
            if len(node.args) != 1 or node.keywords:
                yield self.finding(
                    module,
                    node,
                    "random.Random must take exactly one derived "
                    "'repro-<component>:<seed>' string seed",
                )
                continue
            if not _is_derived_seed(node.args[0]):
                yield self.finding(
                    module,
                    node,
                    "random.Random seed is not a derived string; use the "
                    "f\"repro-<component>:{seed}\" convention so streams "
                    "are platform-stable and namespaced",
                )


def _is_derived_seed(arg: ast.expr) -> bool:
    if isinstance(arg, ast.Constant):
        return isinstance(arg.value, str) and arg.value.startswith("repro-")
    if isinstance(arg, ast.JoinedStr) and arg.values:
        first = arg.values[0]
        return (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value.startswith("repro-")
        )
    return False


@register
class PoolSubmitRule(Rule):
    """POOL001: only module-level callables cross the process boundary."""

    rule_id = "POOL001"
    name = "picklable-pool-callables"
    severity = "error"
    rationale = (
        "ProcessPoolExecutor pickles the callable by qualified name: "
        "lambdas and closures fail at submit time (or silently change "
        "behaviour under fork when they capture mutable parent state). "
        "Code under repro/service/ that hands work to a process pool "
        "submits only module-level functions whose inputs are frozen "
        "dataclasses."
    )

    scopes: Tuple[str, ...] = ("repro/service/",)

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        if not any(scope in module.relpath for scope in self.scopes):
            return
        module_level: Set[str] = {
            node.name
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        nested = _nested_function_names(module.tree)
        pools = _pool_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("submit", "map"):
                continue
            owner = dotted_name(func.value)
            if owner not in pools:
                continue
            if not node.args:
                continue
            target = node.args[0]
            if isinstance(target, ast.Lambda):
                yield self.finding(
                    module,
                    node,
                    f"lambda submitted to ProcessPoolExecutor.{func.attr}; "
                    f"pool callables must be module-level functions",
                )
            elif isinstance(target, ast.Name):
                if target.id in nested and target.id not in module_level:
                    yield self.finding(
                        module,
                        node,
                        f"closure {target.id!r} submitted to "
                        f"ProcessPoolExecutor.{func.attr}; hoist it to "
                        f"module level so it pickles by qualified name",
                    )
            elif isinstance(target, ast.Attribute):
                yield self.finding(
                    module,
                    node,
                    f"bound method {dotted_name(target) or target.attr!r} "
                    f"submitted to ProcessPoolExecutor.{func.attr}; it "
                    f"drags its instance across the process boundary — "
                    f"use a module-level function over picklable inputs",
                )


def _pool_names(tree: ast.Module) -> Set[str]:
    """Names ever assigned from a ``ProcessPoolExecutor(...)`` call."""
    pools: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and dotted_name(value.func).split(".")[-1] == "ProcessPoolExecutor"
        ):
            for target in node.targets:
                name = dotted_name(target)
                if name:
                    pools.add(name)
    return pools


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Function names defined inside another function (closures)."""
    nested: Set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            else:
                visit(child, inside_function)

    visit(tree, False)
    return nested


#: The public pipeline entry points and the span each must open, as
#: catalogued in ``docs/OBSERVABILITY.md`` ("Emitted by" column).  The
#: docs job keeps the reverse direction honest: every literal span name
#: in src/repro must appear in the catalogue.
OBS_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro/core/compiler.py", "Compiler.compile", "compile.full"),
    ("repro/core/update.py", "UpdatePlanner.plan", "update.plan"),
    ("repro/core/session.py", "UpdateSession.push_update", "session.push_update"),
    ("repro/core/session.py", "UpdateSession.push_campaign", "session.push_campaign"),
    ("repro/net/dissemination.py", "disseminate", "net.disseminate"),
    ("repro/net/lossy.py", "disseminate_lossy", "net.disseminate_lossy"),
    ("repro/net/campaign.py", "run_campaign", "campaign.run"),
    ("repro/net/kernel.py", "SimKernel.run", "net.kernel.run"),
    ("repro/net/trickle.py", "run_trickle", "net.trickle.run"),
    ("repro/net/gossip.py", "run_gossip", "net.gossip.run"),
    ("repro/net/faults.py", "generate_fault_plan", "net.fault.plan"),
    ("repro/net/coding.py", "run_coded_campaign", "net.coding.run"),
    ("repro/versioning/graph.py", "build_version_graph", "versioning.build"),
    ("repro/versioning/planner.py", "plan_cohorts", "versioning.plan"),
    ("repro/versioning/campaign.py", "run_versioned_campaign", "versioning.campaign"),
    ("repro/sim/executor.py", "Simulator.run", "sim.run"),
    ("repro/ilp/solver.py", "solve", "ilp.solve"),
    ("repro/service/fleet.py", "FleetUpdateService.run", "service.batch"),
    ("repro/service/fleet.py", "execute_job", "service.job"),
    ("repro/fuzz/runner.py", "run_fuzz", "fuzz.iteration"),
    ("repro/fuzz/fault_fuzz.py", "run_fault_fuzz", "fuzz.fault.iteration"),
    ("repro/obs/profile.py", "profile_update", "profile.total"),
)


@register
class EntryPointSpanRule(Rule):
    """OBS001: public pipeline entry points must open their span."""

    rule_id = "OBS001"
    name = "entry-point-span"
    severity = "error"
    rationale = (
        "docs/OBSERVABILITY.md is a machine-checked telemetry "
        "contract: every public pipeline entry point opens a named "
        "span so 'repro profile' attributes wall time and energy to "
        "phases.  An entry point that stops opening its span leaves a "
        "silent hole in every trace."
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        for suffix, qualname, span in OBS_ENTRY_POINTS:
            if not module.relpath.endswith(suffix):
                continue
            func = _find_function(module.tree, qualname)
            if func is None:
                yield Finding(
                    rule=self.rule_id,
                    path=module.path,
                    line=1,
                    column=0,
                    message=(
                        f"entry point {qualname} (span {span!r}) is "
                        f"catalogued in docs/OBSERVABILITY.md but not "
                        f"defined here; update the catalogue and the "
                        f"OBS001 registry together"
                    ),
                    severity=self.severity,
                    snippet=module.snippet_at(1),
                )
            elif not _opens_span(func, span):
                yield self.finding(
                    module,
                    func,
                    f"entry point {qualname} must open the "
                    f"{span!r} span (see docs/OBSERVABILITY.md)",
                )


def _find_function(
    tree: ast.Module, qualname: str
) -> Optional[ast.FunctionDef]:
    parts = qualname.split(".")
    scope: List[ast.stmt] = tree.body
    node: Optional[ast.AST] = None
    for part in parts:
        node = None
        for child in scope:
            if (
                isinstance(child, (ast.FunctionDef, ast.ClassDef))
                and child.name == part
            ):
                node = child
                break
        if node is None:
            return None
        scope = node.body if hasattr(node, "body") else []
    return node if isinstance(node, ast.FunctionDef) else None


def _opens_span(func: ast.FunctionDef, span: str) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if not (callee == "span" or callee.endswith(".span")):
            continue
        if (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == span
        ):
            return True
    return False


@register
class FrozenMutationRule(Rule):
    """FROZEN001: frozen dataclasses stay frozen outside __post_init__."""

    rule_id = "FROZEN001"
    name = "frozen-dataclass-mutation"
    severity = "error"
    rationale = (
        "The typed configs (CompileConfig, UpdateConfig, TopologySpec, "
        "FleetJob) are frozen because their content digests key the "
        "service and solver caches: mutate one after construction and "
        "its digest no longer describes it, poisoning every cache "
        "entry derived from it.  object.__setattr__ is sanctioned only "
        "inside __post_init__ (normalisation before first use)."
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        frozen_classes = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node)
        ]
        for cls in frozen_classes:
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in ("__post_init__", "__new__"):
                    continue
                yield from self._check_body(module, method)
        # object.__setattr__ anywhere outside a __post_init__ reaches
        # around the freeze even from other modules' code.
        yield from self._check_setattr_escapes(module, frozen_classes)

    def _check_body(
        self, module: ModuleSource, method: ast.FunctionDef
    ) -> Iterable[Finding]:
        for node in ast.walk(method):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield self.finding(
                        module,
                        node,
                        f"assignment to self.{target.attr} in "
                        f"{method.name}() of a frozen dataclass; frozen "
                        f"configs are content-addressed — derive a new "
                        f"instance with dataclasses.replace instead",
                    )

    def _check_setattr_escapes(
        self, module: ModuleSource, frozen_classes: List[ast.ClassDef]
    ) -> Iterable[Finding]:
        allowed: Set[int] = set()
        for cls in frozen_classes:
            for method in cls.body:
                if (
                    isinstance(method, ast.FunctionDef)
                    and method.name == "__post_init__"
                ):
                    for node in ast.walk(method):
                        allowed.add(id(node))
        for node in ast.walk(module.tree):
            if id(node) in allowed:
                continue
            if (
                isinstance(node, ast.Call)
                and dotted_name(node.func) == "object.__setattr__"
            ):
                yield self.finding(
                    module,
                    node,
                    "object.__setattr__ outside __post_init__ defeats a "
                    "frozen dataclass; derive a new instance with "
                    "dataclasses.replace instead",
                )


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func)
        if name not in ("dataclass", "dataclasses.dataclass"):
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


__all__ = [
    "BareRaiseRule",
    "DerivedSeedRule",
    "EntryPointSpanRule",
    "FrozenMutationRule",
    "OBS_ENTRY_POINTS",
    "PoolSubmitRule",
]
