"""The determinism-sanitizer rule catalog (DET001 — DET008).

The byte-identity contract — serial ≡ parallel ≡ fastpath ≡ resumed runs,
and all of them independent of ``PYTHONHASHSEED`` — is enforced
dynamically by the replay/equivalence suites and by ``repro sanitize``
(:mod:`repro.sanitize`).  These rules are the static half: they flag the
source patterns that *produce* hash-order, wall-clock, identity, and
environment dependence before any run:

========  ==============================================================
DET001    set/frozenset iteration flowing into an ordered output
DET002    wall-clock/entropy call outside the Observation.span registry
DET003    process-global randomness (module-level ``random``, unseeded
          ``Random()``, ``SystemRandom``)
DET004    ``id()``/``hash()``/``repr()`` inside sort keys or content keys
DET005    unsorted ``os.listdir``/``glob``/``Path.iterdir`` results
DET006    environment reads outside the documented ``REPRO_*`` allowlist
DET007    float accumulation in set-iteration order
DET008    randomness constructed without a threaded ``rng``/``seed``
          parameter (seed-flow analysis over the intra-package call graph)
========  ==============================================================

Unlike the MDL family, which applies to model code (schemes, oracles,
algorithms), every DET rule applies to the *whole* codebase: an iteration
hazard in a report builder corrupts conclusions just as surely as one in a
scheme.  Accepted sites are recorded in the committed baseline
(:mod:`repro.lint.baseline`) with a one-line justification each, or — for
test fixtures only — silenced with ``# repro-lint: disable=DETnnn``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from .callgraph import FunctionInfo, is_seedish
from .common import attribute_root, callable_name, module_aliases, module_str_constants
from .engine import ModuleModel, ProjectModel
from .findings import Finding, Rule

__all__ = ["DET_RULES", "det_rule_catalog"]


# ----------------------------------------------------------------------
# Set-typed expression tracking (shared by DET001 and DET007)
# ----------------------------------------------------------------------

_SET_FACTORIES = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _scoped_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function definitions.

    A name bound to a set inside one function must not poison the same name
    in sibling functions, so every scope (the module, or one ``def``) is
    analyzed over its own statements only.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _SetNames:
    """Names bound to set-typed values within one scope (flow-insensitive)."""

    def __init__(self, scope: ast.AST, inherited: Set[str] = frozenset()) -> None:
        self.names: Set[str] = set(inherited)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (
                scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
            ):
                if arg.annotation is not None and _is_set_annotation(arg.annotation):
                    self.names.add(arg.arg)
        changed = True
        while changed:  # fixpoint: `a = {…}; b = a | other` needs two passes
            changed = False
            for node in _scoped_walk(scope):
                target: Optional[str] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    if isinstance(node.targets[0], ast.Name):
                        target, value = node.targets[0].id, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name):
                        target, value = node.target.id, node.value
                if target and value is not None and self.is_set_expr(value):
                    if target not in self.names:
                        self.names.add(target)
                        changed = True

    def is_set_expr(self, node: ast.expr) -> bool:
        """Whether ``node`` statically looks like a set/frozenset value."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Call):
            name = callable_name(node.func)
            if name in _SET_FACTORIES:
                return True
            if (
                name in _SET_METHODS
                and isinstance(node.func, ast.Attribute)
                and self.is_set_expr(node.func.value)
            ):
                return True
        return False


_SET_ANNOTATION_NAMES = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}


def _is_set_annotation(annotation: ast.expr) -> bool:
    """True for ``set``/``Set[...]``/``typing.FrozenSet[...]`` annotations."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATION_NAMES
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATION_NAMES


def _parent_map(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


# ----------------------------------------------------------------------
# DET001 — set iteration must not feed ordered outputs
# ----------------------------------------------------------------------

#: Calling one of these directly on a set materializes its (hash-dependent)
#: iteration order into an ordered value.
_ORDERING_CONSUMERS = {"list", "tuple", "enumerate", "join"}

#: A ``for`` over a set is order-sensitive when its body does any of this.
_ORDERED_SINK_METHODS = {
    "append",
    "extend",
    "insert",
    "write",
    "writelines",
    "emit",
    "put",
    "send",
}


def _loop_body_has_ordered_sink(body: Sequence[ast.stmt]) -> Optional[ast.AST]:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _ORDERED_SINK_METHODS:
                    return node
    return None


def _set_scopes(model: ModuleModel) -> Iterator[Tuple[ast.AST, _SetNames]]:
    """Each lint scope with its set-name knowledge (module sets inherited)."""
    module_sets = _SetNames(model.tree)
    yield model.tree, module_sets
    for node in ast.walk(model.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, _SetNames(node, inherited=module_sets.names)


def _check_det001(model: ModuleModel) -> Iterator[Finding]:
    for scope, sets in _set_scopes(model):
        for node in _scoped_walk(scope):
            if isinstance(node, ast.Call):
                name = callable_name(node.func)
                if name in _ORDERING_CONSUMERS and node.args:
                    arg = node.args[0]
                    inner = arg
                    if isinstance(arg, ast.GeneratorExp):
                        inner = arg.generators[0].iter
                    if sets.is_set_expr(inner):
                        yield model.finding(
                            "DET001",
                            node,
                            f"{name}() materializes set iteration order — "
                            "hash-randomization-dependent; sort first "
                            "(sorted(..., key=...)) or keep it unordered",
                        )
            elif isinstance(node, ast.ListComp):
                if any(sets.is_set_expr(gen.iter) for gen in node.generators):
                    yield model.finding(
                        "DET001",
                        node,
                        "list comprehension over a set — the element order is "
                        "hash-randomization-dependent; iterate sorted(...) instead",
                    )
            elif isinstance(node, ast.For) and sets.is_set_expr(node.iter):
                sink = _loop_body_has_ordered_sink(node.body)
                if sink is not None:
                    yield model.finding(
                        "DET001",
                        node,
                        "for-loop over a set feeds an ordered sink "
                        "(append/write/emit/yield) — iterate sorted(...) so the "
                        "output does not depend on PYTHONHASHSEED",
                    )


# ----------------------------------------------------------------------
# DET002 — wall clock and entropy stay inside the span registry
# ----------------------------------------------------------------------

_CLOCK_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "sleep",
    "clock",
}
_DATETIME_ATTRS = {"now", "utcnow", "today"}
_UUID_ATTRS = {"uuid1", "uuid4"}

#: The sanctioned wall-clock sites: the Observation.span timings registry
#: and the nested-span profiler built on it — both live strictly on the
#: wall-clock axis and never feed the event stream (see repro/obs/observe.py
#: and repro/obs/profile.py).
_DET002_ALLOWED_SUFFIXES = ("obs/observe.py", "obs/profile.py")


def _det002_exempt(model: ModuleModel) -> bool:
    return model.normalized_path.endswith(_DET002_ALLOWED_SUFFIXES)


def _check_det002(model: ModuleModel) -> Iterator[Finding]:
    if _det002_exempt(model):
        return
    aliases = module_aliases(model.tree, ("time", "datetime", "os", "uuid", "secrets"))
    remedy = (
        "wall-clock/entropy belongs in the Observation.span timings registry "
        "(repro.obs), never in anything that feeds rows or the event stream"
    )
    for node in ast.walk(model.tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            bad: Optional[str] = None
            if node.module == "time":
                names = [a.name for a in node.names if a.name in _CLOCK_ATTRS]
                if names:
                    bad = f"from time import {', '.join(names)}"
            elif node.module == "datetime":
                pass  # importing the type is fine; .now()/.today() are caught below
            elif node.module == "os":
                if any(a.name == "urandom" for a in node.names):
                    bad = "from os import urandom"
            elif node.module == "uuid":
                names = [a.name for a in node.names if a.name in _UUID_ATTRS]
                if names:
                    bad = f"from uuid import {', '.join(names)}"
            elif node.module == "secrets":
                bad = "from secrets import ..."
            if bad:
                yield model.finding("DET002", node, f"{bad} — {remedy}")
        elif isinstance(node, ast.Attribute):
            root = attribute_root(node)
            if root is None:
                continue
            module = aliases.get(root.id)
            if module is None and root.id in ("datetime", "date"):
                module = "datetime-class"
            if module == "time" and node.value is root and node.attr in _CLOCK_ATTRS:
                yield model.finding("DET002", node, f"time.{node.attr} — {remedy}")
            elif module in ("datetime", "datetime-class") and node.attr in _DATETIME_ATTRS:
                yield model.finding("DET002", node, f"datetime {node.attr}() — {remedy}")
            elif module == "os" and node.value is root and node.attr == "urandom":
                yield model.finding("DET002", node, f"os.urandom — {remedy}")
            elif module == "uuid" and node.value is root and node.attr in _UUID_ATTRS:
                yield model.finding("DET002", node, f"uuid.{node.attr} — {remedy}")
            elif module == "secrets" and node.value is root:
                yield model.finding("DET002", node, f"secrets.{node.attr} — {remedy}")


# ----------------------------------------------------------------------
# DET003 — no process-global randomness anywhere
# ----------------------------------------------------------------------

_RANDOM_ALLOWED_ATTRS = {"Random"}


def _check_det003(model: ModuleModel) -> Iterator[Finding]:
    aliases = module_aliases(model.tree, ("random",))
    for node in ast.walk(model.tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "random":
            names = [a.name for a in node.names if a.name not in _RANDOM_ALLOWED_ATTRS]
            if names:
                yield model.finding(
                    "DET003",
                    node,
                    f"from random import {', '.join(names)} — module-level RNG "
                    "state (or an unseedable source); inject random.Random(seed)",
                )
        elif isinstance(node, ast.Attribute):
            root = attribute_root(node)
            if root is None or node.value is not root:
                continue
            if aliases.get(root.id) == "random" and node.attr not in _RANDOM_ALLOWED_ATTRS:
                yield model.finding(
                    "DET003",
                    node,
                    f"module-level random.{node.attr} — hidden global RNG state; "
                    "inject a seeded random.Random instead",
                )
        elif isinstance(node, ast.Call):
            name = callable_name(node.func)
            if name == "Random" and not node.args and not node.keywords:
                yield model.finding(
                    "DET003",
                    node,
                    "Random() without a seed draws entropy from the OS — "
                    "pass an explicit seed threaded from the caller",
                )
            elif name == "SystemRandom":
                yield model.finding(
                    "DET003", node, "SystemRandom is unseedable — outside the contract"
                )


# ----------------------------------------------------------------------
# DET004 — no identity functions in sort keys or content keys
# ----------------------------------------------------------------------

_IDENTITY_FUNCS = {"id", "hash", "repr"}
_SORTING_CALLS = {"sorted", "min", "max", "sort"}
_CONTENT_KEY_CALLS = {"content_address", "cell_key"}

#: The sanctioned deterministic sort key for node labels: it validates that
#: a label's repr is content-based before using it (repro.network.graph).
_SANCTIONED_KEYS = {"label_key"}


def _identity_calls_in(expr: ast.expr) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            name = callable_name(node.func)
            if name in _IDENTITY_FUNCS:
                yield node, name


def _check_det004(model: ModuleModel) -> Iterator[Finding]:
    for node in ast.walk(model.tree):
        if not isinstance(node, ast.Call):
            continue
        name = callable_name(node.func)
        if name in _SORTING_CALLS:
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                key = kw.value
                if isinstance(key, ast.Name) and key.id in _IDENTITY_FUNCS:
                    yield model.finding(
                        "DET004",
                        kw.value,
                        f"key={key.id} can fall back to the address-based "
                        "object.__repr__/__hash__ — use "
                        "repro.network.graph.label_key (content-validated)",
                    )
                elif isinstance(key, ast.Lambda):
                    for call, fname in _identity_calls_in(key.body):
                        yield model.finding(
                            "DET004",
                            call,
                            f"{fname}() inside a sort key — memory-address-"
                            "dependent ordering; use label_key or a content key",
                        )
        elif name in _CONTENT_KEY_CALLS:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for call, fname in _identity_calls_in(arg):
                    yield model.finding(
                        "DET004",
                        call,
                        f"{fname}() flows into {name}() — content addresses must "
                        "be derived from values, never from object identity",
                    )


# ----------------------------------------------------------------------
# DET005 — directory listings must be sorted
# ----------------------------------------------------------------------

_LISTING_CALLS = {"listdir", "scandir", "iterdir", "glob", "iglob", "rglob"}


def _check_det005(model: ModuleModel) -> Iterator[Finding]:
    parents = _parent_map(model.tree)
    for node in ast.walk(model.tree):
        if not isinstance(node, ast.Call):
            continue
        name = callable_name(node.func)
        if name not in _LISTING_CALLS:
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Call) and callable_name(parent.func) == "sorted":
            continue
        yield model.finding(
            "DET005",
            node,
            f"{name}() returns entries in filesystem order — wrap it in "
            "sorted(...) so runs do not depend on inode layout",
        )


# ----------------------------------------------------------------------
# DET006 — environment reads stay on the documented allowlist
# ----------------------------------------------------------------------

_ENV_PREFIX = "REPRO_"
_ENV_EXTRA_ALLOWED = {"PYTHONHASHSEED"}


def _env_key_expr(node: ast.AST) -> Optional[ast.expr]:
    """The key expression of an environment *read*, if ``node`` is one."""
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Attribute) and base.attr == "environ":
            return node.slice
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "getenv" and node.args:
                return node.args[0]
            if (
                func.attr == "get"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "environ"
                and node.args
            ):
                return node.args[0]
        elif isinstance(func, ast.Name) and func.id == "getenv" and node.args:
            return node.args[0]
    return None


def _check_det006(model: ModuleModel) -> Iterator[Finding]:
    constants = module_str_constants(model.tree)
    for node in ast.walk(model.tree):
        key_expr = _env_key_expr(node)
        if key_expr is None:
            continue
        key: Optional[str] = None
        if isinstance(key_expr, ast.Constant) and isinstance(key_expr.value, str):
            key = key_expr.value
        elif isinstance(key_expr, ast.Name):
            key = constants.get(key_expr.id)
        if key is not None and (key.startswith(_ENV_PREFIX) or key in _ENV_EXTRA_ALLOWED):
            continue
        shown = key if key is not None else "<dynamic>"
        yield model.finding(
            "DET006",
            node,
            f"environment read of {shown!r} outside the {_ENV_PREFIX}* allowlist "
            "— undocumented env dependence makes runs host-configuration-"
            "dependent; route it through a documented REPRO_* variable",
        )


# ----------------------------------------------------------------------
# DET007 — float accumulation must not follow set order
# ----------------------------------------------------------------------


def _check_det007(model: ModuleModel) -> Iterator[Finding]:
    for scope, sets in _set_scopes(model):
        float_names: Set[str] = set()
        for node in _scoped_walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, float)
                ):
                    float_names.add(target.id)
        for node in _scoped_walk(scope):
            if isinstance(node, ast.Call):
                name = callable_name(node.func)
                if name in ("sum", "fsum") and node.args:
                    arg = node.args[0]
                    inner = arg
                    if isinstance(arg, ast.GeneratorExp):
                        inner = arg.generators[0].iter
                    if sets.is_set_expr(inner):
                        yield model.finding(
                            "DET007",
                            node,
                            f"{name}() over a set accumulates floats in hash order "
                            "— float addition is not associative; iterate "
                            "sorted(...) for a reproducible total",
                            severity="warning",
                        )
            elif isinstance(node, ast.For) and sets.is_set_expr(node.iter):
                for stmt in node.body:
                    for inner in ast.walk(stmt):
                        if (
                            isinstance(inner, ast.AugAssign)
                            and isinstance(inner.op, ast.Add)
                            and isinstance(inner.target, ast.Name)
                            and inner.target.id in float_names
                        ):
                            yield model.finding(
                                "DET007",
                                inner,
                                "float accumulator updated inside a for-over-set "
                                "— the rounding depends on PYTHONHASHSEED; "
                                "iterate sorted(...)",
                                severity="warning",
                            )


# ----------------------------------------------------------------------
# DET008 — seed flow: randomness is threaded, never conjured
# ----------------------------------------------------------------------


def _random_constructions(model: ModuleModel) -> Iterator[ast.Call]:
    """Every ``random.Random(...)`` / imported ``Random(...)`` call site."""
    aliases = module_aliases(model.tree, ("random",))
    from_imported = any(
        isinstance(node, ast.ImportFrom)
        and node.module == "random"
        and any(alias.name == "Random" for alias in node.names)
        for node in ast.walk(model.tree)
    )
    for node in ast.walk(model.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "Random":
            root = attribute_root(func)
            if root is not None and aliases.get(root.id) == "random":
                yield node
        elif isinstance(func, ast.Name) and func.id == "Random" and from_imported:
            yield node


def _seed_identifiers_in(expr: ast.expr) -> Set[str]:
    """Seedish identifiers referenced anywhere in ``expr``.

    Both plain names (a ``seed`` parameter or closure variable) and
    attribute accesses (``self._seed``, ``config.rng``) count — each is a
    value threaded in from outside the construction site.
    """
    found: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and is_seedish(node.id):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and is_seedish(node.attr):
            found.add(node.attr)
    return found


def _check_det008(project: ProjectModel) -> Iterator[Finding]:
    graph = project.call_graph

    # Map each construction to its enclosing function (if any) and judge it.
    constructing_keys: Set[str] = set()
    for model in project.models:
        calls = list(_random_constructions(model))
        if not calls:
            continue
        call_ids = {id(c) for c in calls}
        containers: Dict[int, FunctionInfo] = {}
        for info in graph.functions.values():
            if info.path != model.path:
                continue
            for node in ast.walk(info.node):
                if id(node) in call_ids:
                    containers[id(node)] = info
        for call in calls:
            info = containers.get(id(call))
            if info is None:
                yield model.finding(
                    "DET008",
                    call,
                    "random.Random constructed at module scope — randomness must "
                    "be built inside a function that receives rng/seed from its "
                    "caller",
                )
                continue
            constructing_keys.add(info.key)
            seed_sources: Set[str] = set()
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                seed_sources |= _seed_identifiers_in(arg)
            if not call.args and not call.keywords:
                # Unseeded: DET003's finding; seed-flow adds the threading view.
                yield model.finding(
                    "DET008",
                    call,
                    f"{info.qualname} constructs Random() with no seed — thread "
                    "an explicit rng/seed parameter from the caller",
                )
            elif not seed_sources:
                yield model.finding(
                    "DET008",
                    call,
                    f"{info.qualname} seeds random.Random from a hard-coded "
                    "value — the seed must be threaded in (a seed/rng "
                    "parameter, closure, or attribute; the resolve_rng "
                    "convention), so sweeps can vary it",
                )

    # Transitive: functions whose call chain reaches a construction.
    def reaches_construction(key: str) -> bool:
        return key in constructing_keys or bool(
            graph.reachable_from(key) & constructing_keys
        )

    for key in sorted(graph.functions):
        caller = graph.functions[key]
        if not caller.seedish_params:
            continue
        for site in graph.sites_from(key):
            callee = site.callee
            if not callee.seedish_params:
                continue
            if not reaches_construction(callee.key):
                continue
            if site.passes_seedish():
                continue
            model = project.model_for(caller.path)
            if model is None:
                continue
            yield model.finding(
                "DET008",
                site.node,
                f"{caller.qualname} holds {'/'.join(caller.seedish_params)} but "
                f"calls {callee.qualname} without threading it — the callee "
                "falls back to its own seed and the caller's is silently dropped",
            )


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

#: The determinism rules, DET001 to DET008, in code order.
DET_RULES: Sequence[Rule] = (
    Rule(
        code="DET001",
        name="set-order-leak",
        summary="set/frozenset iteration order flows into an ordered output "
        "(list building, join, write/emit, yield)",
        check=_check_det001,
    ),
    Rule(
        code="DET002",
        name="wall-clock-outside-registry",
        summary="wall-clock or entropy call outside the Observation.span "
        "timings registry (repro/obs/observe.py)",
        check=_check_det002,
    ),
    Rule(
        code="DET003",
        name="global-randomness",
        summary="module-level random.*, from-random imports, unseeded Random() "
        "or SystemRandom anywhere in the codebase",
        check=_check_det003,
    ),
    Rule(
        code="DET004",
        name="identity-in-ordering",
        summary="id()/hash()/repr() inside sort keys or content-address "
        "inputs (address-dependent ordering or cache keys)",
        check=_check_det004,
    ),
    Rule(
        code="DET005",
        name="unsorted-listing",
        summary="os.listdir/scandir/glob/Path.iterdir results used without "
        "sorted(...)",
        check=_check_det005,
    ),
    Rule(
        code="DET006",
        name="undocumented-env-read",
        summary="environment read outside the documented REPRO_* allowlist",
        check=_check_det006,
    ),
    Rule(
        code="DET007",
        name="float-accumulation-order",
        summary="float accumulation whose order depends on a set iteration "
        "(non-associative rounding)",
        check=_check_det007,
        severity="warning",
    ),
    Rule(
        code="DET008",
        name="unthreaded-seed",
        summary="randomness constructed without an rng/seed parameter threaded "
        "from the caller (seed-flow over the intra-package call graph)",
        check=_check_det008,
        scope="project",
    ),
)


def det_rule_catalog() -> str:
    """One line per DET rule, for ``repro lint --list-rules``."""
    return "\n".join(f"{rule.code} [{rule.name}] {rule.summary}" for rule in DET_RULES)
