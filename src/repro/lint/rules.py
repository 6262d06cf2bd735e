"""The model-compliance rule catalog (MDL001 — MDL005).

Each rule is a static check that a scheme, algorithm, or oracle stays
inside the paper's model (Section 1.4): a scheme is a pure function of
``(f(v), s(v), id(v), deg(v))`` and the received-message history, an
oracle's output is a :class:`repro.encoding.BitString` per node, and
nothing else — no engine internals, no global knowledge, no wall clock,
no shared mutable state, no unaccounted advice bits.

The dynamic counterpart is :func:`repro.core.audit.replay_audit`, which
catches whatever the chosen scheduler happens to exercise; these rules
catch the violation in the source, before any run.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .common import attribute_root, callable_name, module_aliases
from .engine import ModuleModel
from .findings import Finding, Rule

__all__ = ["RULES", "rule_catalog"]


# ----------------------------------------------------------------------
# Shared AST helpers (family-specific ones only; the rest live in common)
# ----------------------------------------------------------------------


def _methods(cls: ast.ClassDef) -> List[ast.FunctionDef]:
    return [
        item for item in cls.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _ctx_param_names(func: ast.FunctionDef) -> Set[str]:
    """Parameters that carry the node's :class:`NodeContext`."""
    names: Set[str] = set()
    args = list(func.args.posonlyargs) + list(func.args.args) + list(func.args.kwonlyargs)
    for arg in args:
        annotation = arg.annotation
        annotated = (
            isinstance(annotation, ast.Name)
            and annotation.id == "NodeContext"
            or isinstance(annotation, ast.Attribute)
            and annotation.attr == "NodeContext"
        )
        if arg.arg == "ctx" or annotated:
            names.add(arg.arg)
    return names


# ----------------------------------------------------------------------
# MDL001 — schemes must not reach into engine or graph internals
# ----------------------------------------------------------------------

#: Engine/graph types a scheme has no business naming: holding any of these
#: means the node knows more than its local view.
_ENGINE_INTERNAL_NAMES = {
    "PortLabeledGraph",
    "Simulation",
    "NodeRuntime",
    "ExecutionTrace",
    "Scheduler",
    "SynchronousScheduler",
}

#: Public-looking NodeContext API that is engine-only by contract.
_ENGINE_ONLY_CONTEXT_ATTRS = {"drain"}


def _check_mdl001(model: ModuleModel) -> Iterator[Finding]:
    for cls in model.scheme_classes:
        for method in _methods(cls):
            ctx_names = _ctx_param_names(method)
            for node in ast.walk(method):
                if isinstance(node, ast.Attribute):
                    base = node.value
                    if isinstance(base, ast.Name) and base.id in ctx_names:
                        if node.attr.startswith("_"):
                            yield model.finding(
                                "MDL001",
                                node,
                                f"scheme {cls.name}.{method.name} touches engine-private "
                                f"'{base.id}.{node.attr}' — the model only offers the "
                                "public NodeContext API",
                            )
                        elif node.attr in _ENGINE_ONLY_CONTEXT_ATTRS:
                            yield model.finding(
                                "MDL001",
                                node,
                                f"scheme {cls.name}.{method.name} calls engine-only "
                                f"'{base.id}.{node.attr}()' — draining the outbox is the "
                                "engine's job",
                            )
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in _ENGINE_INTERNAL_NAMES:
                        yield model.finding(
                            "MDL001",
                            node,
                            f"scheme {cls.name}.{method.name} references '{node.id}' — "
                            "global network/engine knowledge is not part of a node's "
                            "local view",
                        )


# ----------------------------------------------------------------------
# MDL002 — anonymous-safe algorithms must not read id(v)
# ----------------------------------------------------------------------


def _check_mdl002(model: ModuleModel) -> Iterator[Finding]:
    for algorithm in model.algorithm_classes:
        if not model.claims_anonymous_safe(algorithm):
            continue
        scope: List[ast.ClassDef] = [algorithm]
        for scheme_cls in model.scheme_classes_of(algorithm):
            if scheme_cls not in scope:
                scope.append(scheme_cls)
        for cls in scope:
            for method in _methods(cls):
                for node in ast.walk(method):
                    reads_attr = (
                        isinstance(node, ast.Attribute)
                        and node.attr == "node_id"
                        and isinstance(node.ctx, ast.Load)
                    )
                    reads_name = (
                        isinstance(node, ast.Name)
                        and node.id == "node_id"
                        and isinstance(node.ctx, ast.Load)
                    )
                    if reads_attr or reads_name:
                        where = (
                            f"{cls.name}.{method.name}"
                            if cls is algorithm
                            else f"scheme {cls.name}.{method.name} (via {algorithm.name})"
                        )
                        yield model.finding(
                            "MDL002",
                            node,
                            f"{where} reads node_id, but {algorithm.name} is registered "
                            "anonymous-safe — in anonymous runs id(v) is None",
                        )


# ----------------------------------------------------------------------
# MDL003 — no hidden nondeterminism (wall clock, unseeded randomness)
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
    "clock",
}
_DATETIME_ATTRS = {"now", "utcnow", "today"}
_UUID_ATTRS = {"uuid1", "uuid4"}


def _mdl003_in_scope(model: ModuleModel) -> bool:
    path = model.normalized_path
    designated = (
        "/algorithms/" in path
        or "/oracles/" in path
        or path.endswith("core/scheme.py")
    )
    return designated or model.defines_model_code


def _check_mdl003(model: ModuleModel) -> Iterator[Finding]:
    if not _mdl003_in_scope(model):
        return
    aliases = module_aliases(
        model.tree, ("random", "time", "datetime", "secrets", "os", "uuid")
    )
    for node in ast.walk(model.tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            bad: Optional[str] = None
            if node.module == "random":
                names = [a.name for a in node.names if a.name != "Random"]
                if names:
                    bad = f"from random import {', '.join(names)}"
            elif node.module == "time":
                names = [a.name for a in node.names if a.name in _CLOCK_ATTRS]
                if names:
                    bad = f"from time import {', '.join(names)}"
            elif node.module == "secrets":
                bad = "from secrets import ..."
            elif node.module == "os":
                names = [a.name for a in node.names if a.name == "urandom"]
                if names:
                    bad = "from os import urandom"
            elif node.module == "uuid":
                names = [a.name for a in node.names if a.name in _UUID_ATTRS]
                if names:
                    bad = f"from uuid import {', '.join(names)}"
            if bad:
                yield model.finding(
                    "MDL003",
                    node,
                    f"{bad} — schemes/oracles must be deterministic; inject a seeded "
                    "random.Random instead",
                )
        elif isinstance(node, ast.Attribute):
            root = attribute_root(node)
            if root is None:
                continue
            module = aliases.get(root.id)
            if module is None and root.id in ("datetime", "date"):
                module = "datetime-class"
            if module == "random" and node.value is root and node.attr != "Random":
                yield model.finding(
                    "MDL003",
                    node,
                    f"module-level random.{node.attr} — hidden global RNG state; "
                    "inject a seeded random.Random instead",
                )
            elif module == "time" and node.value is root and node.attr in _CLOCK_ATTRS:
                yield model.finding(
                    "MDL003",
                    node,
                    f"time.{node.attr} — a scheme may not read the wall clock; "
                    "behaviour must be a function of the history alone",
                )
            elif module in ("datetime", "datetime-class") and node.attr in _DATETIME_ATTRS:
                yield model.finding(
                    "MDL003",
                    node,
                    f"datetime {node.attr}() — a scheme may not read the wall clock; "
                    "behaviour must be a function of the history alone",
                )
            elif module == "secrets" and node.value is root:
                yield model.finding(
                    "MDL003",
                    node,
                    f"secrets.{node.attr} — unseedable randomness is outside the model",
                )
            elif module == "os" and node.value is root and node.attr == "urandom":
                yield model.finding(
                    "MDL003", node, "os.urandom — unseedable randomness is outside the model"
                )
            elif module == "uuid" and node.value is root and node.attr in _UUID_ATTRS:
                yield model.finding(
                    "MDL003",
                    node,
                    f"uuid.{node.attr} — nondeterministic identifiers are outside the model",
                )


# ----------------------------------------------------------------------
# MDL004 — no mutable class-level state shared across node instances
# ----------------------------------------------------------------------

_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "Counter",
    "OrderedDict",
}


def _mutable_value(value: Optional[ast.expr]) -> Optional[str]:
    """A short description when ``value`` is a mutable literal/constructor."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = callable_name(value.func)
        if name in _MUTABLE_FACTORIES:
            return f"{name}()"
    return None


def _check_mdl004(model: ModuleModel) -> Iterator[Finding]:
    seen: Set[int] = set()
    for cls in model.scheme_classes + model.algorithm_classes:
        if id(cls) in seen:
            continue
        seen.add(id(cls))
        kind = "scheme" if cls in model.scheme_classes else "algorithm"
        for item in cls.body:
            targets: List[ast.expr]
            value: Optional[ast.expr]
            if isinstance(item, ast.Assign):
                targets, value = item.targets, item.value
            elif isinstance(item, ast.AnnAssign):
                targets, value = [item.target], item.value
            else:
                continue
            described = _mutable_value(value)
            if described is None:
                continue
            names = ", ".join(
                t.id for t in targets if isinstance(t, ast.Name)
            ) or "<attribute>"
            yield model.finding(
                "MDL004",
                item,
                f"{kind} class {cls.name} has class-level mutable {described} "
                f"'{names}' — it is shared across every node's instance, so one "
                "node's behaviour can depend on another's (outside the model)",
            )


# ----------------------------------------------------------------------
# MDL005 — advice must be built as BitStrings, or size(G) lies
# ----------------------------------------------------------------------


def _advise_functions(model: ModuleModel) -> Iterator[Tuple[str, ast.FunctionDef]]:
    seen: Set[int] = set()
    for cls in model.oracle_classes:
        for method in _methods(cls):
            if method.name == "advise":
                seen.add(id(method))
                yield cls.name, method
    for node in model.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "advise" and id(node) not in seen:
            yield "<module>", node


def _raw_advice_literal(value: ast.expr) -> bool:
    if isinstance(value, ast.Constant):
        return isinstance(value.value, (str, bytes, int, float, bool))
    return isinstance(value, (ast.JoinedStr, ast.List, ast.Tuple, ast.Set))


def _check_mdl005(model: ModuleModel) -> Iterator[Finding]:
    for owner, func in _advise_functions(model):
        where = f"{owner}.advise" if owner != "<module>" else "advise"
        for node in ast.walk(func):
            if isinstance(node, ast.Dict):
                for value in node.values:
                    if value is not None and _raw_advice_literal(value):
                        yield model.finding(
                            "MDL005",
                            value,
                            f"{where} assigns raw-literal advice — advice must be a "
                            "repro.encoding.BitString so oracle size(G) counts every bit",
                        )
            elif isinstance(node, ast.DictComp):
                if _raw_advice_literal(node.value):
                    yield model.finding(
                        "MDL005",
                        node.value,
                        f"{where} assigns raw-literal advice — advice must be a "
                        "repro.encoding.BitString so oracle size(G) counts every bit",
                    )
            elif isinstance(node, ast.Return) and node.value is not None:
                ret = node.value
                returns_raw_dict = isinstance(ret, (ast.Dict, ast.DictComp)) or (
                    isinstance(ret, ast.Call) and callable_name(ret.func) == "dict"
                )
                if returns_raw_dict:
                    yield model.finding(
                        "MDL005",
                        node,
                        f"{where} returns a plain dict — wrap it in "
                        "repro.core.AdviceMap so the bit accounting applies",
                    )


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

#: The model-compliance rules, MDL001 to MDL005, in code order.
RULES: Sequence[Rule] = (
    Rule(
        code="MDL001",
        name="engine-internals-leak",
        summary="scheme code reaches into engine or graph internals "
        "(underscore NodeContext attributes, drain(), PortLabeledGraph/Simulation)",
        check=_check_mdl001,
    ),
    Rule(
        code="MDL002",
        name="anonymity-violation",
        summary="an algorithm registered anonymous-safe reads node_id",
        check=_check_mdl002,
    ),
    Rule(
        code="MDL003",
        name="hidden-nondeterminism",
        summary="wall clock or module-level/unseedable randomness in scheme/oracle code "
        "(an injected random.Random(seed) is allowed)",
        check=_check_mdl003,
    ),
    Rule(
        code="MDL004",
        name="shared-mutable-class-state",
        summary="mutable class-level state shared across node instances",
        check=_check_mdl004,
    ),
    Rule(
        code="MDL005",
        name="advice-outside-bitstring",
        summary="oracle advise() builds advice outside encoding.BitString, "
        "dodging the size(G) bit accounting",
        check=_check_mdl005,
    ),
)


def rule_catalog() -> str:
    """One line per rule, for ``repro lint --list-rules``."""
    return "\n".join(f"{rule.code} [{rule.name}] {rule.summary}" for rule in RULES)
