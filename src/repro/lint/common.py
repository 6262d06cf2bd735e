"""Plumbing shared by every rule family (MDL and DET).

The model-compliance rules (:mod:`repro.lint.rules`) and the determinism
rules (:mod:`repro.lint.determinism`) are different *policies* over the
same *mechanism*: parse a module, walk its AST, emit findings, honour
``# repro-lint: disable=...`` pragmas.  This module holds the mechanism —
pragma collection, the handful of AST helpers both catalogs need, and the
small lexical utilities (path normalization, module-level constant
resolution) — so neither family carries a private copy.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set

__all__ = [
    "PARSE_ERROR_CODE",
    "Suppressions",
    "collect_suppressions",
    "attribute_root",
    "callable_name",
    "module_aliases",
    "module_str_constants",
    "normalized_path",
]

#: Parse failures are reported under this pseudo-code so a syntactically
#: broken module cannot slip through as "no findings".
PARSE_ERROR_CODE = "MDL000"

_PRAGMA = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------


@dataclass
class Suppressions:
    """Per-line and file-wide ``repro-lint: disable`` pragmas."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    file_wide: Set[str] = field(default_factory=set)

    def active(self, code: str, line: int) -> bool:
        """True when ``code`` is suppressed at ``line``."""
        for scope in (self.file_wide, self.by_line.get(line, ())):
            if "ALL" in scope or code.upper() in scope:
                return True
        return False


def collect_suppressions(source: str) -> Suppressions:
    """Scan ``source`` for ``# repro-lint: disable=...`` pragmas.

    A pragma on a code line silences the named code(s) on that line; on a
    comment-only line it silences them for the whole file.
    """
    out = Suppressions()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if not match:
            continue
        codes = {c.strip().upper() for c in match.group(1).split(",") if c.strip()}
        if text.lstrip().startswith("#"):
            out.file_wide |= codes
        else:
            out.by_line.setdefault(lineno, set()).update(codes)
    return out


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def attribute_root(node: ast.Attribute) -> Optional[ast.Name]:
    """The leftmost :class:`ast.Name` of a dotted attribute chain, if any."""
    value: ast.expr = node.value
    while isinstance(value, ast.Attribute):
        value = value.value
    return value if isinstance(value, ast.Name) else None


def callable_name(func: ast.expr) -> Optional[str]:
    """The bare name a call dispatches on: ``f`` for ``f(...)`` and ``o.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def module_aliases(tree: ast.Module, watched: Sequence[str]) -> Dict[str, str]:
    """``local name -> module`` for plain imports of the watched modules.

    Covers ``import random`` and ``import random as rnd``; ``from``-imports
    are a different shape and are matched by the rules directly.
    """
    watched_set = set(watched)
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in watched_set:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def module_str_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments, by name.

    Used to resolve indirect lookups such as ``os.environ.get(WORKERS_ENV)``
    back to the string the constant holds.  Only simple, unconditional
    top-level assignments count; anything dynamic stays unresolved.
    """
    out: Dict[str, str] = {}
    for node in tree.body:
        targets = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Constant) or not isinstance(value.value, str):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = value.value
    return out


def normalized_path(path: str) -> str:
    """Forward-slash form of ``path``, for suffix matching across platforms."""
    return path.replace("\\", "/")
