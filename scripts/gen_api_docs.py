#!/usr/bin/env python
"""Generate docs/API.md: one line per public symbol, from docstrings.

Each public class is followed by one line per public method and property
it defines itself, so deleting one changes the file.  A constant carries
no docstring of its own, so its line comes from the ``#:`` comment above
its assignment.

Run from the repository root:  python scripts/gen_api_docs.py
"""

import importlib
import inspect
import os
import re
import sys

MODULES = [
    "repro",
    "repro.network",
    "repro.encoding",
    "repro.simulator",
    "repro.fastpath",
    "repro.vectorized",
    "repro.core",
    "repro.oracles",
    "repro.algorithms",
    "repro.lowerbounds",
    "repro.lint",
    "repro.obs",
    "repro.service",
    "repro.runner",
    "repro.analysis",
    "repro.verdict",
    "repro.agent",
    "repro.cli",
]


#: A top-level assignment, ``NAME = ...`` or ``NAME: type = ...``.
ASSIGNMENT = re.compile(r"([A-Za-z_]\w*)\s*(?::[^=]*)?=")
#: The line of a constant whose assignment has no ``#:`` comment.
NO_COMMENT = "(no #: comment)"


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.strip().splitlines()[0] if doc.strip() else "(no docstring)"


def comment_line(name: str, obj) -> str:
    """First sentence of the ``#:`` comment above ``name``'s assignment.

    The assignment is looked up in every loaded ``repro`` module that
    binds ``name`` to ``obj``.  A ``#:`` block documents the run of
    one-line assignments directly below it.
    """
    for module_name in sorted(sys.modules):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        module = sys.modules[module_name]
        if vars(module).get(name) is not obj:
            continue
        lines = inspect.getsource(module).splitlines()
        for i, line in enumerate(lines):
            match = ASSIGNMENT.match(line)
            if match is None or match.group(1) != name:
                continue
            while i > 0 and ASSIGNMENT.match(lines[i - 1]):
                i -= 1
            block = []
            while i > 0 and lines[i - 1].startswith("#:"):
                i -= 1
                block.insert(0, lines[i][2:].strip())
            if block:
                text = " ".join(block)
                sentence = re.match(r".*?\.(?=\s|$)", text)
                return sentence.group(0) if sentence else text
    return NO_COMMENT


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    return "constant"


def describe(name: str, obj) -> str:
    """The line for an exported ``name``: its docstring or ``#:`` comment."""
    if kind_of(obj) == "constant":
        return comment_line(name, obj)
    return first_line(obj)


def member_lines(cls) -> list:
    """One line per public method or property ``cls`` defines, by name.

    A property or method without a docstring of its own shows the one it
    overrides, as :func:`inspect.getdoc` finds it.
    """
    lines = []
    for name, value in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(value, property):
            kind = "property"
        elif isinstance(value, (classmethod, staticmethod)):
            kind, value = "method", value.__func__
        elif inspect.isfunction(value):
            kind = "method"
        else:
            continue
        lines.append(f"  - `.{name}` ({kind}) — {first_line(value)}")
    return lines


def main() -> int:
    lines = [
        "# API reference (generated)",
        "",
        "One line per public symbol, and per public method and property "
        "of each class; regenerate with `python scripts/gen_api_docs.py`.",
        "",
    ]
    seen_in_root = set()
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        names = sorted(getattr(module, "__all__", []))
        if not names:
            continue
        lines.append(f"## `{module_name}`")
        lines.append("")
        lines.append(first_line(module))
        lines.append("")
        for name in names:
            if module_name != "repro" and name in seen_in_root:
                continue  # avoid repeating top-level re-exports
            obj = getattr(module, name)
            if module_name == "repro":
                seen_in_root.add(name)
            lines.append(f"- **`{name}`** ({kind_of(obj)}) — {describe(name, obj)}")
            if inspect.isclass(obj):
                lines.extend(member_lines(obj))
        lines.append("")
    out_path = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")
    with open(os.path.abspath(out_path), "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
    print(f"wrote {os.path.abspath(out_path)} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
