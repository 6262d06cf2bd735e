#!/usr/bin/env python
"""Generate docs/API.md: one line per public symbol, from docstrings.

Run from the repository root:  python scripts/gen_api_docs.py
"""

import importlib
import inspect
import os
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


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.strip().splitlines()[0] if doc.strip() else "(no docstring)"


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    return "constant"


def main() -> int:
    lines = [
        "# API reference (generated)",
        "",
        "One line per public symbol; regenerate with "
        "`python scripts/gen_api_docs.py`.",
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
            lines.append(f"- **`{name}`** ({kind_of(obj)}) — {first_line(obj)}")
        lines.append("")
    out_path = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")
    with open(os.path.abspath(out_path), "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
    print(f"wrote {os.path.abspath(out_path)} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
