"""The accepted-findings baseline: known sites, each with a reason.

A fresh lint family over an existing codebase always surfaces sites that
are *correct but match the pattern* — the runner's retry clock is real
wall-time scheduling, not output-bearing state.  Rather than scattering
pragmas through the source, those accepted sites live in one committed
JSON file (``lint_baseline.json`` at the repository root) where every
entry must carry a one-line ``reason``.  The contract:

* ``repro lint`` subtracts baselined findings from its report (and exits 0
  when nothing new remains);
* an entry that no longer matches anything is *stale* and is reported as
  an error — baselines shrink, they do not rot;
* matching is by ``(normalized path suffix, code, snippet)``, never by
  line number, so entries survive unrelated edits and absolute/relative
  invocation paths.

``repro lint --write-baseline`` regenerates the file from the current
findings (reasons default to ``TODO: justify``, which the self-lint test
rejects — a human has to fill them in).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from .common import normalized_path
from .findings import Finding

__all__ = [
    "BaselineEntry",
    "BaselineError",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "placeholder_reasons",
    "DEFAULT_BASELINE_NAME",
]

#: The baseline file ``repro lint`` applies from the working directory.
DEFAULT_BASELINE_NAME = "lint_baseline.json"

_PLACEHOLDER_REASON = "TODO: justify"


class BaselineError(Exception):
    """A baseline file that cannot be read or does not follow the schema."""


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding: where, which rule, what the line says, and why."""

    path: str  # normalized, repo-relative-ish suffix (e.g. src/repro/runner/core.py)
    code: str
    snippet: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        if finding.code != self.code:
            return False
        if finding.snippet.strip() != self.snippet.strip():
            return False
        return self.applies_to(finding.path)

    def applies_to(self, path: str) -> bool:
        """Whether this entry's path names the given (lintable) file."""
        norm = normalized_path(path)
        return norm == self.path or norm.endswith("/" + self.path)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "code": self.code,
            "snippet": self.snippet,
            "reason": self.reason,
        }


def load_baseline(path: str) -> List[BaselineEntry]:
    """Read and validate a baseline file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "accepted" not in payload:
        raise BaselineError(
            f"baseline {path!r} must be an object with an 'accepted' list"
        )
    entries: List[BaselineEntry] = []
    for index, raw in enumerate(payload["accepted"]):
        if not isinstance(raw, dict):
            raise BaselineError(f"baseline {path!r}: entry {index} is not an object")
        missing = [k for k in ("path", "code", "snippet", "reason") if k not in raw]
        if missing:
            raise BaselineError(
                f"baseline {path!r}: entry {index} is missing {', '.join(missing)}"
            )
        if not str(raw["reason"]).strip():
            raise BaselineError(
                f"baseline {path!r}: entry {index} has an empty reason — every "
                "accepted finding needs a one-line justification"
            )
        entries.append(
            BaselineEntry(
                path=normalized_path(str(raw["path"])),
                code=str(raw["code"]),
                snippet=str(raw["snippet"]),
                reason=str(raw["reason"]),
            )
        )
    return entries


def apply_baseline(
    findings: Sequence[Finding],
    entries: Sequence[BaselineEntry],
    linted_paths: Optional[Sequence[str]] = None,
    active_codes: Optional[AbstractSet[str]] = None,
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split findings against the baseline.

    Returns ``(kept, accepted, stale)``: findings not covered by any entry,
    findings absorbed by the baseline, and entries that matched nothing
    (which callers should report — stale entries mean the baseline is out
    of date and must be pruned).

    One entry may absorb several findings (the same snippet can recur, e.g.
    a pattern repeated across branches); an entry is stale only when it
    absorbs none *and was in play*: staleness is only meaningful when the
    entry's rule ran (``active_codes``) over the entry's file
    (``linted_paths``).  Linting a fixtures directory, or ``--select MDL``,
    must not condemn entries for files/rules outside that invocation.
    Either filter left as ``None`` means "everything was in play".
    """
    kept: List[Finding] = []
    accepted: List[Finding] = []
    used: Dict[BaselineEntry, int] = {entry: 0 for entry in entries}
    for finding in findings:
        matched = None
        for entry in entries:
            if entry.matches(finding):
                matched = entry
                break
        if matched is None:
            kept.append(finding)
        else:
            used[matched] += 1
            accepted.append(finding)

    def in_play(entry: BaselineEntry) -> bool:
        if active_codes is not None and entry.code not in active_codes:
            return False
        if linted_paths is not None and not any(
            entry.applies_to(path) for path in linted_paths
        ):
            return False
        return True

    stale = [entry for entry, count in used.items() if count == 0 and in_play(entry)]
    return kept, accepted, stale


def write_baseline(findings: Sequence[Finding], path: str) -> int:
    """Regenerate the baseline file from current findings; returns the count.

    Reasons are written as a placeholder that the self-lint test refuses to
    accept — regeneration is a starting point, not an approval.
    """
    entries = []
    seen = set()
    for finding in sorted(findings):
        entry = BaselineEntry(
            path=normalized_path(finding.path),
            code=finding.code,
            snippet=finding.snippet.strip(),
            reason=_PLACEHOLDER_REASON,
        )
        dedupe_key = (entry.path, entry.code, entry.snippet)
        if dedupe_key in seen:
            continue
        seen.add(dedupe_key)
        entries.append(entry)
    payload = {
        "comment": "Accepted lint findings. Every entry needs a one-line reason; "
        "stale entries are errors. See docs/LINTING.md.",
        "accepted": [entry.to_dict() for entry in entries],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return len(entries)


def placeholder_reasons(entries: Sequence[BaselineEntry]) -> List[BaselineEntry]:
    """Entries still carrying the regeneration placeholder (unjustified)."""
    return [entry for entry in entries if entry.reason.strip() == _PLACEHOLDER_REASON]
