"""The serving protocol: request shapes, validation, content addresses.

A request is a flat JSON object naming a **job** and its parameters:

* ``{"job": "advice", "family": ..., "n": ..., "oracle": ...}`` —
  construct the family member and the oracle's advice map on it.
* ``{"job": "simulate", "task": ..., "family": ..., "n": ..., "oracle":
  ..., "algorithm": ..., "scheduler": ..., "scheduler_seed": ...}`` —
  run the full pipeline and return the :class:`TaskResult` facts plus the
  canonical trace JSONL.

:func:`normalize_request` validates a raw request and fills every default,
producing the *canonical parameter dict*: a fixed key set in which two
requests that mean the same thing are equal.  :func:`request_key` hashes
that canonical form through the library's shared
:func:`~repro.parallel.cache.content_address` scheme — the identity used
for response caching and single-flight coalescing, and the reason
``{"n": 64}`` and ``{"n": 64, "scheduler": "sync"}`` hit the same cache
line.

Responses travel in an *envelope*: ``{"ok": true, "key": ..., "result":
payload}`` on success, ``{"ok": false, "error": code, "message": ...}``
(plus ``retry_after_s`` for backpressure rejections) on failure.  The
payload bytes are the serving contract: byte-identical to what the direct
library calls produce (see :mod:`repro.service.jobs` and the serving
tests).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from ..algorithms import ALGORITHM_REGISTRY
from ..core.tasks import TASKS
from ..network.builders import FAMILY_BUILDERS
from ..oracles import ORACLE_FACTORIES
from ..parallel.cache import content_address
from ..simulator.schedulers import SCHEDULER_NAMES
from ..simulator.trace import TRACE_LEVELS

__all__ = [
    "PROTOCOL_SCHEMA",
    "JOB_KINDS",
    "MAX_NODES",
    "RequestError",
    "canonical_json",
    "normalize_request",
    "request_key",
    "error_envelope",
    "ok_envelope",
]

#: Version tag of the wire format; mixed into every request key.
PROTOCOL_SCHEMA = "repro-service/2"

#: The job kinds the daemon serves.
JOB_KINDS = ("advice", "simulate")

#: Hard per-request size cap: a single mistyped ``n`` must not wedge the
#: daemon behind one astronomically large construction.
MAX_NODES = 200_000


class RequestError(ValueError):
    """A request failed validation; ``code`` is the wire-level error tag."""

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


def canonical_json(value: Any) -> str:
    """The canonical encoding: compact separators, sorted keys.

    The same convention as :func:`repro.obs.sinks.encode_event`, so every
    byte-identity contract in the repository compares like with like.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _require_choice(data: Mapping[str, Any], field: str, choices, default=None):
    value = data.get(field, default)
    # Every choice set is named by strings; checking the type first keeps
    # an unhashable value (a JSON list or object) a typed 400.
    if not isinstance(value, str) or value not in choices:
        raise RequestError(
            f"{field!r} must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def _require_int(data: Mapping[str, Any], field: str, default=None, lo=None, hi=None):
    value = data.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{field!r} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise RequestError(f"{field!r} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise RequestError(
            f"{field!r} must be <= {hi}, got {value}", code="too_large"
        )
    return value


_KNOWN_FIELDS = {
    "job", "task", "family", "n", "oracle", "algorithm",
    "scheduler", "scheduler_seed", "anonymous", "trace_level",
    # envelope bookkeeping tolerated on the request side:
    "id",
}


def normalize_request(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a raw request and return the canonical parameter dict.

    The output has a fixed key set per job kind with every default filled,
    so equivalent requests normalize to equal dicts (hence equal
    :func:`request_key`s).  Unknown fields are an error — silently
    ignoring them would let typos (``"schedular"``) change meaning without
    changing the content address.
    """
    if not isinstance(data, Mapping):
        raise RequestError(f"request must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _KNOWN_FIELDS)
    if unknown:
        raise RequestError(f"unknown request field(s): {', '.join(unknown)}")
    job = _require_choice(data, "job", JOB_KINDS)
    family = _require_choice(data, "family", FAMILY_BUILDERS, default="kstar")
    n = _require_int(data, "n", lo=1, hi=MAX_NODES)
    task = _require_choice(data, "task", TASKS, default="broadcast")
    default_oracle, default_algorithm = TASKS[task]
    oracle = _require_choice(data, "oracle", ORACLE_FACTORIES, default=default_oracle)
    if job == "advice":
        return {"job": "advice", "family": family, "n": n, "oracle": oracle}
    algorithm = _require_choice(
        data, "algorithm", ALGORITHM_REGISTRY, default=default_algorithm
    )
    scheduler = _require_choice(data, "scheduler", SCHEDULER_NAMES, default="sync")
    scheduler_seed = _require_int(data, "scheduler_seed", default=0, lo=0)
    anonymous = data.get("anonymous", False)
    if not isinstance(anonymous, bool):
        raise RequestError(f"'anonymous' must be a boolean, got {anonymous!r}")
    trace_level = _require_choice(data, "trace_level", TRACE_LEVELS, default="full")
    return {
        "job": "simulate",
        "task": task,
        "family": family,
        "n": n,
        "oracle": oracle,
        "algorithm": algorithm,
        "scheduler": scheduler,
        "scheduler_seed": scheduler_seed,
        "anonymous": anonymous,
        "trace_level": trace_level,
    }


def request_key(params: Mapping[str, Any]) -> str:
    """The content address of a *normalized* request.

    One hash for response caching, single-flight coalescing, and the
    access log — the same SHA-256 scheme the construction cache and the
    run journal use, with the protocol schema as the version salt.
    """
    return content_address(PROTOCOL_SCHEMA, canonical_json(dict(params)))


def ok_envelope(key: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """A success envelope: the payload plus its content address."""
    return {"ok": True, "key": key, "result": payload}


def error_envelope(
    code: str, message: str, retry_after_s: Optional[float] = None
) -> Dict[str, Any]:
    """An error envelope; ``retry_after_s`` rides on backpressure rejections."""
    out: Dict[str, Any] = {"ok": False, "error": code, "message": message}
    if retry_after_s is not None:
        out["retry_after_s"] = retry_after_s
    return out
