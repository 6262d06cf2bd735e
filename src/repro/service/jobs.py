"""Job bodies: the one code path from a canonical request to a payload.

:func:`execute_job` is what the daemon's job thread runs *and* what "the
direct library call" means: building the payload goes through the same
:func:`repro.core.run_task` and ``oracle.advise`` entry points any
library user calls, with an optional :class:`ConstructionCache` in front
of the pure construction steps.  The serving contract — served bytes ==
direct-call bytes — holds *because* the memo only holds pure values and
the event stream is identical with and without it:

* a built graph is a pure function of ``(family, n)``, and its advice of
  the graph and the oracle's name;
* the ``oracle`` phase span is emitted around the advice *fetch* whether
  the fetch computes or hits the memo, exactly where ``_run`` emits it
  when it computes advice itself.

A size the family's builder refuses is the client's error, not the
daemon's: :func:`build_graph` raises it as a
:class:`~repro.service.protocol.RequestError`, and the memo keeps
nothing for it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..algorithms import ALGORITHM_REGISTRY
from ..core.oracle import AdviceMap, Oracle, advice_to_json
from ..core.tasks import run_task
from ..network.builders import FAMILY_BUILDERS
from ..network.graph import GraphError, PortLabeledGraph
from ..obs.observe import Observation
from ..obs.sinks import MemorySink, encode_event
from ..oracles import make_oracle
from ..simulator.schedulers import make_scheduler
from .protocol import PROTOCOL_SCHEMA, RequestError

__all__ = [
    "MAX_ENTRIES",
    "CacheStats",
    "ConstructionCache",
    "build_graph",
    "advice_payload",
    "simulate_payload",
    "execute_job",
]

#: The memo's bound: graphs and advice maps together, least recently used
#: out first.  Generous (a whole E1-E15 grid's constructions fit in a few
#: hundred entries) but fixed, so a long-running daemon cannot grow
#: without limit under a heavy-tailed request mix.
MAX_ENTRIES = 4096


@dataclass
class CacheStats:
    """Hit/miss accounting; ``evictions`` counts entries the bound dropped."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> Optional[float]:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class ConstructionCache:
    """The daemon's memo of built graphs and their advice: one bounded LRU.

    :meth:`graph` is keyed by ``(family, n)`` and :meth:`advice` by
    ``(family, n, oracle.name)``; both kinds share the
    :data:`MAX_ENTRIES` bound.  An oracle's name pins its behaviour
    (parametrized oracles such as ``TruncatingOracle`` encode their
    parameters in it), so two oracles on one member never share advice.
    Only the job thread touches it, so it takes no lock.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(self, key: Tuple[Any, ...], make: Callable[[], Any]) -> Any:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        value = make()  # a refused build raises here, and nothing is stored
        self._entries[key] = value
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return value

    def graph(self, family: str, n: int) -> PortLabeledGraph:
        """The frozen ``(family, n)`` member, built at most once while cached."""
        return self._lookup((family, n), lambda: build_graph(family, n))

    def advice(
        self, family: str, n: int, oracle: Oracle, graph: PortLabeledGraph
    ) -> AdviceMap:
        """``oracle.advise(graph)`` for the ``(family, n)`` member ``graph``."""
        return self._lookup((family, n, oracle.name), lambda: oracle.advise(graph))


def build_graph(
    family: str, n: int, cache: Optional[ConstructionCache] = None
) -> PortLabeledGraph:
    """The frozen ``(family, n)`` member, through the memo when given.

    A size the family refuses (``complete`` at n = 1, say) raises
    :class:`~repro.service.protocol.RequestError`; nothing is cached.
    """
    if cache is not None:
        return cache.graph(family, n)
    try:
        return FAMILY_BUILDERS[family](n)
    except GraphError as exc:
        raise RequestError(f"family {family!r} has no member at n={n}: {exc}") from exc


def _advice_for(
    params: Mapping[str, Any],
    graph: PortLabeledGraph,
    oracle: Oracle,
    cache: Optional[ConstructionCache],
):
    if cache is not None:
        return cache.advice(params["family"], params["n"], oracle, graph)
    return oracle.advise(graph)


def advice_payload(
    params: Mapping[str, Any], cache: Optional[ConstructionCache] = None
) -> Dict[str, Any]:
    """Serve an ``advice`` job: the oracle's advice map on the member.

    ``advice_json`` is exactly :func:`repro.core.oracle.advice_to_json` of
    ``oracle.advise(graph)`` — the bytes a direct caller would write to a
    fixture file.
    """
    graph = build_graph(params["family"], params["n"], cache)
    oracle = make_oracle(params["oracle"])
    advice = _advice_for(params, graph, oracle, cache)
    return {
        "schema": PROTOCOL_SCHEMA,
        "job": "advice",
        "request": dict(params),
        "oracle": oracle.name,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "total_bits": advice.total_bits(),
        "advice_json": advice_to_json(advice),
    }


def simulate_payload(
    params: Mapping[str, Any], cache: Optional[ConstructionCache] = None
) -> Dict[str, Any]:
    """Serve a ``simulate`` job: run the task and capture its telemetry.

    ``trace_jsonl`` is the run's structured event stream, one canonical
    JSONL line per event — byte-for-byte what a direct
    ``run_task(..., obs=Observation(JSONLSink(path)))`` call, or ``repro
    trace --out path`` with the same names, writes to ``path``.  The
    advice fetch happens under the same ``oracle`` span the library emits
    when it computes advice itself, which is what keeps the stream
    identical whether the memo was cold, warm, or absent.
    """
    graph = build_graph(params["family"], params["n"], cache)
    oracle = make_oracle(params["oracle"])
    algorithm = ALGORITHM_REGISTRY[params["algorithm"]].cls()
    scheduler = make_scheduler(params["scheduler"], params["scheduler_seed"])
    sink = MemorySink()
    obs = Observation(sink)
    with obs.span("oracle"):
        advice = _advice_for(params, graph, oracle, cache)
    result = run_task(
        params["task"],
        graph,
        oracle,
        algorithm,
        scheduler=scheduler,
        anonymous=params["anonymous"],
        advice=advice,
        obs=obs,
        trace_level=params["trace_level"],
    )
    return {
        "schema": PROTOCOL_SCHEMA,
        "job": "simulate",
        "request": dict(params),
        "result": {
            "task": result.task,
            "graph_nodes": result.graph_nodes,
            "graph_edges": result.graph_edges,
            "oracle_name": result.oracle_name,
            "algorithm_name": result.algorithm_name,
            "oracle_bits": result.oracle_bits,
            "messages": result.messages,
            "success": result.success,
            "completed": result.completed,
            "informed": result.informed,
            "rounds": result.rounds,
        },
        "trace_jsonl": [encode_event(event) for event in sink.events],
    }


def execute_job(
    params: Mapping[str, Any], cache: Optional[ConstructionCache] = None
) -> Dict[str, Any]:
    """Dispatch a *normalized* request to its job body."""
    if params["job"] == "advice":
        return advice_payload(params, cache)
    return simulate_payload(params, cache)
