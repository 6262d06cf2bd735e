"""Job bodies: the one code path from a canonical request to a payload.

:func:`execute_job` is what a daemon worker runs *and* what "the direct
library call" means: building the payload goes through the same
:func:`repro.core.run_broadcast` / :func:`repro.core.run_wakeup` /
``oracle.advise`` entry points any library user calls, with an optional
:class:`~repro.parallel.cache.ConstructionCache` in front of the pure
construction steps.  The serving contract — served bytes == direct-call
bytes — holds *because* the cache only memoizes pure functions and the
event stream is identical with and without it:

* graphs and advice are content-addressed pure values (PR 3's contract);
* the ``oracle`` phase span is emitted around the advice *fetch* whether
  the fetch computes or hits the cache, exactly where ``_run`` emits it
  when it computes advice itself.

A size the family's builder refuses is the client's error, not the
daemon's: :func:`build_graph` raises it as a
:class:`~repro.service.protocol.RequestError`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..algorithms import ALGORITHM_REGISTRY
from ..core.oracle import FullMapOracle, NullOracle, Oracle, advice_to_json
from ..core.tasks import run_broadcast, run_wakeup
from ..network.builders import FAMILY_BUILDERS
from ..network.graph import GraphError, PortLabeledGraph
from ..obs.observe import Observation
from ..obs.sinks import MemorySink, encode_event
from ..oracles import LightTreeBroadcastOracle, SpanningTreeWakeupOracle
from ..parallel.cache import ConstructionCache
from ..simulator.schedulers import make_scheduler
from .protocol import PROTOCOL_SCHEMA, RequestError

__all__ = [
    "ORACLE_FACTORIES",
    "make_oracle",
    "build_graph",
    "advice_payload",
    "simulate_payload",
    "execute_job",
]

#: Request oracle name -> zero-argument factory.  The same named set the
#: ``repro trace --oracle`` flag exposes: the paper's two constructions
#: plus the two baselines.
ORACLE_FACTORIES = {
    "light-tree": LightTreeBroadcastOracle,
    "spanning-tree": SpanningTreeWakeupOracle,
    "null": NullOracle,
    "full-map": FullMapOracle,
}


def make_oracle(name: str) -> Oracle:
    """A fresh oracle instance for a request oracle name."""
    return ORACLE_FACTORIES[name]()


def build_graph(
    family: str, n: int, cache: Optional[ConstructionCache] = None
) -> PortLabeledGraph:
    """The frozen ``(family, n)`` member, through the cache when given.

    A size the family refuses (``complete`` at n = 1, say) raises
    :class:`~repro.service.protocol.RequestError`; nothing is cached.
    """
    try:
        if cache is not None:
            return cache.graph(family, n)
        graph = FAMILY_BUILDERS[family](n)
    except GraphError as exc:
        raise RequestError(f"family {family!r} has no member at n={n}: {exc}") from exc
    if not graph.frozen:
        graph = graph.copy().freeze()
    return graph


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
    ``run_broadcast(..., obs=Observation(JSONLSink(path)))`` call writes
    to ``path``.  The advice fetch happens under the same ``oracle`` span
    the library emits when it computes advice itself, which is what keeps
    the stream identical whether the cache was cold, warm, or absent.
    """
    graph = build_graph(params["family"], params["n"], cache)
    oracle = make_oracle(params["oracle"])
    algorithm = ALGORITHM_REGISTRY[params["algorithm"]].cls()
    scheduler = make_scheduler(params["scheduler"], params["scheduler_seed"])
    runner = run_broadcast if params["task"] == "broadcast" else run_wakeup
    sink = MemorySink()
    obs = Observation(sink)
    with obs.span("oracle"):
        advice = _advice_for(params, graph, oracle, cache)
    result = runner(
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
