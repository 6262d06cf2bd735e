"""JSON serialization of port-labeled networks.

Provides a stable text format so benchmark inputs and regression fixtures can
be checked into the repository and reloaded bit-for-bit: node labels, every
directed port assignment, and the source survive a round trip.

Only JSON-representable labels (str, int, and tuples thereof — tuples are
encoded as tagged lists) are supported.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .graph import GraphError, PortLabeledGraph

__all__ = ["to_json", "from_json", "dump", "load"]

_FORMAT = "repro.port-labeled-graph.v1"


def _encode_label(label: Any) -> Any:
    if isinstance(label, tuple):
        return {"__tuple__": [_encode_label(x) for x in label]}
    if isinstance(label, (str, int)):
        return label
    raise GraphError(f"label {label!r} is not JSON-serializable (use str/int/tuple)")


def _decode_label(obj: Any) -> Any:
    if isinstance(obj, dict) and "__tuple__" in obj:
        return tuple(_decode_label(x) for x in obj["__tuple__"])
    return obj


def to_json(graph: PortLabeledGraph) -> str:
    """Serialize a graph (ports, labels, source) to a JSON string."""
    nodes = [_encode_label(v) for v in graph.nodes()]
    edges = []
    for u, v in graph.edges():
        edges.append(
            {
                "u": _encode_label(u),
                "v": _encode_label(v),
                "port_u": graph.port(u, v),
                "port_v": graph.port(v, u),
            }
        )
    doc: Dict[str, Any] = {
        "format": _FORMAT,
        "nodes": nodes,
        "edges": edges,
        "source": _encode_label(graph.source) if graph.has_source else None,
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> PortLabeledGraph:
    """Inverse of :func:`to_json`; returns a frozen, validated graph.

    The document's edges are written straight into each node's row, and
    :meth:`PortLabeledGraph.freeze` checks the rows, so loading takes time
    linear in the edges.  An edge listed twice is refused first, since its
    second entry would overwrite the first's ports.
    """
    doc = json.loads(text)
    if doc.get("format") != _FORMAT:
        raise GraphError(f"unrecognized format {doc.get('format')!r}")
    rows: Dict[Any, Dict[Any, int]] = {}
    for raw in doc["nodes"]:
        v = _decode_label(raw)
        if v in rows:
            raise GraphError(f"duplicate node label {v!r}")
        rows[v] = {}
    for e in doc["edges"]:
        u, v = _decode_label(e["u"]), _decode_label(e["v"])
        for w in (u, v):
            if w not in rows:
                raise GraphError(f"edge endpoint {w!r} is not a node")
        if v in rows[u]:
            raise GraphError(f"edge {{{u!r}, {v!r}}} is listed twice")
        rows[u][v] = e["port_u"]
        rows[v][u] = e["port_v"]
    if doc.get("source") is None:
        raise GraphError("no source designated")
    return PortLabeledGraph.from_port_rows(rows.items(), _decode_label(doc["source"])).freeze()


def dump(graph: PortLabeledGraph, path: str) -> None:
    """Write :func:`to_json` output to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(to_json(graph))


def load(path: str) -> PortLabeledGraph:
    """Read a graph previously written by :func:`dump`."""
    with open(path, "r", encoding="utf-8") as f:
        return from_json(f.read())
