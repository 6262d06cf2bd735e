"""Causal tracing: the happened-before DAG of one simulation run.

The paper's central quantities are *causal* properties of an execution:
message complexity counts the sends, and execution time (in the
asynchronous model the paper's upper bounds are claimed for) is the length
of the longest chain of messages each triggered by the delivery of the
previous one.  The flat event stream of :mod:`repro.obs` records those
facts; this module derives the structure:

* **lineage** — which delivery triggered which sends, via the ``cause``
  field threaded onto every :class:`~repro.obs.events.MessageSent` event
  (``cause == 0`` marks a spontaneous init-phase send — a DAG root);
* **causal depth** — for each message, the number of messages on its
  chain back to a root; the run's causal depth is the max over delivered
  messages.  Under the :class:`~repro.simulator.schedulers
  .SynchronousScheduler` a message triggered in round ``r`` is delivered
  in round ``r + 1``, so causal depth equals the engine's round count —
  an invariant ``tests/test_causal.py`` pins and ``CausalDag.validate``
  re-checks on every build;
* **critical path** — one deepest root-to-leaf chain (ties broken by
  smallest seq at every step, so the path is deterministic);
* **fan-out** — children per message, sends/receives per node, and
  sends/deliveries per round.

Everything here is a pure function of the deterministic event stream, so
a DAG built from a live :class:`~repro.obs.sinks.MemorySink` and one
rebuilt from the saved JSONL are identical — and :meth:`CausalDag.to_json`
is byte-identical across same-seed runs, schedulers being equal.  Streams
written before the ``cause`` field existed are still readable: when a
``message_sent`` event has no ``cause`` key the builder falls back to
stream-order inference (sends between two deliveries are caused by the
first), which reconstructs the same DAG because the engines emit sends
immediately after the delivery that triggered them.

Exports: :meth:`CausalDag.to_dict` / :meth:`to_json` (schema
``repro-causal/1``) and :meth:`to_dot` (Graphviz).  ``repro trace
--format causal-json|causal-dot`` is the CLI face.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .events import Event, jsonable

__all__ = [
    "CAUSAL_SCHEMA",
    "MessageNode",
    "CausalDag",
    "CausalTraceError",
    "build_causal_dag",
    "causal_dag_from_jsonl",
    "causal_dags",
]

#: Schema tag of the canonical causal-DAG JSON.
CAUSAL_SCHEMA = "repro-causal/1"

#: ``cause`` value marking a spontaneous (init-phase) send — a DAG root.
ROOT_CAUSE = 0


class CausalTraceError(ValueError):
    """The event stream cannot be assembled into a consistent DAG."""


@dataclass(slots=True)
class MessageNode:
    """One message (= one potential edge of the happened-before DAG)."""

    seq: int
    sender: Any
    receiver: Any
    send_port: int
    arrival_port: int
    payload: Any
    sender_informed: bool
    sent_round: int
    cause: int  # seq of the triggering delivery; ROOT_CAUSE for init sends
    delivered_step: Optional[int] = None
    delivered_round: Optional[int] = None
    newly_informed: bool = False
    depth: int = 0  # messages on the chain back to a root, self included
    children: List[int] = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        return self.delivered_step is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "cause": self.cause,
            "sender": jsonable(self.sender),
            "receiver": jsonable(self.receiver),
            "send_port": self.send_port,
            "arrival_port": self.arrival_port,
            "payload": jsonable(self.payload),
            "sender_informed": self.sender_informed,
            "sent_round": self.sent_round,
            "delivered_step": self.delivered_step,
            "delivered_round": self.delivered_round,
            "newly_informed": self.newly_informed,
            "depth": self.depth,
            "children": list(self.children),
        }


class CausalDag:
    """The happened-before DAG of one run, with derived causal measures.

    Build through :func:`build_causal_dag` (live events or decoded JSONL
    dicts) — the constructor only assembles what the builder hands it.
    """

    def __init__(
        self,
        run: Optional[Dict[str, Any]],
        nodes: Dict[int, MessageNode],
        run_ended: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.run = run
        self.run_ended = run_ended
        self.nodes = nodes
        self.roots: List[int] = sorted(
            seq for seq, node in nodes.items() if node.cause == ROOT_CAUSE
        )
        self._compute_depths()

    # -- construction helpers -------------------------------------------
    def _compute_depths(self) -> None:
        """Depth by one pass in seq order (a cause always has a smaller
        seq than its effects, because it was delivered before they were
        sent), wiring children along the way."""
        nodes = self.nodes
        for seq in sorted(nodes):
            node = nodes[seq]
            if node.cause == ROOT_CAUSE:
                node.depth = 1
                continue
            parent = nodes.get(node.cause)
            if parent is None:
                raise CausalTraceError(
                    f"message seq={seq} names unknown cause seq={node.cause}"
                )
            if node.cause >= seq:
                raise CausalTraceError(
                    f"message seq={seq} claims a later/equal cause "
                    f"seq={node.cause}: streams are emitted causally"
                )
            if not parent.delivered:
                raise CausalTraceError(
                    f"message seq={seq} caused by seq={node.cause}, "
                    "which was never delivered"
                )
            parent.children.append(seq)
            node.depth = parent.depth + 1

    # -- causal measures -------------------------------------------------
    @property
    def message_count(self) -> int:
        return len(self.nodes)

    @property
    def delivered_count(self) -> int:
        return sum(1 for node in self.nodes.values() if node.delivered)

    @property
    def causal_depth(self) -> int:
        """Longest happened-before chain over *delivered* messages — the
        run's logical time complexity."""
        return max(
            (node.depth for node in self.nodes.values() if node.delivered), default=0
        )

    def critical_path(self) -> List[int]:
        """Seqs of one deepest delivered chain, root first.  Deterministic:
        the deepest delivered message with the smallest seq, then straight
        up the (unique) cause links."""
        depth = self.causal_depth
        if depth == 0:
            return []
        leaf = min(
            seq
            for seq, node in self.nodes.items()
            if node.delivered and node.depth == depth
        )
        path: List[int] = []
        seq: int = leaf
        while seq != ROOT_CAUSE:
            path.append(seq)
            seq = self.nodes[seq].cause
        path.reverse()
        return path

    def max_fanout(self) -> int:
        """Most sends triggered by any single delivery (or by init, for
        roots' shared virtual cause)."""
        fanouts = [len(node.children) for node in self.nodes.values()]
        fanouts.append(len(self.roots))
        return max(fanouts, default=0)

    def per_round(self) -> Dict[int, Dict[str, int]]:
        """``{round: {"sent": .., "delivered": ..}}``, sorted by round."""
        table: Dict[int, Dict[str, int]] = {}
        for node in self.nodes.values():
            sent = table.setdefault(node.sent_round, {"sent": 0, "delivered": 0})
            sent["sent"] += 1
            if node.delivered_round is not None:
                got = table.setdefault(
                    node.delivered_round, {"sent": 0, "delivered": 0}
                )
                got["delivered"] += 1
        return {r: table[r] for r in sorted(table)}

    def per_node(self) -> Dict[str, Dict[str, int]]:
        """Per network node: ``{"sent", "received", "max_fanout"}`` keyed by
        the canonical JSON rendering of the node label (sorted)."""

        def key(label: Any) -> str:
            rendered = jsonable(label)
            return rendered if isinstance(rendered, str) else json.dumps(
                rendered, sort_keys=True
            )

        table: Dict[str, Dict[str, int]] = {}
        for node in self.nodes.values():
            s = table.setdefault(
                key(node.sender), {"sent": 0, "received": 0, "max_fanout": 0}
            )
            s["sent"] += 1
            s["max_fanout"] = max(s["max_fanout"], 0)
            if node.delivered:
                r = table.setdefault(
                    key(node.receiver), {"sent": 0, "received": 0, "max_fanout": 0}
                )
                r["received"] += 1
                r["max_fanout"] = max(r["max_fanout"], len(node.children))
        return {k: table[k] for k in sorted(table)}

    def validate(self) -> None:
        """Cross-check the DAG against the run's own ``run_ended`` record
        and the synchronous-round invariant; raises
        :class:`CausalTraceError` on any mismatch."""
        ended = self.run_ended
        if ended is not None:
            if ended.get("messages") != self.message_count:
                raise CausalTraceError(
                    f"run_ended counts {ended.get('messages')} sends, "
                    f"DAG holds {self.message_count}"
                )
            if ended.get("delivered") != self.delivered_count:
                raise CausalTraceError(
                    f"run_ended counts {ended.get('delivered')} deliveries, "
                    f"DAG holds {self.delivered_count}"
                )
        if self.run is not None and self.run.get("scheduler") == "SynchronousScheduler":
            rounds = (ended or {}).get("rounds")
            if rounds is not None and self.causal_depth != rounds:
                raise CausalTraceError(
                    f"synchronous run: causal depth {self.causal_depth} != "
                    f"round count {rounds}"
                )

    # -- exports ---------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "messages": self.message_count,
            "delivered": self.delivered_count,
            "undelivered": self.message_count - self.delivered_count,
            "roots": len(self.roots),
            "causal_depth": self.causal_depth,
            "critical_path": self.critical_path(),
            "max_fanout": self.max_fanout(),
            "rounds": (self.run_ended or {}).get("rounds"),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": CAUSAL_SCHEMA,
            "run": self.run,
            "summary": self.summary(),
            "messages": [self.nodes[seq].to_dict() for seq in sorted(self.nodes)],
            "per_round": {str(r): v for r, v in self.per_round().items()},
            "per_node": self.per_node(),
        }

    def to_json(self) -> str:
        """Canonical (sorted-keys, compact) JSON — the byte-identity
        artifact the determinism tests diff."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_dot(self) -> str:
        """Graphviz DOT: messages as boxes (undelivered dashed), cause
        links as edges, critical path bold."""
        critical = set(self.critical_path())
        lines = [
            "digraph causal {",
            "  rankdir=TB;",
            '  node [shape=box, fontsize=10, fontname="monospace"];',
        ]
        for seq in sorted(self.nodes):
            node = self.nodes[seq]
            label = (
                f"#{seq} {jsonable(node.sender)}->{jsonable(node.receiver)}"
                f"\\nround {node.sent_round} depth {node.depth}"
            )
            attrs = [f'label="{label}"']
            if not node.delivered:
                attrs.append("style=dashed")
            elif seq in critical:
                attrs.append("penwidth=2.5")
            lines.append(f"  m{seq} [{', '.join(attrs)}];")
        for seq in sorted(self.nodes):
            node = self.nodes[seq]
            if node.cause != ROOT_CAUSE:
                style = (
                    " [penwidth=2.5]"
                    if seq in critical and node.cause in critical
                    else ""
                )
                lines.append(f"  m{node.cause} -> m{seq}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
EventLike = Union[Event, Mapping[str, Any]]


def _as_dict(event: EventLike) -> Mapping[str, Any]:
    return event.to_dict() if isinstance(event, Event) else event


def build_causal_dag(
    events: Iterable[EventLike], validate: bool = True
) -> CausalDag:
    """Assemble the happened-before DAG of *one* run from its events.

    Accepts typed events (e.g. ``MemorySink.events``) or decoded JSONL
    dicts.  Raises :class:`CausalTraceError` on streams holding more than
    one ``run_started`` (use :func:`causal_dags` for sweep streams) or on
    causally inconsistent data.  ``validate=True`` additionally
    cross-checks counts against ``run_ended`` and the synchronous
    depth == rounds invariant.
    """
    run: Optional[Dict[str, Any]] = None
    run_ended: Optional[Dict[str, Any]] = None
    nodes: Dict[int, MessageNode] = {}
    last_delivered = ROOT_CAUSE  # inference fallback for cause-less streams

    for raw in events:
        data = _as_dict(raw)
        kind = data.get("event")
        if kind == "run_started":
            if run is not None:
                raise CausalTraceError(
                    "stream holds more than one run; use causal_dags()"
                )
            run = {k: v for k, v in data.items() if k != "event"}
        elif kind == "message_sent":
            seq = int(data["seq"])
            if seq in nodes:
                raise CausalTraceError(f"duplicate message_sent seq={seq}")
            cause = data.get("cause")
            nodes[seq] = MessageNode(
                seq=seq,
                sender=data["sender"],
                receiver=data["receiver"],
                send_port=int(data["send_port"]),
                arrival_port=int(data["arrival_port"]),
                payload=data["payload"],
                sender_informed=bool(data["sender_informed"]),
                sent_round=int(data["round"]),
                cause=int(cause) if cause is not None else last_delivered,
            )
        elif kind == "message_delivered":
            seq = int(data["seq"])
            node = nodes.get(seq)
            if node is None:
                raise CausalTraceError(
                    f"message_delivered seq={seq} without a message_sent"
                )
            if node.delivered:
                raise CausalTraceError(f"message seq={seq} delivered twice")
            node.delivered_step = int(data["step"])
            node.delivered_round = int(data["round"])
            node.newly_informed = bool(data["newly_informed"])
            last_delivered = seq
        elif kind == "run_ended":
            run_ended = {k: v for k, v in data.items() if k != "event"}

    dag = CausalDag(run, nodes, run_ended)
    if validate:
        dag.validate()
    return dag


def causal_dags(events: Iterable[EventLike], validate: bool = True) -> List[CausalDag]:
    """One :class:`CausalDag` per run in a multi-run stream (sweeps,
    experiment grids), split at ``run_started`` boundaries."""
    groups: List[List[Mapping[str, Any]]] = []
    current: List[Mapping[str, Any]] = []
    seen_run = False
    for raw in events:
        data = _as_dict(raw)
        if data.get("event") == "run_started" and seen_run:
            groups.append(current)
            current = []
        if data.get("event") == "run_started":
            seen_run = True
        current.append(data)
    if current and seen_run:
        groups.append(current)
    return [build_causal_dag(group, validate=validate) for group in groups]


def causal_dag_from_jsonl(path: str, validate: bool = True) -> CausalDag:
    """Build the DAG of a single-run JSONL trace written by
    :class:`~repro.obs.sinks.JSONLSink` (e.g. ``repro trace``)."""
    from .export import read_jsonl

    return build_causal_dag(read_jsonl(path), validate=validate)
