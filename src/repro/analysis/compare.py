"""Oracle × algorithm comparison matrices.

A recurring question when exploring the library is "what happens if I pair
*this* oracle with *that* algorithm on *this* network?" —
:func:`comparison_matrix` answers it wholesale: run every pair in a grid,
tabulate oracle bits, messages, and success, and never crash on a
mismatched pair (the schemes are total on any advice; a nonsense pairing
just fails its task).

The default grid is the library's four dissemination designs, which makes
:func:`format_comparison` a one-call overview of the paper's landscape on
any network.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algorithms.dfs_wakeup import DFSTokenWakeup
from ..algorithms.flooding import Flooding
from ..algorithms.scheme_b import SchemeB
from ..algorithms.tree_wakeup import TreeWakeup
from ..core.oracle import NullOracle, Oracle
from ..core.scheme import Algorithm
from ..core.tasks import run_task
from ..network.graph import PortLabeledGraph
from ..oracles.light_tree import LightTreeBroadcastOracle
from ..oracles.spanning_tree import SpanningTreeWakeupOracle
from .tables import format_table

__all__ = ["comparison_matrix", "format_comparison", "DEFAULT_PAIRS"]

#: The library's dissemination landscape: (label, oracle, algorithm, task).
DEFAULT_PAIRS: Sequence[Tuple[str, Oracle, Algorithm, str]] = (
    ("Thm 2.1 pair", SpanningTreeWakeupOracle(), TreeWakeup(), "wakeup"),
    ("Thm 3.1 pair", LightTreeBroadcastOracle(), SchemeB(), "broadcast"),
    ("flooding", NullOracle(), Flooding(), "wakeup"),
    ("DFS token", NullOracle(), DFSTokenWakeup(), "wakeup"),
)


def comparison_matrix(
    graph: PortLabeledGraph,
    pairs: Optional[Sequence[Tuple[str, Oracle, Algorithm, str]]] = None,
) -> List[Dict[str, Any]]:
    """Run every (oracle, algorithm, task) row on one network."""
    chosen = pairs if pairs is not None else DEFAULT_PAIRS
    rows: List[Dict[str, Any]] = []
    for label, oracle, algorithm, task in chosen:
        result = run_task(task, graph, oracle, algorithm)
        rows.append(
            {
                "design": label,
                "task": task,
                "oracle_bits": result.oracle_bits,
                "messages": result.messages,
                "rounds": result.rounds,
                "success": result.success,
            }
        )
    return rows


def format_comparison(
    graph: PortLabeledGraph,
    pairs: Optional[Sequence[Tuple[str, Oracle, Algorithm, str]]] = None,
) -> str:
    """Render :func:`comparison_matrix` as an ASCII table."""
    title = f"n={graph.num_nodes}, m={graph.num_edges}"
    return format_table(comparison_matrix(graph, pairs), title=title)
