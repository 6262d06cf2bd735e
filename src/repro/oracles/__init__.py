"""Concrete oracles: the paper's two constructions plus comparators."""

from typing import Callable, Dict

from ..core.oracle import FullMapOracle, NullOracle, Oracle, TruncatingOracle
from .leader_bit import LeaderBitOracle
from .full_map import IndexedFullMapOracle, decode_indexed_map
from .parent_pointer import ParentPointerOracle, decode_parent_port, parent_port_width
from .gossip_tree import GossipTreeOracle, decode_gossip_advice
from .light_tree import (
    LightTreeBroadcastOracle,
    assign_weight_advice,
    edge_contribution,
    light_spanning_tree,
    tree_contribution,
)
from .tradeoff import DepthLimitedTreeOracle, bfs_depths
from .spanning_tree import (
    SpanningTreeWakeupOracle,
    build_spanning_tree,
    children_port_map,
    tree_edges,
)

__all__ = [
    "ORACLE_FACTORIES",
    "make_oracle",
    "LeaderBitOracle",
    "IndexedFullMapOracle",
    "decode_indexed_map",
    "ParentPointerOracle",
    "decode_parent_port",
    "parent_port_width",
    "GossipTreeOracle",
    "decode_gossip_advice",
    "DepthLimitedTreeOracle",
    "bfs_depths",
    "NullOracle",
    "FullMapOracle",
    "TruncatingOracle",
    "SpanningTreeWakeupOracle",
    "build_spanning_tree",
    "children_port_map",
    "tree_edges",
    "LightTreeBroadcastOracle",
    "light_spanning_tree",
    "assign_weight_advice",
    "edge_contribution",
    "tree_contribution",
]

#: Oracle name -> zero-argument factory: the named set ``repro trace
#: --oracle`` and the daemon's requests accept — the paper's two
#: constructions plus the two baselines.
ORACLE_FACTORIES: Dict[str, Callable[[], Oracle]] = {
    "light-tree": LightTreeBroadcastOracle,
    "spanning-tree": SpanningTreeWakeupOracle,
    "null": NullOracle,
    "full-map": FullMapOracle,
}


def make_oracle(name: str) -> Oracle:
    """A fresh oracle instance for a name in :data:`ORACLE_FACTORIES`."""
    return ORACLE_FACTORIES[name]()
