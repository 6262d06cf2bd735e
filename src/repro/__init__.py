"""repro — a full reproduction of *Oracle size: a new measure of difficulty
for communication tasks* (Fraigniaud, Ilcinkas, Pelc; PODC 2006).

The library models networks as port-labeled graphs, oracles as functions
from networks to per-node advice bit strings, and broadcast/wakeup
algorithms as functions from the local quadruple ``(f(v), s(v), id(v),
deg(v))`` to message-sending schemes.  It implements both of the paper's
constructive upper bounds, executable versions of both lower-bound
machineries, zero-advice baselines, and a measurement harness regenerating
every result in the paper.

Quickstart::

    from repro import (
        complete_graph_star, run_wakeup, run_broadcast,
        SpanningTreeWakeupOracle, TreeWakeup,
        LightTreeBroadcastOracle, SchemeB,
    )

    g = complete_graph_star(32)
    w = run_wakeup(g, SpanningTreeWakeupOracle(), TreeWakeup())
    b = run_broadcast(g, LightTreeBroadcastOracle(), SchemeB())
    print(w.oracle_bits, w.messages)   # ~n log n bits, exactly n-1 messages
    print(b.oracle_bits, b.messages)   # <= 8n bits, <= 2(n-1) messages
"""

from .algorithms import (
    AdvisedElection,
    MinIdElection,
    AdvisedTreeConstruction,
    DFSTreeConstruction,
    ChatterFlood,
    FloodGossip,
    HybridTreeFloodWakeup,
    TreeGossip,
    DFSTokenWakeup,
    Flooding,
    SchemeB,
    TreeWakeup,
    dfs_message_upper_bound,
    flooding_message_count,
)
from .core import (
    ElectionResult,
    run_election,
    TreeConstructionResult,
    run_tree_construction,
    GossipResult,
    run_gossip,
    AdviceMap,
    Algorithm,
    FullMapOracle,
    FunctionalAlgorithm,
    History,
    NullOracle,
    Oracle,
    SeparationPoint,
    TaskResult,
    TruncatingOracle,
    run_broadcast,
    run_wakeup,
    separation_point,
    separation_profile,
)
from .encoding import BitReader, BitString
from .network import (
    FAMILY_BUILDERS,
    GraphError,
    PortLabeledGraph,
    clique_family_graph,
    clique_substitution,
    complete_graph_star,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_connected_gnp,
    random_tree,
    subdivision_family_graph,
)
from .oracles import (
    ParentPointerOracle,
    DepthLimitedTreeOracle,
    GossipTreeOracle,
    LightTreeBroadcastOracle,
    SpanningTreeWakeupOracle,
    light_spanning_tree,
)
from .runner import (
    RetryPolicy,
    resilient_run_experiments,
)
from .simulator import (
    Simulation,
    WakeupViolation,
    make_scheduler,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # encoding
    "BitString",
    "BitReader",
    # network
    "PortLabeledGraph",
    "GraphError",
    "complete_graph_star",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "hypercube_graph",
    "random_tree",
    "random_connected_gnp",
    "subdivision_family_graph",
    "clique_substitution",
    "clique_family_graph",
    "FAMILY_BUILDERS",
    # core
    "Oracle",
    "AdviceMap",
    "NullOracle",
    "FullMapOracle",
    "TruncatingOracle",
    "Algorithm",
    "History",
    "FunctionalAlgorithm",
    "TaskResult",
    "run_broadcast",
    "run_wakeup",
    "SeparationPoint",
    "separation_point",
    "separation_profile",
    # oracles & algorithms
    "SpanningTreeWakeupOracle",
    "LightTreeBroadcastOracle",
    "light_spanning_tree",
    "TreeWakeup",
    "SchemeB",
    "Flooding",
    "DFSTokenWakeup",
    "ChatterFlood",
    "HybridTreeFloodWakeup",
    "TreeGossip",
    "FloodGossip",
    "GossipTreeOracle",
    "DepthLimitedTreeOracle",
    "GossipResult",
    "run_gossip",
    "ParentPointerOracle",
    "AdvisedTreeConstruction",
    "DFSTreeConstruction",
    "TreeConstructionResult",
    "run_tree_construction",
    "ElectionResult",
    "run_election",
    "AdvisedElection",
    "MinIdElection",
    "flooding_message_count",
    "dfs_message_upper_bound",
    # simulator
    "Simulation",
    "WakeupViolation",
    "make_scheduler",
    # runner (fault tolerance)
    "RetryPolicy",
    "resilient_run_experiments",
]
