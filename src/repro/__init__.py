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

import importlib
from typing import Any, List

__version__ = "1.0.0"

#: The subpackage each public name comes from.  ``import repro`` imports
#: none of them: PEP 562's ``__getattr__`` below imports a subpackage the
#: first time one of its names is read.
_SOURCES = {
    "encoding": ("BitString", "BitReader"),
    "network": (
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
    ),
    "core": (
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
        "GossipResult",
        "run_gossip",
        "TreeConstructionResult",
        "run_tree_construction",
        "ElectionResult",
        "run_election",
    ),
    "oracles": (
        "SpanningTreeWakeupOracle",
        "LightTreeBroadcastOracle",
        "light_spanning_tree",
        "GossipTreeOracle",
        "DepthLimitedTreeOracle",
        "ParentPointerOracle",
    ),
    "algorithms": (
        "TreeWakeup",
        "SchemeB",
        "Flooding",
        "DFSTokenWakeup",
        "ChatterFlood",
        "HybridTreeFloodWakeup",
        "TreeGossip",
        "FloodGossip",
        "AdvisedTreeConstruction",
        "DFSTreeConstruction",
        "AdvisedElection",
        "MinIdElection",
        "flooding_message_count",
        "dfs_message_upper_bound",
    ),
    "simulator": ("Simulation", "WakeupViolation", "make_scheduler"),
    # fault tolerance
    "runner": ("RetryPolicy", "resilient_run_experiments"),
}
_SOURCE_OF = {name: package for package, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *_SOURCE_OF]


def __getattr__(name: str) -> Any:
    """A public name, or a subpackage, imported the first time it is read."""
    package = _SOURCE_OF.get(name)
    if package is not None:
        value = getattr(importlib.import_module(f"{__name__}.{package}"), name)
    else:
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
