"""Extension experiments E9-E13: the paper's conclusion, made runnable.

The conclusion of the paper conjectures that (a) oracle size can measure
the difficulty of tasks beyond broadcast/wakeup — naming gossip and
spanner construction — and (b) oracles can chart *precise tradeoffs*
between knowledge and efficiency.  These experiments implement both
conjectures inside the paper's own formalism:

* **E9 (tradeoff)** — sweep :class:`repro.oracles.DepthLimitedTreeOracle`
  from depth 0 (pure flooding) to full depth (pure Theorem 2.1) and record
  the advice-vs-messages curve of the hybrid wakeup: a monotone frontier
  between (0 bits, ``2m - n + 1`` msgs) and (``~n log n`` bits, ``n - 1``
  msgs).
* **E10 (gossip)** — measure gossip the way the paper measures
  broadcast/wakeup: the :class:`repro.oracles.GossipTreeOracle` +
  :class:`repro.algorithms.TreeGossip` pair completes gossip in exactly
  ``2(n - 1)`` messages with ``Theta(n log n)`` advice, against the
  zero-advice flooding gossip's ``Theta(n * m)``.
* **E11 (construction)** — spanning-tree construction as an *output* task:
  the parent-pointer oracle solves it with zero messages; a DFS token
  rebuilds the same tree for ``Theta(m)`` messages.
* **E12 (election)** — the intro's first-listed problem: one advice bit
  elects a leader silently; zero advice costs ``Theta(n*m)`` with ids and
  is *impossible* anonymously on symmetric networks.
* **E13 (exploration)** — a mobile agent with tree advice tours in exactly
  ``2(n-1)`` moves with no memory and halts; without advice it needs
  memory and ``Theta(m)`` moves, or cannot even detect completion.

They are clearly flagged as extensions: the paper proves none of them; it
asks for all of them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..algorithms.flood_gossip import FloodGossip
from ..algorithms.hybrid_wakeup import HybridTreeFloodWakeup
from ..algorithms.tree_gossip import TreeGossip
from ..core.gossip import run_gossip
from ..core.oracle import NullOracle
from ..core.tasks import run_wakeup
from ..network.builders import FAMILY_BUILDERS
from ..oracles.gossip_tree import GossipTreeOracle
from ..oracles.tradeoff import DepthLimitedTreeOracle, bfs_depths
from .result import ExperimentResult
from .fits import classify_growth
from .series import growth_finding_series

__all__ = [
    "experiment_e9_tradeoff",
    "experiment_e10_gossip",
    "experiment_e11_construction",
    "experiment_e12_election",
    "experiment_e13_exploration",
    "experiment_e14_time",
]


def experiment_e9_tradeoff(
    n: int = 64,
    families: Sequence[str] = ("grid", "gnp_sparse", "complete"),
) -> ExperimentResult:
    """Advice-vs-messages frontier of the depth-limited tree oracle."""
    rows: List[Dict[str, Any]] = []
    for family in families:
        graph = FAMILY_BUILDERS[family](n)
        max_depth = max(bfs_depths(graph).values()) + 1
        depths = sorted({0, 1, max_depth // 4, max_depth // 2, 3 * max_depth // 4, max_depth})
        for depth in depths:
            oracle = DepthLimitedTreeOracle(depth)
            result = run_wakeup(graph, oracle, HybridTreeFloodWakeup())
            rows.append(
                {
                    "family": family,
                    "n": graph.num_nodes,
                    "depth": depth,
                    "advised": oracle.advised_nodes(graph),
                    "oracle_bits": result.oracle_bits,
                    "messages": result.messages,
                    "n-1": graph.num_nodes - 1,
                    "success": result.success,
                }
            )
    findings = []
    ok = all(r["success"] for r in rows)
    findings.append(f"hybrid wakeup completed at every depth cut: {ok}")
    for family in families:
        frows = [r for r in rows if r["family"] == family]
        msgs = [r["messages"] for r in frows]
        monotone = all(a >= b for a, b in zip(msgs, msgs[1:]))
        findings.append(
            f"{family}: messages fall {msgs[0]} -> {msgs[-1]} as advice grows "
            f"{frows[0]['oracle_bits']} -> {frows[-1]['oracle_bits']} bits "
            f"(monotone: {monotone})"
        )
    full = [r for r in rows if r["messages"] == r["n-1"]]
    findings.append(
        f"the Theorem 2.1 endpoint (exactly n-1 messages) is reached at full "
        f"depth on {len({r['family'] for r in full})}/{len(families)} families"
    )
    return ExperimentResult(
        "E9",
        "Extension — knowledge/efficiency tradeoff (conclusion conjecture b)",
        rows,
        findings,
    )


def experiment_e10_gossip(
    sizes: Sequence[int] = (8, 16, 32, 64),
    families: Sequence[str] = ("complete", "gnp_sparse", "random_tree"),
) -> ExperimentResult:
    """Gossip with and without advice, measured like the paper's tasks."""
    # Imported here: experiments.py imports this module while it loads.
    from .experiments import _family_graphs

    rows: List[Dict[str, Any]] = []
    for family, _, graph in _family_graphs(families, sizes):
        nn = graph.num_nodes
        # The rows read counts only; the check runs during the run.
        tree = run_gossip(
            graph, GossipTreeOracle(), TreeGossip(), trace_level="counters"
        )
        flood = run_gossip(graph, NullOracle(), FloodGossip(), trace_level="counters")
        rows.append(
            {
                "family": family,
                "n": nn,
                "m": graph.num_edges,
                "tree_bits": tree.oracle_bits,
                "tree_msgs": tree.messages,
                "2(n-1)": 2 * (nn - 1),
                "flood_msgs": flood.messages,
                "tree_ok": tree.success,
                "flood_ok": flood.success,
            }
        )
    findings = []
    exact = all(r["tree_msgs"] == r["2(n-1)"] for r in rows)
    findings.append(f"tree gossip used exactly 2(n-1) messages on every run: {exact}")
    findings.append(
        f"all runs complete: {all(r['tree_ok'] and r['flood_ok'] for r in rows)}"
    )
    for series in growth_finding_series(rows, "tree_bits", experiment="E10"):
        fits = classify_growth(series.xs, series.ys)
        findings.append(f"{series.group}: gossip advice best fit {fits[0]}")
    dense = [r for r in rows if r["family"] == "complete"]
    if dense:
        worst = max(dense, key=lambda r: r["flood_msgs"] / r["tree_msgs"])
        findings.append(
            f"flooding gossip pays up to {worst['flood_msgs'] / worst['tree_msgs']:.0f}x "
            f"more messages than tree gossip (complete, n={worst['n']})"
        )
    return ExperimentResult(
        "E10",
        "Extension — gossip measured by oracle size (conclusion conjecture a)",
        rows,
        findings,
    )


def experiment_e11_construction(
    sizes: Sequence[int] = (8, 16, 32, 64),
    families: Sequence[str] = ("complete", "gnp_sparse", "grid"),
) -> ExperimentResult:
    """Spanning-tree construction: knowledge substitutes for communication.

    The advised endpoint outputs a valid rooted tree with **zero** messages
    (the parent-pointer oracle is the answer); the zero-advice endpoint
    rebuilds the same object with a ``Theta(m)``-message DFS token.  This is
    the conclusion's "spanner construction" conjecture in its simplest
    instance (E11).
    """
    from ..algorithms.tree_construction import (
        AdvisedTreeConstruction,
        DFSTreeConstruction,
    )
    from ..core.construction import run_tree_construction
    from ..oracles.parent_pointer import ParentPointerOracle
    from .experiments import _family_graphs

    rows: List[Dict[str, Any]] = []
    for family, _, graph in _family_graphs(families, sizes):
        advised = run_tree_construction(
            graph, ParentPointerOracle(), AdvisedTreeConstruction()
        )
        dfs = run_tree_construction(graph, NullOracle(), DFSTreeConstruction())
        rows.append(
            {
                "family": family,
                "n": graph.num_nodes,
                "m": graph.num_edges,
                "oracle_bits": advised.oracle_bits,
                "advised_msgs": advised.messages,
                "dfs_msgs": dfs.messages,
                "advised_ok": advised.success,
                "dfs_ok": dfs.success,
            }
        )
    findings = [
        f"advised construction used zero messages on every run: "
        f"{all(r['advised_msgs'] == 0 for r in rows)}",
        f"all trees verified structurally: "
        f"{all(r['advised_ok'] and r['dfs_ok'] for r in rows)}",
    ]
    dense = [r for r in rows if r["family"] == "complete"]
    if dense:
        worst = max(dense, key=lambda r: r["dfs_msgs"])
        findings.append(
            f"DFS pays Theta(m): up to {worst['dfs_msgs']} messages at n={worst['n']} "
            f"(m={worst['m']}) where the oracle pays {worst['oracle_bits']} bits and 0 messages"
        )
    return ExperimentResult(
        "E11",
        "Extension — spanning-tree construction (conclusion conjecture a)",
        rows,
        findings,
    )


def experiment_e12_election(
    sizes: Sequence[int] = (8, 16, 32, 64),
    families: Sequence[str] = ("complete", "gnp_sparse", "cycle"),
) -> ExperimentResult:
    """Leader election: one advice bit, or Theta(n*m) messages, or neither.

    The three regimes of the intro's first-listed problem (E12): the 1-bit
    oracle solves election silently; zero advice with unique ids costs
    flooding; zero advice anonymously is *impossible* on symmetric networks
    — the classical impossibility, exhibited concretely on rings.
    """
    from ..algorithms.election import AdvisedElection, MinIdElection
    from ..core.election import run_election
    from ..network.builders import cycle_graph
    from ..oracles.leader_bit import LeaderBitOracle
    from .experiments import _family_graphs

    rows: List[Dict[str, Any]] = []
    for family, _, graph in _family_graphs(families, sizes):
        advised = run_election(graph, LeaderBitOracle(), AdvisedElection())
        minid = run_election(graph, NullOracle(), MinIdElection())
        rows.append(
            {
                "family": family,
                "n": graph.num_nodes,
                "m": graph.num_edges,
                "1bit_msgs": advised.messages,
                "minid_msgs": minid.messages,
                "advised_ok": advised.success,
                "minid_ok": minid.success,
            }
        )
    # the impossibility: anonymous deterministic election on symmetric rings
    impossibility: List[str] = []
    for n in (4, 6, 8, 12):
        ring = cycle_graph(n)
        anon = run_election(ring, NullOracle(), MinIdElection(), anonymous=True)
        impossibility.append(f"ring n={n}: {anon.leaders} leaders")
        rows.append(
            {
                "family": "ring/anonymous",
                "n": n,
                "m": n,
                "1bit_msgs": "-",
                "minid_msgs": anon.messages,
                "advised_ok": "-",
                "minid_ok": anon.success,
            }
        )
    findings = [
        f"the 1-bit oracle elected exactly one leader with zero messages on every run: "
        f"{all(r['advised_ok'] is True for r in rows if r['advised_ok'] != '-')}",
        f"min-id flooding elected correctly with zero advice (ids required) everywhere: "
        f"{all(r['minid_ok'] is True for r in rows if r['family'] != 'ring/anonymous')}",
        "anonymous + symmetric ring: every node stays in an identical state, so all "
        f"elect themselves — {'; '.join(impossibility)} (the classical impossibility, "
        "and one advice bit dissolves it)",
    ]
    return ExperimentResult(
        "E12",
        "Extension — leader election measured by oracle size",
        rows,
        findings,
    )


def experiment_e13_exploration(
    sizes: Sequence[int] = (8, 16, 32, 64),
    families: Sequence[str] = ("complete", "gnp_sparse", "grid"),
) -> ExperimentResult:
    """Graph exploration by a mobile agent, in three knowledge regimes.

    E13: the conclusion's "exploration by mobile agents" conjecture.  Tree
    advice gives a *memoryless* agent an optimal ``2(n-1)``-move tour that
    halts; memory without advice costs ``Theta(m)`` moves (DFS); rotor
    walking covers the graph but can never know it is done.
    """
    from ..agent import (
        AdvisedTreeExplorer,
        DFSExplorer,
        RotorRouterExplorer,
        run_exploration,
    )
    from ..oracles.gossip_tree import GossipTreeOracle
    from .experiments import _family_graphs

    rows: List[Dict[str, Any]] = []
    for family, _, graph in _family_graphs(families, sizes):
        nn, m = graph.num_nodes, graph.num_edges
        advised = run_exploration(graph, GossipTreeOracle(), AdvisedTreeExplorer())
        dfs = run_exploration(graph, NullOracle(), DFSExplorer())
        # rotor-router cover time is O(m * diameter); 2*m*n is safely above
        budget = 2 * m * nn
        rotor = run_exploration(
            graph,
            NullOracle(),
            RotorRouterExplorer(budget=budget),
            max_moves=budget + 1,
        )
        rows.append(
            {
                "family": family,
                "n": nn,
                "m": m,
                "oracle_bits": advised.oracle_bits,
                "advised_moves": advised.moves,
                "2(n-1)": 2 * (nn - 1),
                "dfs_moves": dfs.moves,
                "rotor_moves": rotor.moves,
                "advised_ok": advised.success,
                "dfs_ok": dfs.success,
                "rotor_covered": rotor.visited == nn,
            }
        )
    findings = [
        f"the advised (memoryless!) agent toured in exactly 2(n-1) moves and halted: "
        f"{all(r['advised_moves'] == r['2(n-1)'] and r['advised_ok'] for r in rows)}",
        f"zero-advice DFS (agent memory + labels) explored everywhere at Theta(m) moves: "
        f"{all(r['dfs_ok'] for r in rows)}",
        f"rotor-router covered every graph within its O(m*D) budget but cannot halt on its own: "
        f"{all(r['rotor_covered'] for r in rows)} — even the right to halt is knowledge",
    ]
    return ExperimentResult(
        "E13",
        "Extension — exploration by a mobile agent measured by oracle size",
        rows,
        findings,
    )


def experiment_e14_time(
    n: int = 64,
    families: Sequence[str] = ("cycle", "grid", "gnp_sparse", "complete"),
) -> ExperimentResult:
    """Time (rounds) vs oracle *content* at fixed oracle size (E14).

    The introduction notes that efficiency demands may be stated in time as
    well as messages.  Here the same oracle-size family — children-port
    advice over a spanning tree — is instantiated with two tree shapes:

    * BFS tree: wakeup time = eccentricity of the source (optimal up to 1
      round vs flooding, at a small fraction of flooding's messages);
    * DFS tree: same oracle size, same ``n - 1`` messages, but time up to
      ``n - 1`` rounds (a path on ``K*_n``).

    Moral: oracle *size* bounds what tasks are achievable; oracle *content*
    decides which efficiency point inside that budget you get.
    """
    from ..algorithms.flooding import Flooding
    from ..algorithms.tree_wakeup import TreeWakeup
    from ..oracles.spanning_tree import SpanningTreeWakeupOracle

    rows: List[Dict[str, Any]] = []
    for family in families:
        graph = FAMILY_BUILDERS[family](n)
        nn = graph.num_nodes
        flood = run_wakeup(graph, NullOracle(), Flooding())
        entry: Dict[str, Any] = {
            "family": family,
            "n": nn,
            "flood_rounds": flood.rounds,
            "flood_msgs": flood.messages,
        }
        for kind in ("bfs", "dfs"):
            result = run_wakeup(graph, SpanningTreeWakeupOracle(kind), TreeWakeup())
            entry[f"{kind}_rounds"] = result.rounds
            entry[f"{kind}_msgs"] = result.messages
            entry[f"{kind}_bits"] = result.oracle_bits
            entry[f"{kind}_ok"] = result.success
        rows.append(entry)
    findings = [
        f"all runs complete with exactly n-1 messages: "
        f"{all(r['bfs_ok'] and r['dfs_ok'] and r['bfs_msgs'] == r['dfs_msgs'] == r['n'] - 1 for r in rows)}",
        f"BFS-tree advice matches flooding's time within one round everywhere: "
        f"{all(r['bfs_rounds'] <= r['flood_rounds'] for r in rows)}",
        f"DFS-tree advice (same size class) is never faster and can be ~n slower: "
        f"{all(r['dfs_rounds'] >= r['bfs_rounds'] for r in rows)} "
        f"(complete graph: {next(r for r in rows if r['family'] == 'complete')['dfs_rounds']} "
        f"vs {next(r for r in rows if r['family'] == 'complete')['bfs_rounds']} rounds)",
    ]
    return ExperimentResult(
        "E14",
        "Extension — time vs oracle content at fixed oracle size",
        rows,
        findings,
    )
