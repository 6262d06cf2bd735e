"""Concrete explorers: the three knowledge regimes of graph exploration.

* :class:`AdvisedTreeExplorer` — pairs with
  :class:`repro.oracles.GossipTreeOracle` (children + parent ports along a
  rooted spanning tree).  The agent walks the tree in DFS order using *no
  memory at all*: every decision is a function of the current node's advice
  and the entry port.  Exactly ``2(n - 1)`` moves, and it halts knowing it
  is done.  ``Theta(n log n)`` advice bits buy both optimal movement and
  the ability to halt.
* :class:`DFSExplorer` — zero advice, but the agent carries memory and the
  nodes carry labels: classical depth-first search with backtracking,
  ``O(m)`` moves, halts at the root.
* :class:`RotorRouterExplorer` — zero advice *and* label-free decisions
  (the rotor pointers are keyed by label only to emulate node-local state):
  the agent follows round-robin pointers.  It provably covers the graph
  within ``O(m * diameter)`` moves — but it can never *know* it is done,
  so it must be given a move budget.  Even the right to halt is knowledge.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from ..oracles.gossip_tree import decode_gossip_advice
from .explorer import AgentView, Explorer

__all__ = ["AdvisedTreeExplorer", "DFSExplorer", "RotorRouterExplorer"]


class AdvisedTreeExplorer(Explorer):
    """Memoryless DFS over the advised spanning tree (see module docs)."""

    name = "AdvisedTreeExplorer"

    def choose_port(self, view: AgentView) -> Optional[int]:
        children, parent = decode_gossip_advice(view.advice, view.degree)
        entry = view.entry_port
        if entry is None or entry == parent:
            # arrived from above (or started at the root): descend first child
            if children:
                return children[0]
            return parent  # leaf: bounce straight back (halt if root leaf)
        if entry in children:
            # returned from a child: descend the next one, else go up
            index = children.index(entry)
            if index + 1 < len(children):
                return children[index + 1]
            return parent  # None at the root = halt: the whole tree is done
        # entry is neither parent nor child: advice inconsistent; halt safely
        return None


class DFSExplorer(Explorer):
    """Classical DFS with agent-side memory; requires node labels."""

    name = "DFSExplorer"

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Optional[int]] = {}
        self._tried: Dict[Hashable, Set[int]] = {}
        self._last_was_try = False

    def choose_port(self, view: AgentView) -> Optional[int]:
        v = view.node_label
        if v is None:
            raise ValueError("DFSExplorer needs node labels (anonymous run?)")
        if v not in self._parent:
            self._parent[v] = view.entry_port
            tried = set()
            if view.entry_port is not None:
                tried.add(view.entry_port)
            self._tried[v] = tried
        elif self._last_was_try:
            # walked into an already-visited node: bounce straight back
            self._last_was_try = False
            return view.entry_port
        # continue exploring from v
        for port in range(view.degree):
            if port not in self._tried[v]:
                self._tried[v].add(port)
                self._last_was_try = True
                return port
        self._last_was_try = False
        return self._parent[v]  # None at the start node = halt


class RotorRouterExplorer(Explorer):
    """Round-robin pointers; covers within ``O(m * D)`` but cannot halt."""

    name = "RotorRouterExplorer"

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self._budget = budget
        self._moves = 0
        self._pointer: Dict[Hashable, int] = {}

    def choose_port(self, view: AgentView) -> Optional[int]:
        if self._moves >= self._budget:
            return None
        v = view.node_label
        if v is None:
            raise ValueError("RotorRouterExplorer emulates node-local pointers by label")
        port = self._pointer.get(v, 0)
        self._pointer[v] = (port + 1) % view.degree
        self._moves += 1
        return port
