"""Stateful property testing of the graph API.

Hypothesis drives arbitrary interleavings of add_node / add_edge /
remove_edge / set_port against a mirror model (plain dicts), checking after
every step that the graph agrees with the mirror and that each port leads
to the neighbour whose row entry names it.  This catches state-machine bugs
(stale row entries, port leaks after removal) that example-based tests miss.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.network import PortLabeledGraph


class GraphMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=10**6))
    def setup(self, seed):
        self.rng = random.Random(seed)
        self.graph = PortLabeledGraph()
        self.mirror_edges = {}  # edge_key -> (port_u at min, port_v at max)
        self.labels = []

    @rule()
    def add_node(self):
        label = len(self.labels)
        self.labels.append(label)
        self.graph.add_node(label)

    def _absent_pairs(self):
        out = []
        for i, u in enumerate(self.labels):
            for v in self.labels[i + 1 :]:
                if not self.graph.has_edge(u, v):
                    out.append((u, v))
        return out

    @precondition(lambda self: len(self.labels) >= 2 and self._absent_pairs())
    @rule()
    def add_edge_auto_ports(self):
        u, v = self.rng.choice(self._absent_pairs())
        self.graph.add_edge(u, v)
        self.mirror_edges[(u, v)] = (self.graph.port(u, v), self.graph.port(v, u))

    @precondition(lambda self: self.mirror_edges)
    @rule()
    def remove_edge(self):
        u, v = self.rng.choice(sorted(self.mirror_edges))
        self.graph.remove_edge(u, v)
        del self.mirror_edges[(u, v)]

    @precondition(lambda self: self.mirror_edges)
    @rule(offset=st.integers(min_value=0, max_value=3))
    def set_port_to_fresh(self, offset):
        u, v = self.rng.choice(sorted(self.mirror_edges))
        used = set(self.graph.ports(u))
        port = 0
        while port in used:
            port += 1
        port += offset  # gaps are allowed pre-freeze
        if port in used:
            return
        self.graph.set_port(u, v, port)
        self.mirror_edges[(u, v)] = (port, self.graph.port(v, u))

    @invariant()
    def mirror_agrees(self):
        count = 0
        for (u, v), (pu, pv) in self.mirror_edges.items():
            assert self.graph.has_edge(u, v)
            assert self.graph.port(u, v) == pu
            assert self.graph.port(v, u) == pv
            count += 1
        assert self.graph.num_edges == count

    @invariant()
    def port_maps_consistent(self):
        for v in self.graph.nodes():
            for port in self.graph.ports(v):
                neighbor = self.graph.neighbor_via(v, port)
                assert self.graph.port(v, neighbor) == port
            assert len(self.graph.ports(v)) == self.graph.degree(v)


TestGraphMachine = GraphMachine.TestCase
TestGraphMachine.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
