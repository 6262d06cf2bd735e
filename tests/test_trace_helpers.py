"""Focused tests for trace statistics helpers and message records."""

import pickle

import pytest

from repro.algorithms import Flooding, SchemeB, TreeWakeup
from repro.core import NullOracle, run_broadcast, run_wakeup
from repro.network import complete_graph_star, path_graph
from repro.oracles import LightTreeBroadcastOracle, SpanningTreeWakeupOracle
from repro.simulator import DeliveryRecord, InFlightMessage, SendRequest


class TestTraceStatistics:
    def test_max_edge_traversals_flooding(self):
        # flooding on an even cycle: the two wavefronts meet and cross one
        # edge from both sides
        from repro.network import cycle_graph

        g = cycle_graph(6)
        trace = run_broadcast(g, NullOracle(), Flooding()).trace
        assert trace.max_edge_traversals() == 2

    def test_max_edge_traversals_tree_wakeup(self, k5):
        trace = run_wakeup(k5, SpanningTreeWakeupOracle(), TreeWakeup()).trace
        assert trace.max_edge_traversals() == 1  # M crosses each edge once

    def test_scheme_b_edge_traversals(self, k5):
        # per tree edge: at most one M and at most one hello
        trace = run_broadcast(k5, LightTreeBroadcastOracle(), SchemeB()).trace
        assert trace.max_edge_traversals() <= 2

    def test_last_informed_round(self):
        g = path_graph(4)
        trace = run_broadcast(g, NullOracle(), Flooding()).trace
        assert trace.last_informed_round == 3  # one hop per round down the path

    def test_last_informed_round_no_deliveries(self, triangle):
        from repro.simulator import Simulation

        class Silent:
            def on_init(self, ctx):
                pass

            def on_receive(self, ctx, payload, port):
                pass

        trace = Simulation(triangle, {v: Silent() for v in triangle.nodes()}).run()
        # only the source is informed, at step 0 (pre-run)
        assert trace.last_informed_round == 0

    def test_edges_used_subset_of_graph_edges(self):
        g = complete_graph_star(8)
        trace = run_broadcast(g, NullOracle(), Flooding()).trace
        assert trace.edges_used() <= set(g.edges())

    def test_history_of_matches_received_counts(self, k5):
        result = run_broadcast(k5, NullOracle(), Flooding())
        total = sum(len(result.trace.history_of(v)) for v in k5.nodes())
        assert total == len(result.trace.deliveries)


class TestInFlightMessage:
    def test_defaults_and_frozen(self):
        msg = InFlightMessage(
            payload="x",
            sender=0,
            receiver=1,
            send_port=0,
            arrival_port=2,
            sender_informed=True,
            seq=7,
        )
        assert msg.deliver_at == 0
        try:
            msg.seq = 8
            raised = False
        except AttributeError:
            raised = True
        assert raised, "InFlightMessage must be immutable"


#: One record of each kind, built positionally, with its exact repr.
RECORDS = {
    "send": (
        lambda: SendRequest("M", 0),
        "SendRequest(payload='M', port=0)",
    ),
    "in_flight": (
        lambda: InFlightMessage(("B", 1), 3, (0, 1), 2, 0, True, 9, 4),
        "InFlightMessage(payload=('B', 1), sender=3, receiver=(0, 1), "
        "send_port=2, arrival_port=0, sender_informed=True, seq=9, deliver_at=4)",
    ),
    "delivery": (
        lambda: DeliveryRecord(12, "M", None, "v", 1, 0, False, 3),
        "DeliveryRecord(step=12, payload='M', sender=None, receiver='v', "
        "send_port=1, arrival_port=0, sender_informed=False, round=3)",
    ),
}


class TestRecordContract:
    """Field order, repr, equality, hashing, pickling and immutability of
    the per-message records, whatever class backs them.  The
    ``deliver_at`` default is checked by :class:`TestInFlightMessage`."""

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_repr(self, kind):
        build, text = RECORDS[kind]
        assert repr(build()) == text

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_equal_records_hash_equal(self, kind):
        build, _ = RECORDS[kind]
        assert build() == build()
        assert hash(build()) == hash(build())

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_pickle_round_trip(self, kind):
        build, _ = RECORDS[kind]
        record = build()
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert hash(copy) == hash(record)
        assert type(copy) is type(record)

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_assignment_raises(self, kind):
        build, _ = RECORDS[kind]
        record = build()
        with pytest.raises(AttributeError):
            record.payload = "other"
