"""Tests for the message-passing engine, schedulers, and traces."""

import pytest

from repro.encoding import BitString
from repro.network import PortLabeledGraph, complete_graph_star, path_graph
from repro.simulator import (
    SCHEDULER_NAMES,
    FIFOLinkScheduler,
    InFlightMessage,
    NodeContext,
    PriorityScheduler,
    RandomScheduler,
    Simulation,
    SynchronousScheduler,
    WakeupViolation,
    delay_payload,
    make_scheduler,
)


class Silent:
    """A process that never sends."""

    def on_init(self, ctx):
        pass

    def on_receive(self, ctx, payload, port):
        pass


class Echo:
    """Bounces every received payload back on its arrival port, once each."""

    def __init__(self):
        self._bounced = set()

    def on_init(self, ctx):
        pass

    def on_receive(self, ctx, payload, port):
        if port not in self._bounced:
            self._bounced.add(port)
            ctx.send(payload, port)


class SourceSpray:
    """The source sends 'M' everywhere at init; others stay silent."""

    def on_init(self, ctx):
        if ctx.is_source:
            for p in range(ctx.degree):
                ctx.send("M", p)

    def on_receive(self, ctx, payload, port):
        pass


def processes_for(graph, factory):
    return {v: factory() for v in graph.nodes()}


class TestEngineBasics:
    def test_silent_network_quiesces(self, triangle):
        trace = Simulation(triangle, processes_for(triangle, Silent)).run()
        assert trace.completed
        assert trace.messages_sent == 0
        assert trace.informed_nodes() == {0}  # just the source

    def test_source_spray_counts(self, triangle):
        trace = Simulation(triangle, processes_for(triangle, SourceSpray)).run()
        assert trace.messages_sent == 2
        assert trace.informed_nodes() == {0, 1, 2}

    def test_delivery_records(self, path4):
        trace = Simulation(path4, processes_for(path4, SourceSpray)).run()
        assert len(trace.deliveries) == 1
        d = trace.deliveries[0]
        assert d.sender == 0
        assert d.receiver == 1
        assert d.payload == "M"
        assert d.sender_informed

    def test_histories_recorded(self, path4):
        sim = Simulation(path4, processes_for(path4, SourceSpray))
        trace = sim.run()
        assert trace.history_of(1) == [("M", path4.port(1, 0))]
        assert trace.history_of(3) == []

    def test_runs_once(self, triangle):
        sim = Simulation(triangle, processes_for(triangle, Silent))
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_process_node_mismatch(self, triangle):
        with pytest.raises(ValueError):
            Simulation(triangle, {0: Silent()})

    def test_advice_reaches_context(self, triangle):
        seen = {}

        class Peek:
            def on_init(self, ctx):
                seen[ctx.node_id] = ctx.advice

            def on_receive(self, ctx, payload, port):
                pass

        advice = {0: BitString("101")}
        Simulation(triangle, processes_for(triangle, Peek), advice=advice).run()
        assert seen[0] == BitString("101")
        assert seen[1] == BitString.empty()

    def test_anonymous_hides_ids(self, triangle):
        ids = []

        class Peek:
            def on_init(self, ctx):
                ids.append(ctx.node_id)

            def on_receive(self, ctx, payload, port):
                pass

        Simulation(triangle, processes_for(triangle, Peek), anonymous=True).run()
        assert ids == [None, None, None]

    def test_send_port_out_of_range(self, path4):
        class Bad:
            def on_init(self, ctx):
                if ctx.is_source:
                    ctx.send("M", 5)

            def on_receive(self, ctx, payload, port):
                pass

        with pytest.raises(ValueError):
            Simulation(path4, processes_for(path4, Bad)).run()

    @pytest.mark.parametrize("fastpath", (True, False), ids=("fastpath", "reference"))
    @pytest.mark.parametrize("port", (1.0, 1.5, "1"))
    def test_send_port_not_an_integer(self, monkeypatch, port, fastpath):
        # 1.0 passes the range check; both loops must refuse it alike
        monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
        graph = complete_graph_star(5)

        class Floaty:
            def on_init(self, ctx):
                if ctx.is_source:
                    ctx.send("M", port)

            def on_receive(self, ctx, payload, port):
                pass

        with pytest.raises(ValueError, match="not an integer"):
            Simulation(graph, processes_for(graph, Floaty)).run()

    @pytest.mark.parametrize("fastpath", (True, False), ids=("fastpath", "reference"))
    def test_send_port_index_type_is_an_int(self, monkeypatch, fastpath):
        monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
        graph = complete_graph_star(5)

        class Port:
            def __index__(self):
                return 1

        class Indexed:
            def on_init(self, ctx):
                if ctx.is_source:
                    ctx.send("M", Port())

            def on_receive(self, ctx, payload, port):
                pass

        trace = Simulation(graph, processes_for(graph, Indexed)).run()
        (record,) = trace.deliveries
        assert type(record.send_port) is int and record.send_port == 1


class TestInformedSemantics:
    def test_informed_spreads_only_from_informed(self, path4):
        # node 2 sends spontaneously; its message does NOT inform node 3
        class MiddleTalker:
            def on_init(self, ctx):
                if not ctx.is_source and ctx.degree == 2:
                    ctx.send("x", 1)

            def on_receive(self, ctx, payload, port):
                pass

        trace = Simulation(path4, processes_for(path4, MiddleTalker)).run()
        assert trace.messages_sent == 2
        assert trace.informed_nodes() == {0}

    def test_any_message_from_informed_informs(self, path4):
        # the source sends an arbitrary control payload; receiver is informed
        class ControlOnly:
            def on_init(self, ctx):
                if ctx.is_source:
                    ctx.send("ctl", 0)

            def on_receive(self, ctx, payload, port):
                pass

        trace = Simulation(path4, processes_for(path4, ControlOnly)).run()
        assert 1 in trace.informed_nodes()

    def test_informed_at_steps_monotone(self, path4):
        trace = Simulation(path4, processes_for(path4, Echo)).run()
        assert trace.informed_at[path4.source] == 0


class TestWakeupEnforcement:
    def test_spontaneous_send_raises(self, triangle):
        class Spont:
            def on_init(self, ctx):
                ctx.send("x", 0)

            def on_receive(self, ctx, payload, port):
                pass

        with pytest.raises(WakeupViolation):
            Simulation(triangle, processes_for(triangle, Spont), wakeup=True).run()

    def test_source_may_send(self, triangle):
        trace = Simulation(
            triangle, processes_for(triangle, SourceSpray), wakeup=True
        ).run()
        assert trace.completed

    def test_broadcast_mode_allows_spontaneity(self, triangle):
        class Spont:
            def on_init(self, ctx):
                ctx.send("x", 0)

            def on_receive(self, ctx, payload, port):
                pass

        trace = Simulation(triangle, processes_for(triangle, Spont)).run()
        assert trace.messages_sent == 3


class TestLimits:
    def _ping_pong(self):
        class PingPong:
            def on_init(self, ctx):
                if ctx.is_source:
                    ctx.send("ping", 0)

            def on_receive(self, ctx, payload, port):
                ctx.send("ping", port)  # bounce forever

        return PingPong

    def test_message_limit(self, path4):
        trace = Simulation(
            path4, processes_for(path4, self._ping_pong()), max_messages=25
        ).run()
        assert trace.message_limit_hit
        assert not trace.completed
        assert trace.messages_sent <= 25


class TestNoSourceMode:
    def test_no_initial_informed(self, triangle):
        trace = Simulation(
            triangle, processes_for(triangle, Silent), no_source=True
        ).run()
        assert trace.informed_nodes() == set()

    def test_source_flag_suppressed(self, triangle):
        flags = []

        class Peek:
            def on_init(self, ctx):
                flags.append(ctx.is_source)

            def on_receive(self, ctx, payload, port):
                pass

        Simulation(triangle, processes_for(triangle, Peek), no_source=True).run()
        assert flags == [False, False, False]


class TestSchedulers:
    def _msg(self, seq, deliver_at=1, payload="x"):
        return InFlightMessage(
            payload=payload,
            sender=0,
            receiver=1,
            send_port=0,
            arrival_port=0,
            sender_informed=False,
            seq=seq,
            deliver_at=deliver_at,
        )

    def test_synchronous_orders_by_round(self):
        s = SynchronousScheduler()
        s.push(self._msg(1, deliver_at=2))
        s.push(self._msg(2, deliver_at=1))
        assert s.pop().deliver_at == 1
        assert s.pop().deliver_at == 2
        assert s.empty()

    def test_fifo_preserves_link_order(self):
        s = FIFOLinkScheduler(seed=1)
        for i in range(5):
            s.push(self._msg(i + 1))
        seqs = [s.pop().seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]  # single link => strict FIFO

    def test_random_delivers_everything(self):
        s = RandomScheduler(seed=4)
        for i in range(10):
            s.push(self._msg(i))
        out = {s.pop().seq for _ in range(10)}
        assert out == set(range(10))
        assert s.empty()

    def test_priority_orders_by_key(self):
        s = PriorityScheduler(lambda m: 0 if m.payload == "a" else 1)
        s.push(self._msg(1, payload="b"))
        s.push(self._msg(2, payload="a"))
        assert s.pop().payload == "a"

    def test_delay_payload(self):
        s = delay_payload("hello")
        s.push(self._msg(1, payload="hello"))
        s.push(self._msg(2, payload="M"))
        assert s.pop().payload == "M"

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_make_scheduler(self, name):
        s = make_scheduler(name, seed=3)
        s.push(self._msg(1))
        assert not s.empty()
        assert s.pop().seq == 1

    def test_make_scheduler_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("bogus")


class TestTraceHelpers:
    def test_edges_used_and_payloads(self, path4):
        trace = Simulation(path4, processes_for(path4, Echo)).run()
        # echo bounces nothing (no one initiates) — use spray instead
        trace = Simulation(path4, processes_for(path4, SourceSpray)).run()
        assert trace.edges_used() == {(0, 1)}
        assert trace.payload_alphabet() == {"M"}
        assert trace.messages_with_payload("M") == 1
        assert trace.messages_with_payload("nope") == 0

    def test_max_edge_traversals(self, path4):
        class Pong:
            def on_init(self, ctx):
                if ctx.is_source:
                    ctx.send("p", 0)

            def on_receive(self, ctx, payload, port):
                pass

        trace = Simulation(path4, processes_for(path4, Pong)).run()
        assert trace.max_edge_traversals() == 1

    def test_rounds_counted(self, path4):
        class Chain:
            def __init__(self):
                self._seen = False

            def on_init(self, ctx):
                if ctx.is_source:
                    ctx.send("c", 0)

            def on_receive(self, ctx, payload, port):
                if not self._seen:
                    self._seen = True
                    for p in range(ctx.degree):
                        if p != port:
                            ctx.send("c", p)

        trace = Simulation(path4, {v: Chain() for v in path4.nodes()}).run()
        assert trace.rounds == 3  # three hops down the path
