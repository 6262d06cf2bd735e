"""Tests for the instrumentation layer: events, sinks, metrics, spans,
determinism of the JSONL stream, and the export/replay round trip."""

import io
import json
from dataclasses import fields

import numpy as np
import pytest

from repro.algorithms import Flooding, SchemeB, TreeWakeup
from repro.core import run_broadcast, run_wakeup
from repro.encoding import BitString
from repro.network import complete_graph_star, path_graph
from repro.obs import (
    EVENT_KINDS,
    AdviceComputed,
    Counter,
    Event,
    Gauge,
    Histogram,
    JSONLSink,
    MemorySink,
    MessageDelivered,
    MetricsRegistry,
    NullSink,
    NULL_OBSERVATION,
    Observation,
    RoundStarted,
    RunEnded,
    RunStarted,
    TeeSink,
    apply_event,
    convert_benchmark_json,
    emit_bench_obs,
    encode_event,
    jsonable,
    per_round_rows,
    read_jsonl,
    replay_metrics,
    resolve_obs,
    run_rows,
    split_runs,
    stats_report,
)
from repro.oracles import LightTreeBroadcastOracle, NullOracle, SpanningTreeWakeupOracle
from repro.simulator import make_scheduler


class TestEvents:
    def test_to_dict_leads_with_kind(self):
        ev = RoundStarted(round=3)
        assert ev.to_dict() == {"event": "round_started", "round": 3}
        assert list(ev.to_dict())[0] == "event"

    def test_event_kinds_map_is_complete(self):
        for kind, cls in EVENT_KINDS.items():
            assert cls.kind == kind
            assert issubclass(cls, Event)
        assert "run_started" in EVENT_KINDS
        assert "message_delivered" in EVENT_KINDS
        assert "adversary_probe" in EVENT_KINDS

    def test_events_are_frozen(self):
        ev = RoundStarted(round=1)
        with pytest.raises(Exception):
            ev.round = 2

    def test_jsonable_scalars_pass_through(self):
        for value in ("x", 3, 2.5, True, None):
            assert jsonable(value) == value

    def test_jsonable_recurses_and_reprs(self):
        assert jsonable((1, 2)) == [1, 2]
        # Sets render as *sorted* lists, never repr: set repr order follows
        # PYTHONHASHSEED for string elements, which would break trace
        # byte-identity across interpreter launches.
        assert jsonable({(1, 2): {3}}) == {"[1, 2]": [3]}
        # Mixed types order by canonical JSON encoding (strings quote first).
        assert jsonable(frozenset({"b", "a", 3})) == ["a", "b", 3]

    def test_encode_is_compact_sorted_json(self):
        text = encode_event(RoundStarted(round=1))
        assert text == '{"event":"round_started","round":1}'
        assert json.loads(text) == {"event": "round_started", "round": 1}


#: One value per :func:`jsonable` branch (and the plain scalars), placed in
#: every field of every event kind by the encoder's differential test.
ODD_VALUES = (
    {"rumor-b", "rumor-a", "rumor-c"},  # a set of strings: sorted list
    frozenset({"y", "x"}),  # a frozenset of strings: sorted list
    ((1, (2, "z")), (3,)),  # nested tuples: nested lists
    None,
    BitString("1011"),  # no JSON form: its repr
    np.float64(0.1),  # a float subclass
    {3: "c", 1: ("a", 2)},  # int keys: string keys
    [4, {"k": frozenset({"q", "p"})}],  # a list holding a dict holding a set
    "plain",
    7,
    2.5,
    True,
)


def _reference_dict(event):
    """The encoding rule stated plainly: every dataclass field, through
    :func:`jsonable`, after the kind."""
    out = {"event": event.kind}
    for f in fields(event):
        out[f.name] = jsonable(getattr(event, f.name))
    return out


class TestEncoderDifferential:
    """``Event.to_dict`` and ``encode_event`` skip work for plain scalars;
    their output must equal the plain rule's for every kind and value."""

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_every_kind_and_value_matches_the_reference(self, kind):
        cls = EVENT_KINDS[kind]
        names = [f.name for f in fields(cls)]
        size = len(ODD_VALUES)
        # Rotating the values puts each of them in each field once.
        for offset in range(size):
            event = cls(
                **{name: ODD_VALUES[(offset + i) % size] for i, name in enumerate(names)}
            )
            reference = _reference_dict(event)
            assert event.to_dict() == reference
            assert encode_event(event) == json.dumps(
                reference, sort_keys=True, separators=(",", ":")
            )


class TestSinks:
    def test_null_sink_is_disabled(self):
        sink = NullSink()
        assert sink.enabled is False
        sink.emit(RoundStarted(round=1))  # no-op, no error
        sink.close()

    def test_memory_sink_collects_in_order(self):
        sink = MemorySink()
        events = [RoundStarted(round=r) for r in range(3)]
        for ev in events:
            sink.emit(ev)
        assert sink.events == events

    def test_jsonl_sink_writes_lines_and_counts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JSONLSink(str(path)) as sink:
            sink.emit(RoundStarted(round=1))
            sink.emit(RoundStarted(round=2))
            assert sink.count == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"event": "round_started", "round": 1}

    def test_jsonl_sink_close_is_idempotent_and_final(self, tmp_path):
        sink = JSONLSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()
        with pytest.raises(ValueError):
            sink.emit(RoundStarted(round=1))

    def test_jsonl_sink_leaves_external_streams_open(self):
        buf = io.StringIO()
        sink = JSONLSink(buf)
        sink.emit(RoundStarted(round=1))
        sink.close()
        assert not buf.closed
        assert buf.getvalue().count("\n") == 1

    def test_tee_sink_fans_out(self):
        a, b = MemorySink(), MemorySink()
        tee = TeeSink(a, b, NullSink())
        assert tee.enabled
        tee.emit(RoundStarted(round=1))
        assert len(a.events) == len(b.events) == 1

    def test_tee_of_null_sinks_is_disabled(self):
        assert TeeSink(NullSink(), NullSink()).enabled is False


class TestMetrics:
    def test_counter_monotone(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        assert g.value is None
        g.set(3)
        g.set(7)
        assert g.snapshot() == {"type": "gauge", "value": 7}

    def test_histogram_aggregates(self):
        h = Histogram("h")
        h.observe(2)
        h.observe(2)
        h.observe(10)
        assert (h.count, h.total, h.min, h.max) == (3, 14, 2, 10)
        assert h.mean == pytest.approx(14 / 3)
        assert h.snapshot()["counts"] == {"2": 2, "10": 1}

    def test_histogram_bulk_observe(self):
        h = Histogram("h")
        h.observe(3, count=5)
        assert h.count == 5 and h.total == 15
        with pytest.raises(ValueError):
            h.observe(1, count=0)

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg and "b" not in reg
        assert len(reg) == 1

    def test_registry_rejects_type_conflicts(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_is_sorted_plain_data(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(1)
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"] == {"type": "counter", "value": 1}

    def test_as_rows_has_value_or_distribution(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(1)
        rows = {row["metric"]: row for row in reg.as_rows()}
        assert rows["c"]["value"] == 2
        assert rows["h"]["count"] == 1 and "value" not in rows["h"]


class TestApplyEvent:
    def test_accepts_typed_events_and_dicts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ev = MessageDelivered(
            step=1, seq=0, sender=1, receiver=2, arrival_port=0,
            payload="p", round=1, newly_informed=True,
        )
        apply_event(a, ev)
        apply_event(b, ev.to_dict())
        assert a.snapshot() == b.snapshot()
        assert a.counter("messages_delivered").value == 1
        assert a.counter("nodes_informed").value == 1

    def test_advice_histogram_replays_from_string_keys(self):
        reg = MetricsRegistry()
        ev = AdviceComputed(oracle="O", nodes=3, total_bits=5, bits_histogram={1: 1, 2: 2})
        # JSON round trip stringifies the histogram keys; the reducer must cope.
        apply_event(reg, json.loads(encode_event(ev)))
        hist = reg.histogram("advice_bits_per_node")
        assert hist.count == 3 and hist.total == 5

    def test_unknown_kinds_are_ignored(self):
        reg = MetricsRegistry()
        apply_event(reg, {"event": "from_the_future", "x": 1})
        assert len(reg) == 0


class TestObservation:
    def test_null_observation_is_disabled_and_shared(self):
        assert NULL_OBSERVATION.enabled is False
        assert resolve_obs(None) is NULL_OBSERVATION
        obs = Observation()
        assert obs.enabled is False
        obs.emit(RoundStarted(round=1))  # swallowed
        assert obs.metrics is None

    def test_resolve_passes_real_observations_through(self):
        obs = Observation(MemorySink())
        assert resolve_obs(obs) is obs

    def test_emit_feeds_sink_and_metrics(self):
        obs = Observation(MemorySink(), metrics=MetricsRegistry())
        assert obs.enabled
        obs.emit(RoundStarted(round=1))
        assert len(obs.sink.events) == 1
        assert obs.metrics.counter("rounds_started").value == 1

    def test_metrics_only_observation_is_enabled(self):
        reg = MetricsRegistry()
        obs = Observation(metrics=reg)
        assert obs.enabled
        obs.emit(RoundStarted(round=1))
        assert reg.counter("rounds_started").value == 1

    def test_span_emits_markers_and_times_separately(self):
        obs = Observation(MemorySink())
        with obs.span("phase"):
            pass
        kinds = [ev.kind for ev in obs.sink.events]
        assert kinds == ["span_started", "span_ended"]
        timing = obs.timings.histogram("walltime_s.phase")
        assert timing.count == 1 and timing.min >= 0
        # The wall-clock duration never contaminates the event stream.
        assert "walltime" not in encode_event(obs.sink.events[0])

    def test_span_on_disabled_observation_is_a_no_op(self):
        obs = Observation()
        with obs.span("phase"):
            pass
        assert len(obs.timings) == 0

    def test_context_manager_closes_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Observation(JSONLSink(str(path))) as obs:
            obs.emit(RoundStarted(round=1))
        with pytest.raises(ValueError):
            obs.sink.emit(RoundStarted(round=2))


class TestEngineTelemetry:
    def test_broadcast_stream_brackets_the_run(self):
        obs = Observation(MemorySink())
        result = run_broadcast(
            complete_graph_star(8), LightTreeBroadcastOracle(), SchemeB(), obs=obs
        )
        events = obs.sink.events
        kinds = [ev.kind for ev in events]
        assert kinds[0] == "span_started"  # oracle phase
        run_start = next(ev for ev in events if ev.kind == "run_started")
        assert isinstance(run_start, RunStarted)
        assert run_start.task == "broadcast"
        assert run_start.nodes == 8
        assert run_start.scheduler == "SynchronousScheduler"
        run_end = next(ev for ev in events if ev.kind == "run_ended")
        assert isinstance(run_end, RunEnded)
        assert run_end.messages == result.messages
        assert run_end.informed == result.informed

    def test_metrics_agree_with_the_task_result(self):
        obs = Observation(MemorySink(), metrics=MetricsRegistry())
        result = run_broadcast(
            complete_graph_star(8), LightTreeBroadcastOracle(), SchemeB(), obs=obs
        )
        m = obs.metrics
        assert m.counter("messages_sent").value == result.messages
        assert m.gauge("informed").value == result.informed
        assert m.gauge("oracle_bits").value == result.oracle_bits
        assert m.gauge("informed_fraction").value == 1.0
        assert m.histogram("advice_bits_per_node").count == 8
        assert m.histogram("advice_bits_per_node").total == result.oracle_bits

    def test_wakeup_stream_is_tagged_wakeup(self):
        obs = Observation(MemorySink())
        run_wakeup(
            complete_graph_star(6), SpanningTreeWakeupOracle(), TreeWakeup(), obs=obs
        )
        run_start = next(ev for ev in obs.sink.events if ev.kind == "run_started")
        assert run_start.task == "wakeup"
        assert run_start.wakeup is True

    def test_spans_cover_oracle_and_simulate(self):
        obs = Observation(MemorySink())
        run_broadcast(path_graph(5), NullOracle(), Flooding(), obs=obs)
        assert "walltime_s.oracle" in obs.timings.names()
        assert "walltime_s.simulate" in obs.timings.names()

    def test_limit_hit_is_reported(self):
        obs = Observation(MemorySink(), metrics=MetricsRegistry())
        result = run_broadcast(
            complete_graph_star(8), NullOracle(), Flooding(), max_messages=5, obs=obs
        )
        assert not result.success
        assert any(ev.kind == "limit_hit" for ev in obs.sink.events)
        run_end = next(ev for ev in obs.sink.events if ev.kind == "run_ended")
        assert run_end.limit_hit is True
        assert obs.metrics.counter("limit_hits").value >= 1

    def test_disabled_obs_changes_nothing(self):
        base = run_broadcast(complete_graph_star(8), LightTreeBroadcastOracle(), SchemeB())
        observed = run_broadcast(
            complete_graph_star(8),
            LightTreeBroadcastOracle(),
            SchemeB(),
            obs=Observation(MemorySink()),
        )
        assert base.messages == observed.messages
        assert base.rounds == observed.rounds


def _trace_bytes(scheduler_name, seed):
    buf = io.StringIO()
    with Observation(JSONLSink(buf)) as obs:
        run_broadcast(
            complete_graph_star(10),
            LightTreeBroadcastOracle(),
            SchemeB(),
            scheduler=make_scheduler(scheduler_name, seed=seed),
            obs=obs,
        )
    return buf.getvalue()


class TestStreamDeterminism:
    """Satellite guarantee: same seed => byte-identical JSONL stream."""

    @pytest.mark.parametrize(
        "scheduler_name", ["sync", "fifo", "random", "delay-hello", "hurry-hello"]
    )
    def test_same_seed_same_bytes(self, scheduler_name):
        first = _trace_bytes(scheduler_name, seed=7)
        second = _trace_bytes(scheduler_name, seed=7)
        assert first == second
        assert first  # non-empty stream

    def test_different_seeds_can_differ(self):
        # The random scheduler's order is seed-driven; the streams say so.
        assert _trace_bytes("random", seed=1) != _trace_bytes("random", seed=2)


class TestExportRoundTrip:
    """Satellite guarantee: saved JSONL replays to the live registry."""

    def test_replay_reproduces_live_metrics(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Observation(JSONLSink(str(path)), metrics=MetricsRegistry()) as obs:
            run_broadcast(
                complete_graph_star(12), LightTreeBroadcastOracle(), SchemeB(), obs=obs
            )
        replayed = replay_metrics(read_jsonl(str(path)))
        assert replayed.snapshot() == obs.metrics.snapshot()

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event":"run_started"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(str(bad))
        not_events = tmp_path / "plain.jsonl"
        not_events.write_text('{"no_event_key": 1}\n')
        with pytest.raises(ValueError, match="not a telemetry event"):
            read_jsonl(str(not_events))

    def test_split_runs_and_run_rows(self):
        events = [
            {"event": "run_started", "task": "broadcast", "nodes": 4, "edges": 3,
             "scheduler": "SynchronousScheduler"},
            {"event": "run_ended", "messages": 3, "rounds": 2, "informed": 4,
             "nodes": 4, "delivered": 3, "undelivered": 0, "completed": True,
             "limit_hit": False},
            {"event": "run_started", "task": "wakeup", "nodes": 6, "edges": 5,
             "scheduler": "SynchronousScheduler"},
            {"event": "run_ended", "messages": 5, "rounds": 1, "informed": 6,
             "nodes": 6, "delivered": 5, "undelivered": 0, "completed": True,
             "limit_hit": False},
        ]
        groups = split_runs(events)
        assert [len(g) for g in groups] == [2, 2]
        rows = run_rows(events)
        assert [r["run"] for r in rows] == [1, 2]
        assert rows[0]["task"] == "broadcast" and rows[1]["n"] == 6

    def test_per_round_rows(self):
        events = [
            {"event": "message_delivered", "round": 1, "step": 1, "newly_informed": True},
            {"event": "message_delivered", "round": 1, "step": 2, "newly_informed": False},
            {"event": "message_delivered", "round": 3, "step": 3, "newly_informed": True},
        ]
        assert per_round_rows(events) == [
            {"round": 1, "delivered": 2},
            {"round": 3, "delivered": 1},
        ]

    def test_stats_report_renders_tables(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Observation(JSONLSink(str(path))) as obs:
            run_broadcast(
                complete_graph_star(8), LightTreeBroadcastOracle(), SchemeB(), obs=obs
            )
        report = stats_report(read_jsonl(str(path)))
        assert "Runs (1)" in report
        assert "Deliveries per round" in report
        assert "Metrics" in report
        assert "messages_sent" in report

    def test_stats_report_fits_growth_across_sizes(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with Observation(JSONLSink(str(path))) as obs:
            for n in (8, 16, 32):
                run_broadcast(
                    complete_graph_star(n), LightTreeBroadcastOracle(), SchemeB(), obs=obs
                )
        report = stats_report(read_jsonl(str(path)))
        assert "Message growth" in report

    def test_empty_stream(self):
        assert stats_report([]) == "(empty stream)"


class TestBenchEmitter:
    RAW = {
        "version": "5.2.3",
        "datetime": "2026-01-01T00:00:00",
        "machine_info": {
            "python_version": "3.12.0",
            "python_implementation": "CPython",
            "machine": "x86_64",
            "system": "Linux",
            "node": "secret-hostname",
        },
        "benchmarks": [
            {
                "name": "test_b[2]",
                "fullname": "bench/f.py::test_b[2]",
                "group": "g",
                "stats": {"min": 1.0, "max": 2.0, "mean": 1.5, "stddev": 0.1,
                          "median": 1.4, "rounds": 9, "iterations": 1,
                          "hd15iqr": 123.0},
                "extra_info": {"n": 2},
            },
            {
                "name": "test_a[1]",
                "fullname": "bench/f.py::test_a[1]",
                "group": "g",
                "stats": {"min": 0.5, "max": 0.9, "mean": 0.7, "stddev": 0.05,
                          "median": 0.7, "rounds": 5, "iterations": 2},
            },
        ],
    }

    def test_convert_sorts_and_distills(self):
        doc = convert_benchmark_json(self.RAW)
        assert doc["schema"] == "repro-bench/1"
        names = [b["name"] for b in doc["benchmarks"]]
        assert names == ["test_a[1]", "test_b[2]"]
        b = doc["benchmarks"][1]
        assert b["mean_s"] == 1.5 and b["rounds"] == 9
        assert "hd15iqr" not in b and "hd15iqr_s" not in b
        assert b["extra_info"] == {"n": 2}
        assert "node" not in doc["machine"]  # hostname stays out of the repo

    def test_convert_rejects_non_benchmark_docs(self):
        with pytest.raises(ValueError):
            convert_benchmark_json({"something": "else"})

    def test_emit_writes_stable_json(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(self.RAW))
        out = tmp_path / "bench.json"
        doc = emit_bench_obs(str(raw), str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk == doc
        assert out.read_text().endswith("\n")


class TestTraceSummary:
    def test_summary_headline_numbers(self):
        result = run_broadcast(
            complete_graph_star(8), LightTreeBroadcastOracle(), SchemeB()
        )
        summary = result.trace.summary()
        assert summary["messages"] == result.messages
        assert summary["informed"] == result.informed
        assert summary["rounds"] == result.rounds
        assert summary["completed"] is True
        assert summary["undelivered"] == 0
        assert summary["informed_fraction"] == 1.0
        assert sum(summary["per_round"].values()) == summary["delivered"]

    def test_summary_counts_undelivered_on_truncation(self):
        result = run_broadcast(
            complete_graph_star(8), NullOracle(), Flooding(), max_messages=5
        )
        summary = result.trace.summary()
        assert summary["limit_hit"] is True
        assert summary["undelivered"] == len(result.trace.undelivered) > 0


class TestAdversaryTelemetry:
    def test_probe_stream_shows_the_halving(self):
        from repro.lowerbounds import adversary_demonstration

        obs = Observation(MemorySink(), metrics=MetricsRegistry())
        results = adversary_demonstration(4, 2, obs=obs)
        assert all(r.certified for r in results)
        probes = [ev for ev in obs.sink.events if ev.kind == "adversary_probe"]
        assert probes
        for ev in probes:
            assert ev.active_after <= ev.active_before
        assert obs.metrics.counter("adversary_probes").value == len(probes)
