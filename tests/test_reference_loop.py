"""Pinned bytes of the reference loop, ``Simulation._run_legacy``.

Under every scheduler but a fresh ``sync`` one, both sides of
``test_fastpath.check_byte_identity`` run the reference loop, so the
differential suite compares it with itself.  These pins carry its bytes
across changes to the engine: one sha256 per cell, over the JSONL event
stream and the canonical trace of each run in the cell, taken with
``REPRO_FASTPATH=0`` so that ``sync`` runs the reference loop too.

A cell is one graph x scheduler x trace level x limit.  Each cell runs
the differential suite's three (task, oracle, algorithm) pairs, plus an
anonymous run and a source-less run, on that graph.
"""

import hashlib
import io
import json
import random

import pytest

from repro.algorithms.flooding import Flooding
from repro.algorithms.scheme_b import SchemeB
from repro.algorithms.tree_wakeup import TreeWakeup
from repro.core.oracle import NullOracle
from repro.network import complete_graph_star
from repro.network.constructions import sample_edge_tuple, subdivision_family_graph
from repro.obs.events import jsonable
from repro.obs.observe import Observation
from repro.obs.sinks import JSONLSink
from repro.oracles.light_tree import LightTreeBroadcastOracle
from repro.oracles.spanning_tree import SpanningTreeWakeupOracle
from repro.simulator.engine import Simulation
from repro.simulator.schedulers import SCHEDULER_NAMES, make_scheduler
from repro.simulator.trace import TRACE_LEVELS

GRAPHS = {
    "kstar12": lambda: complete_graph_star(12),
    "subdivided11": lambda: subdivision_family_graph(
        11, sample_edge_tuple(11, 11, random.Random(7))
    ),
}

#: No limit, and a message limit that truncates every run that sends.
LIMITS = {"none": {}, "msg7": {"max_messages": 7}}

#: (task, oracle factory, algorithm factory, engine switches) per run.
RUNS = (
    ("broadcast", NullOracle, Flooding, {}),
    ("broadcast", LightTreeBroadcastOracle, SchemeB, {}),
    ("wakeup", SpanningTreeWakeupOracle, TreeWakeup, {}),
    ("broadcast", LightTreeBroadcastOracle, SchemeB, {"anonymous": True}),
    ("broadcast", NullOracle, Flooding, {"no_source": True}),
)

CELLS = [
    f"{graph}/{scheduler}/{level}/{limit}"
    for graph in GRAPHS
    for scheduler in SCHEDULER_NAMES
    for level in TRACE_LEVELS
    for limit in LIMITS
]


def _canonical(value) -> str:
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def _trace_line(trace) -> str:
    """Every field of the trace, dicts as ordered pairs so order counts."""
    return _canonical(
        {
            "messages_sent": trace.messages_sent,
            "delivered": trace.delivered,
            "rounds": trace.rounds,
            "completed": trace.completed,
            "message_limit_hit": trace.message_limit_hit,
            "trace_level": trace.trace_level,
            "informed_at": list(trace.informed_at.items()),
            "round_counts": list(trace.round_counts.items()),
            "deliveries": [list(d) for d in trace.deliveries],
            "undelivered": [list(m) for m in trace.undelivered],
            "outputs": list(trace.outputs.items()),
        }
    )


def cell_blob(cell: str) -> bytes:
    """The event stream and trace of every run in ``cell``, as bytes."""
    graph_name, scheduler_name, trace_level, limit_name = cell.split("/")
    graph = GRAPHS[graph_name]()
    lines = []
    for task, oracle, algorithm, switches in RUNS:
        advice = oracle().advise(graph)
        alg = algorithm()
        no_source = switches.get("no_source", False)
        schemes = {
            v: alg.scheme_for(
                advice[v],
                not no_source and v == graph.source,
                None if switches.get("anonymous") else v,
                graph.degree(v),
            )
            for v in graph.nodes()
        }
        stream = io.StringIO()
        trace = Simulation(
            graph,
            schemes,
            advice=advice,
            scheduler=make_scheduler(scheduler_name, seed=1),
            wakeup=task == "wakeup",
            obs=Observation(sink=JSONLSink(stream)),
            trace_level=trace_level,
            **LIMITS[limit_name],
            **switches,
        ).run()
        lines.append(stream.getvalue())
        lines.append(_trace_line(trace) + "\n")
    return "".join(lines).encode("utf-8")


def cell_digest(cell: str) -> str:
    return hashlib.sha256(cell_blob(cell)).hexdigest()


#: sha256 of ``cell_blob(cell)`` under ``REPRO_FASTPATH=0``.
PINS = {
    "kstar12/sync/full/none": "a522f5f6b779e2fa085c2f425913807fa871df8bb11ca4d15ac844ae13d13981",
    "kstar12/sync/full/msg7": "dbb605af5f76234ac9ebc6bf0d2dea7e528abf6e6199ef29be16569bd6e939a2",
    "kstar12/sync/counters/none": "bf79eecb2ad9faa0f9c4bc97f22257360d4d137d7313fd30961c5fce82bdebd1",
    "kstar12/sync/counters/msg7": "90d32dd5bb8ffe770e6cdd91f360704109127b8f0c7ba09827f9258465b4c5a3",
    "kstar12/fifo/full/none": "a547e65cf9b73800e29f4fb2c0d09c399e50c625edbbe83d3bd72891a6d3e18d",
    "kstar12/fifo/full/msg7": "452c67f473cda1546785c07a91fcfaf4f50ab18944c653f9b4e79079c00570fa",
    "kstar12/fifo/counters/none": "bda7f8a985992d5def3a6e4c7c8be6b9b04140837ff554bad35c4f808d90b167",
    "kstar12/fifo/counters/msg7": "e3538cdd61b5978769cdee237480ab07a77c1f8478536e4694b71bd6f2c94c0b",
    "kstar12/random/full/none": "1e43bfdd8b76b586284307c06fb133645f04bd92f2cd44b19f6a3af677a70256",
    "kstar12/random/full/msg7": "0ff42c609886b16b87215d0d80a674a8ab5c2abfcdf73613138a05d69ccfccc7",
    "kstar12/random/counters/none": "fe189a284f6ceea0d9b96574c9668c1ec001338168f04a09fde2daed4f71cb01",
    "kstar12/random/counters/msg7": "9c9e9d8434827ac69bcec061cba4adc5cc06dddcfb7bb52bef3710e0930410ef",
    "kstar12/delay-hello/full/none": "3e35f6c56c3a84ff14be4c5261be25b7062820e9f14e33690db547322ba95773",
    "kstar12/delay-hello/full/msg7": "4a33f5875e87d70170230e702971ccf159f0f3dfb27399e85b2cca7258f62827",
    "kstar12/delay-hello/counters/none": "997819abb8e84f93d20f1677201a614e3c5671f1341acfe549d74f471ac535ef",
    "kstar12/delay-hello/counters/msg7": "c11702dee45fa46e96fb56ebc567062abb840e8f458b3d36d4fd0f407617869b",
    "kstar12/hurry-hello/full/none": "fca78cff311010387ba0499ba06c8047ced9d47162fe9b7f0320192992849193",
    "kstar12/hurry-hello/full/msg7": "f7957f7c688047ec233a9f5db3c37c75f0bcf5a07eb23d7041a055859ca7ab60",
    "kstar12/hurry-hello/counters/none": "acac039fa43299d01afff05b344418ea993f7c7bd9762b0d53cf621573a08e43",
    "kstar12/hurry-hello/counters/msg7": "c7c8fcceb47a3e335ecfa92cb17bf6ee62985d9959d8a8ccf2791bf008c9903a",
    "subdivided11/sync/full/none": "a27bdc478c8f08d18ca7a6a83fee95d106825efb48bb88349b7685382c4c2c02",
    "subdivided11/sync/full/msg7": "757a0deb65c9e905c0a780da940888c3496c179d80190f0b5e200ddbcf62b0e4",
    "subdivided11/sync/counters/none": "a9b839f069f62c2998a3d1ea1cbb4baaa77cd0428a5ade736bb886be289bf64c",
    "subdivided11/sync/counters/msg7": "55d2ee7229f47deb441a235035ddd238ada5244bf7617b0a61e27409ea89a987",
    "subdivided11/fifo/full/none": "0974fce8e254baa2cd771443d431c444d58f97cc67a906bc9ad2d9cad8fcb1e6",
    "subdivided11/fifo/full/msg7": "303bbe2cf9e388317d234fae8ce1eee6e53746ad6140f217821929bd09765f1c",
    "subdivided11/fifo/counters/none": "0cb211af23e21d8f6824515135bf4e27e89e45dd1f08df24773b4ea4cfa55030",
    "subdivided11/fifo/counters/msg7": "95cd082e0336b8dfb122c4af2858e451ac53799111274156cbd4bc4bef520f73",
    "subdivided11/random/full/none": "4dd07b8f20832745addcdc2f527198f4c062f02bce153df8abe02938fafbb3e2",
    "subdivided11/random/full/msg7": "a55ccf31d5040dd78c24e060055e6e7905990dec9ff9aa38354c698d4566d8d3",
    "subdivided11/random/counters/none": "6b8883c9cd3f260e1cc6314d82dc527ec0f7c947dbbe680b14409e9e97bfc6a4",
    "subdivided11/random/counters/msg7": "058444c9c6e976c34b2041c41cdf00b3c9a3510e2da2c0023c859c1c689c155f",
    "subdivided11/delay-hello/full/none": "742e5137232ec0ef71f2f2dff55a07b998af1aebb2fc4a4d568770ffed0a3e5f",
    "subdivided11/delay-hello/full/msg7": "9c76bc44638d0132fcf0d548b1d60c0cf9d95c8ef6df41884d6967c1f56df212",
    "subdivided11/delay-hello/counters/none": "b9ea1942372efc4323937e45cc6b977ba85b35974e4ffd8e4232e227ecd0c60a",
    "subdivided11/delay-hello/counters/msg7": "054ce3e771452f0daf1b422c218d913e748c9afd4fdd92c891d12d7da6573814",
    "subdivided11/hurry-hello/full/none": "c88c6a97d86f4f65d439438439e049bce1e887008028bf8e48560c17047a6750",
    "subdivided11/hurry-hello/full/msg7": "5ca3686c9c5ab8e9bcc40fc7c08efa25e8f2adf82b32389f3626945e7c68c14d",
    "subdivided11/hurry-hello/counters/none": "5a9e2a3ad1b53d7a5e99beea7ab64f681bfad0b9f82071ee2bcd8725edaa049f",
    "subdivided11/hurry-hello/counters/msg7": "b815ea1f5ea808458622053f90646f8c5281becd0e5bfc16d7b9d2685dc383eb",
}


def test_every_cell_is_pinned():
    assert sorted(PINS) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_reference_loop_pin(cell, monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    assert cell_digest(cell) == PINS.get(cell)


@pytest.mark.parametrize("cell", [c for c in CELLS if "/sync/" in c])
def test_fast_path_meets_the_sync_pins(cell, monkeypatch):
    """A fresh ``sync`` scheduler runs the fast path to the same bytes."""
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    assert cell_digest(cell) == PINS.get(cell)


def test_planted_late_round_fails_every_pin(monkeypatch):
    """A reference loop that delivers each send one round late: RoundStarted
    and every delivery's round move, and no cell keeps its pin."""
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    enqueue = Simulation._enqueue

    def one_round_late(self, runtime, sends, deliver_at, cause=0):
        return enqueue(self, runtime, sends, deliver_at + 1, cause)

    monkeypatch.setattr(Simulation, "_enqueue", one_round_late)
    assert [cell for cell in CELLS if cell_digest(cell) == PINS.get(cell)] == []
