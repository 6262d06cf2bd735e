"""Reference grid measurements for the process-pool fan-out.

The equivalence tests and the committed parallel benchmark both need a
realistic, *picklable* measurement — a module-level function a worker
process can import by name.  :func:`e1_e4_cell` is that measurement: one
sweep cell running both paper upper bounds (Theorem 2.1 wakeup and
Theorem 3.1 broadcast) on the cell's graph, with full telemetry when the
sweep passes an ``obs`` and advice memoization when it passes a ``cache``.

``functools.partial(e1_e4_cell, seed=...)`` remains picklable, which is
how seeded variants of the grid travel to workers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..algorithms.scheme_b import SchemeB
from ..algorithms.tree_wakeup import TreeWakeup
from ..core.tasks import run_broadcast, run_wakeup
from ..network.graph import PortLabeledGraph
from ..obs.observe import Observation
from ..oracles.light_tree import LightTreeBroadcastOracle
from ..oracles.spanning_tree import SpanningTreeWakeupOracle
from ..simulator.schedulers import make_scheduler

__all__ = ["e1_e4_cell"]


def e1_e4_cell(
    family: str,
    n: int,
    graph: PortLabeledGraph,
    obs: Optional[Observation] = None,
    cache=None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run the E1 wakeup pair and the E4 broadcast pair on one grid cell.

    ``seed`` drives the (deterministic) random scheduler for both runs, so
    distinct seeds exercise genuinely different delivery orders — and
    therefore different event streams — without losing reproducibility.
    With a ``cache``, each pair's advice is memoized under the oracle's
    name; the graph itself is already cached by the sweep layer.
    """
    nn = graph.num_nodes
    wake_oracle = SpanningTreeWakeupOracle()
    bcast_oracle = LightTreeBroadcastOracle()
    wake_advice = (
        cache.advice(family, n, wake_oracle, graph) if cache is not None else None
    )
    bcast_advice = (
        cache.advice(family, n, bcast_oracle, graph) if cache is not None else None
    )
    # The row reads only aggregate counters, so neither run needs the
    # per-delivery log; counters mode leaves the obs event stream intact.
    wake = run_wakeup(
        graph,
        wake_oracle,
        TreeWakeup(),
        scheduler=make_scheduler("random", seed=seed),
        advice=wake_advice,
        obs=obs,
        trace_level="counters",
    )
    bcast = run_broadcast(
        graph,
        bcast_oracle,
        SchemeB(),
        scheduler=make_scheduler("random", seed=seed),
        advice=bcast_advice,
        obs=obs,
        trace_level="counters",
    )
    return {
        "family": family,
        "n": nn,
        "wakeup_bits": wake.oracle_bits,
        "wakeup_msgs": wake.messages,
        "wakeup_ok": wake.success and wake.messages == nn - 1,
        "bcast_bits": bcast.oracle_bits,
        "bcast_msgs": bcast.messages,
        "bcast_ok": bcast.success and bcast.messages <= 2 * (nn - 1),
    }

