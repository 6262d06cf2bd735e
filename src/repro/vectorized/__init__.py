"""Struct-of-arrays execution: Theorem 2.2's gadget runs as numpy ops.

The per-delivery loops (:mod:`repro.simulator.engine`,
:mod:`repro.fastpath.engine`) pay Python-interpreter cost per message,
and need the graph's port tables in memory.  Theorem 2.2's ``G_{n,S}``
gadget has ``Θ(n²)`` edges, so at ``n = 10^5`` neither is affordable.
This package runs the gadget's tree wakeup without either:

* :mod:`~repro.vectorized.gadgets` builds the ``G_{n,S}`` spanning-tree
  program *implicitly* — the BFS tree the oracle would output is derived
  analytically, never from materialized port tables — and runs a seed or
  a multi-seed batch of them (:func:`mega_gadget_wakeup`,
  :func:`mega_gadget_batch`);
* :mod:`~repro.vectorized.core` drains whole synchronous rounds of those
  programs as frontier array operations (lexsort delivery ordering,
  first-occurrence activation, informed-set union), for a *batch* of
  replicas pushed through a single pass.

Nothing here goes through :class:`~repro.simulator.Simulation`.  The
core's counters are held to the reference loop's on explicit gadgets
small enough to build (``tests/test_engine_properties.py``).
"""

from .core import ReplicaCounters, ReplicaProgram, run_batch
from .gadgets import (
    MegaGadgetRow,
    gadget_spanning_program,
    mega_gadget_batch,
    mega_gadget_wakeup,
    sample_edge_tuple_sparse,
)

__all__ = [
    "ReplicaProgram",
    "ReplicaCounters",
    "run_batch",
    "MegaGadgetRow",
    "gadget_spanning_program",
    "mega_gadget_wakeup",
    "sample_edge_tuple_sparse",
    "mega_gadget_batch",
]
