"""Struct-of-arrays execution: whole synchronous rounds as numpy ops.

The per-delivery engines (:mod:`repro.simulator.engine`,
:mod:`repro.fastpath.engine`) pay Python-interpreter cost per message —
~1.4 µs/delivery in counters mode — which caps the paper's separation
curves near ``n = 10^3``.  This package removes the per-message loop for
the synchronous schedules those curves actually use:

* :mod:`~repro.vectorized.program` compiles the run's schemes into a
  :class:`~repro.vectorized.program.VectorProgram` — a declarative
  per-node send table (flooding's "all ports but the arrival" or
  tree-wakeup's decoded children ports) over numpy views of the PR 4 CSR
  topology;
* :mod:`~repro.vectorized.core` drains whole rounds as frontier array
  operations (lexsort delivery ordering, first-occurrence activation,
  informed-set union), for one run or for a *batch* of (cell, seed)
  replicas pushed through a single pass;
* :mod:`~repro.vectorized.engine` is the dispatch target of
  ``Simulation.run(engine="vectorized")``: counters-mode quiet runs take
  the numpy core, and everything else — full traces, observed runs,
  ``stop_when_informed``, runs a safety limit would truncate, schemes the
  compiler cannot express — runs on the fast path, so the engine is
  *always* byte-identical to the legacy loop
  (``tests/test_differential.py``);
* :mod:`~repro.vectorized.gadgets` builds the ``G_{n,S}`` spanning-tree
  program *implicitly* — the gadget has ``Θ(n²)`` edges, so at
  ``n = 10^5`` the CSR tables could never be materialized; the BFS tree
  the oracle would output is derived analytically instead — and runs a
  seed or a multi-seed batch of them through the core
  (:func:`mega_gadget_wakeup`, :func:`mega_gadget_batch`).
"""

from .core import ReplicaCounters, ReplicaProgram, VectorLimitAbort, run_batch
from .engine import run_vectorized
from .gadgets import (
    MegaGadgetRow,
    gadget_spanning_program,
    mega_gadget_batch,
    mega_gadget_wakeup,
    sample_edge_tuple_sparse,
)
from .program import (
    VectorProgram,
    VectorTopology,
    compile_program,
    register_vector_semantics,
)

__all__ = [
    "VectorTopology",
    "VectorProgram",
    "compile_program",
    "register_vector_semantics",
    "ReplicaProgram",
    "ReplicaCounters",
    "VectorLimitAbort",
    "run_batch",
    "run_vectorized",
    "MegaGadgetRow",
    "gadget_spanning_program",
    "mega_gadget_wakeup",
    "sample_edge_tuple_sparse",
    "mega_gadget_batch",
]
